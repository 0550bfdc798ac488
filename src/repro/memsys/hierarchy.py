"""Two-level cache hierarchy with a backing DRAM latency model."""

from dataclasses import dataclass

from repro.memsys.cache import CacheModel
from repro.memsys.prefetcher import StridePrefetcher


@dataclass(frozen=True)
class MemConfig:
    """Geometry and latencies of the data-side memory hierarchy.

    The dataclass is frozen, so instances are hashable and compare by
    value — they participate in ``CoreConfig.to_dict()`` /
    ``fingerprint()`` and therefore in the campaign engine's
    content-addressed cache keys (every field below changes the key).

    Latencies are *additional* cycles after address generation; an L1
    hit therefore has a load-to-use latency of ``l1_latency`` cycles.
    The defaults mirror a BOOM-class configuration: a 4-cycle 32 KiB-ish
    L1, a 14-cycle L2, and ~90-cycle DRAM (the paper criticises earlier
    gem5 evaluations for using a 1-cycle L1; see Section 9.5 — our gem5
    proxy config overrides ``l1_latency`` to 1 to reproduce that).
    """

    line_words: int = 8
    l1_sets: int = 64
    l1_ways: int = 8
    l1_latency: int = 4
    l2_sets: int = 512
    l2_ways: int = 8
    l2_latency: int = 14
    dram_latency: int = 90
    prefetch_enabled: bool = True
    prefetch_table_size: int = 64
    prefetch_degree: int = 2

    def validate(self):
        if self.l1_latency <= 0 or self.l2_latency <= 0 or self.dram_latency <= 0:
            raise ValueError("latencies must be positive")
        if not self.l1_latency <= self.l2_latency <= self.dram_latency:
            raise ValueError("latencies must be monotonic L1 <= L2 <= DRAM")


class MemoryHierarchy:
    """L1D + L2 + DRAM latency model with an L1 stride prefetcher.

    ``access`` is called by the LSU once a load or store address is
    known; it returns the access latency in cycles and fills lines on
    the way (inclusive hierarchy).
    """

    def __init__(self, config=None):
        self.config = config or MemConfig()
        self.config.validate()
        cfg = self.config
        self.l1 = CacheModel(cfg.l1_sets, cfg.l1_ways, cfg.line_words, name="L1D")
        self.l2 = CacheModel(cfg.l2_sets, cfg.l2_ways, cfg.line_words, name="L2")
        self.prefetcher = (
            StridePrefetcher(
                table_size=cfg.prefetch_table_size,
                degree=cfg.prefetch_degree,
                line_words=cfg.line_words,
            )
            if cfg.prefetch_enabled
            else None
        )
        self.accesses = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.dram_accesses = 0

    def access(self, address, pc=0, is_write=False, train_prefetcher=True):
        """Perform a timed access; returns (latency_cycles, level_name).

        Fills the line into L1 (and L2) on a miss.  Trains the stride
        prefetcher with demand accesses; prefetched lines are installed
        immediately (their latency is hidden by the model, a reasonable
        idealisation for a non-blocking prefetcher).
        """
        cfg = self.config
        self.accesses += 1
        if self.prefetcher is not None and train_prefetcher and not is_write:
            for target in self.prefetcher.observe(pc, address):
                self._install(target)

        if self.l1.lookup(address):
            self.l1_hits += 1
            return cfg.l1_latency, "L1"
        if self.l2.lookup(address):
            self.l2_hits += 1
            self.l1.insert(address)
            return cfg.l2_latency, "L2"
        self.dram_accesses += 1
        self._install(address)
        return cfg.dram_latency, "DRAM"

    def _install(self, address):
        self.l2.insert(address)
        self.l1.insert(address)

    def warm(self, addresses, level="l2"):
        """Pre-install lines into the hierarchy (measurement warmup).

        The paper warms 50M instructions before measuring each
        SimPoint; the model equivalent installs a program's initialised
        data into the L2 (or both levels) so short measurement runs are
        not dominated by cold compulsory misses.
        """
        if level not in ("l1", "l2"):
            raise ValueError("level must be l1 or l2")
        seen = set()
        for address in addresses:
            line = self.l2.line_address(address)
            if line in seen:
                continue
            seen.add(line)
            self.l2.insert(address)
            if level == "l1":
                self.l1.insert(address)

    def flush_all(self):
        """Empty both cache levels (attack setup helper)."""
        self.l1.invalidate_all()
        self.l2.invalidate_all()
        if self.prefetcher is not None:
            self.prefetcher.reset()

    def stats(self):
        """Return a dict of access counters."""
        return {
            "accesses": self.accesses,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "dram_accesses": self.dram_accesses,
            "prefetches": (
                self.prefetcher.prefetches_issued if self.prefetcher else 0
            ),
        }

"""Unit tests for the memory hierarchy and prefetcher."""

import pytest

from repro.memsys.hierarchy import MemConfig, MemoryHierarchy
from repro.memsys.prefetcher import StridePrefetcher


def test_latency_laddering():
    mem = MemoryHierarchy(MemConfig(prefetch_enabled=False))
    cfg = mem.config
    lat, level = mem.access(0)
    assert (lat, level) == (cfg.dram_latency, "DRAM")
    lat, level = mem.access(0)
    assert (lat, level) == (cfg.l1_latency, "L1")


def test_l2_hit_after_l1_eviction():
    cfg = MemConfig(l1_sets=1, l1_ways=1, prefetch_enabled=False)
    mem = MemoryHierarchy(cfg)
    mem.access(0)
    mem.access(8)      # evicts line 0 from the 1-entry L1
    lat, level = mem.access(0)
    assert level == "L2"
    assert lat == cfg.l2_latency


def test_warm_installs_into_l2_only():
    mem = MemoryHierarchy(MemConfig(prefetch_enabled=False))
    mem.warm([0, 1, 2, 64])
    assert mem.l2.contains(0) and mem.l2.contains(64)
    assert not mem.l1.contains(0)
    lat, level = mem.access(0)
    assert level == "L2"


def test_flush_all():
    mem = MemoryHierarchy()
    mem.access(0)
    mem.flush_all()
    assert not mem.l1.contains(0)
    assert not mem.l2.contains(0)


def test_stats_accumulate():
    mem = MemoryHierarchy(MemConfig(prefetch_enabled=False))
    mem.access(0)
    mem.access(0)
    stats = mem.stats()
    assert stats["accesses"] == 2
    assert stats["dram_accesses"] == 1
    assert stats["l1_hits"] == 1


def test_monotonic_latency_validation():
    with pytest.raises(ValueError):
        MemConfig(l1_latency=20, l2_latency=10).validate()


def test_stride_prefetcher_trains_and_fires():
    prefetcher = StridePrefetcher(threshold=2, degree=2)
    assert prefetcher.observe(1, 100) == []
    assert prefetcher.observe(1, 108) == []   # stride learned
    assert prefetcher.observe(1, 116) == []   # confidence 1
    fired = prefetcher.observe(1, 124)        # confidence 2 -> fire
    assert fired == [132, 140]


def test_stride_prefetcher_resets_on_stride_change():
    prefetcher = StridePrefetcher(threshold=1, degree=1)
    prefetcher.observe(1, 100)
    prefetcher.observe(1, 108)
    assert prefetcher.observe(1, 116) == [124]
    assert prefetcher.observe(1, 300) == []   # stride broken


def test_prefetcher_hides_stream_misses():
    cfg = MemConfig(prefetch_enabled=True, prefetch_degree=4)
    mem = MemoryHierarchy(cfg)
    levels = []
    for i in range(40):
        _lat, level = mem.access(i * 8, pc=7)
        levels.append(level)
    # After training, prefetched lines turn would-be misses into hits.
    assert "L1" in levels[4:]
    assert levels.count("DRAM") < 40


def test_prefetcher_table_capacity():
    prefetcher = StridePrefetcher(table_size=2)
    prefetcher.observe(1, 0)
    prefetcher.observe(2, 0)
    prefetcher.observe(3, 0)  # evicts pc 1
    assert len(prefetcher._table) == 2


def _warm_per_word(mem, addresses, level):
    """The per-word warm-up loop, kept as the reference."""
    seen = set()
    for address in addresses:
        line = mem.l2.line_address(address)
        if line in seen:
            continue
        seen.add(line)
        mem.l2.insert(address)
        if level == "l1":
            mem.l1.insert(address)


@pytest.mark.parametrize("level", ["l1", "l2"])
def test_warm_matches_per_word_reference(level):
    # Small caches so the warm-up evicts; duplicate words, repeated
    # lines reached through other words, and addresses out of order
    # (a line's first touch fixes its LRU position).
    cfg = MemConfig(l1_sets=2, l1_ways=2, l2_sets=4, l2_ways=2,
                    prefetch_enabled=False)
    addresses = [90, 3, 3, 17, 200, 5, 64, 8, 1000, 130, 16, 71, 9, 2,
                 512, 24, 300, 3, 88, 600]
    got, want = MemoryHierarchy(cfg), MemoryHierarchy(cfg)
    got.access(40)  # a resident line the warm-up must respect
    want.access(40)
    got.warm(addresses, level=level)
    _warm_per_word(want, addresses, level)
    for cache in ("l1", "l2"):
        assert getattr(got, cache)._sets == getattr(want, cache)._sets
        assert (getattr(got, cache).evictions
                == getattr(want, cache).evictions)
    assert want.l2.evictions > 0

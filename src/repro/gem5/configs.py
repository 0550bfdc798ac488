"""Simulator-style configurations from the original scheme papers.

Table 2 of the paper lists the shared gem5 parameters (TAGE-class
predictor, stride prefetchers); the footnotes of Table 5 note that the
STT row uses the STT paper's configuration [58] and the NDA row uses
the NDA paper's [55].  The defining difference Section 9.5 calls out
is memory idealism — "earlier works have evaluated STT with a single
cycle latency for the L1 data cache, which is 3-4 cycles faster than
the latest Intel processors".
"""

from repro.memsys.hierarchy import MemConfig
from repro.pipeline.config import CoreConfig

#: Benchmarks the paper could not run on gem5 (Section 7).  Table 5's
#: comparisons exclude them on both the gem5 and the BOOM side.
GEM5_EXCLUDED = ("508.namd", "510.parest", "511.povray")

#: The STT paper's gem5 core: wide, deep, and with a 1-cycle L1 —
#: lands near the BOOM Mega's baseline IPC (Table 5: 1.12 vs 1.09).
GEM5_STT_CONFIG = CoreConfig(
    name="gem5-stt",
    width=4,
    issue_width=4,
    mem_width=2,
    rob_entries=224,
    iq_entries=64,
    ldq_entries=48,
    stq_entries=48,
    num_phys_regs=180,
    max_branches=24,
    frontend_depth=3,
    redirect_penalty=1,
    branch_predictor="tage",
    mem=MemConfig(
        l1_latency=1,   # the Section 9.5 complaint
        l2_latency=10,
        dram_latency=70,
    ),
)

#: The NDA paper's gem5 core: narrower window, realistic-but-fast
#: memory — lands between BOOM Medium and Large (Table 5: 0.79).
GEM5_NDA_CONFIG = CoreConfig(
    name="gem5-nda",
    width=3,
    issue_width=3,
    mem_width=1,
    rob_entries=128,
    iq_entries=32,
    ldq_entries=24,
    stq_entries=24,
    num_phys_regs=110,
    max_branches=16,
    frontend_depth=4,
    redirect_penalty=2,
    branch_predictor="tage",
    mem=MemConfig(
        l1_latency=2,
        l2_latency=12,
        dram_latency=80,
    ),
)


def gem5_config(which):
    """Return the gem5-proxy configuration for ``stt`` or ``nda``."""
    which = which.lower()
    if which in ("stt", "gem5-stt"):
        return GEM5_STT_CONFIG
    if which in ("nda", "gem5-nda"):
        return GEM5_NDA_CONFIG
    raise ValueError("unknown gem5 config %r (stt or nda)" % which)

"""gem5-proxy evaluation (Section 8.6 / 9.5).

The paper re-implements NDA and STT-Rename in gem5, using the original
papers' configurations, and finds that simulator-era configurations —
notably a 1-cycle L1 — yield optimistic results.  Our substitute runs
the *same* core engine under "simulator-style" configurations derived
from the original STT and NDA papers: idealised memory latencies, a
large window, and a generous front end.  That reproduces both Table 5
placements (STT's config lands near Mega's baseline IPC; NDA's config
between Medium and Large) and the Section 9.5 moral: the configuration,
not the scheme, drives much of the reported loss.  This package holds
the configurations; :func:`repro.harness.experiments.experiment_table5`
simulates the suite under them.
"""

from repro.gem5.configs import (
    GEM5_EXCLUDED,
    GEM5_NDA_CONFIG,
    GEM5_STT_CONFIG,
    gem5_config,
)

__all__ = [
    "GEM5_STT_CONFIG",
    "GEM5_NDA_CONFIG",
    "GEM5_EXCLUDED",
    "gem5_config",
]

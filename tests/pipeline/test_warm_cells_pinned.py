"""Warm-cache and TAGE cells, pinned bit for bit.

The golden grid (``test_kernel_equivalence.py``) runs cold caches on
gshare cores.  This digest covers the cores the harness builds with a
warmed L2: table5's gem5-proxy rows (TAGE), both ablations, and the
``campaign-cluster`` grid slice through :func:`simulate_cell` (trace
replay and cycle accounting on).  One SHA-256 spans each cell's
program, config, scheme, ``stats.to_dict()``, registers and sorted
memory, at scale 0.05 and seed 2017.

A change that moves any of these numbers must say why, and record the
new digest here.
"""

import hashlib
import json

from repro.core.factory import make_scheme
from repro.core.registry import grid_scheme_names
from repro.core.stt_rename import STTRenameScheme
from repro.gem5 import GEM5_EXCLUDED, gem5_config
from repro.harness.parallel import simulate_cell
from repro.memsys.hierarchy import MemConfig
from repro.pipeline.config import MEGA
from repro.pipeline.core import OoOCore
from repro.workloads.characteristics import SPEC_BENCHMARKS
from repro.workloads.program_cache import cached_spec_program

SCALE = 0.05
SEED = 2017

#: ``perfbench``'s ``campaign-cluster`` proxies: every other SPEC proxy.
CLUSTER_PROXIES = SPEC_BENCHMARKS[::2]

#: SHA-256 over the 180 cells below.
PINNED_DIGEST = (
    "2d5a1f6aa04d52de7d1d996ce4f0aadf1e380716dc932274c25aa3abd6af8e99")


def table5_gem5_cells():
    """table5's gem5-proxy rows: 19 proxies x 2 configs x 2 schemes."""
    comparable = [b for b in SPEC_BENCHMARKS if b not in GEM5_EXCLUDED]
    for which, scheme in (("stt", "stt-rename"), ("nda", "nda")):
        config = gem5_config(which)
        for scheme_name in ("baseline", scheme):
            for name in comparable:
                program = cached_spec_program(name, scale=SCALE, seed=SEED)
                result = OoOCore(program, config=config, warm_caches=True,
                                 scheme=make_scheme(scheme_name)).run()
                yield name, config, scheme_name, result


def ablation_cells():
    """Both ablations' cores, built as the experiments build them."""
    program = cached_spec_program("548.exchange2", scale=SCALE, seed=SEED)
    for split in (False, True):
        scheme = STTRenameScheme(split_store_taints=split)
        result = OoOCore(program, config=MEGA, warm_caches=True,
                         scheme=scheme).run()
        yield "548.exchange2", MEGA, "split=%s" % split, result
    for latency in (1, 2, 4):
        config = MEGA.scaled(name="mega-l1-%d" % latency,
                             mem=MemConfig(l1_latency=latency))
        for name in SPEC_BENCHMARKS[::4]:
            program = cached_spec_program(name, scale=SCALE, seed=SEED)
            for scheme_name in ("baseline", "nda"):
                result = OoOCore(program, config=config, warm_caches=True,
                                 scheme=make_scheme(scheme_name)).run()
                yield name, config, scheme_name, result


def cluster_cells():
    """``campaign-cluster``'s 66 cells through the campaign cell path."""
    for scheme_name in grid_scheme_names():
        for name in CLUSTER_PROXIES:
            result = simulate_cell((name, MEGA, scheme_name, None, SCALE,
                                    SEED))
            yield name, MEGA, scheme_name, result


def test_warm_cells_match_pinned_digest():
    digest = hashlib.sha256()
    cells = 0
    for source in (table5_gem5_cells, ablation_cells, cluster_cells):
        for name, config, scheme_name, result in source():
            record = [name, config.name, scheme_name, result.stats.to_dict(),
                      result.regs, sorted(result.memory.items())]
            digest.update(json.dumps(record, sort_keys=True,
                                     separators=(",", ":")).encode())
            digest.update(b"\n")
            cells += 1
    assert cells == 76 + 38 + 66
    assert digest.hexdigest() == PINNED_DIGEST

"""Synthetic campaign cells for exercising the result store at scale.

:func:`synthetic_result` builds a deterministic cell of the shape real
campaign results have — a grid scheme's name and counters, the memory
hierarchy's counters, a ``cycacct.`` account whose leaves share out
exactly ``width x cycles - committed`` idle slots, a full register
file and a few hundred memory words — and :func:`synthetic_key` a
matching stand-in key, so store tests and
``scripts/store_scale_smoke.py`` can fill a store with 10^4 cells
without simulating any of them.
"""

import hashlib

from repro.core.registry import grid_scheme_names, make_scheme
from repro.memsys.hierarchy import MemoryHierarchy
from repro.obs import LEAF_CAUSES, CycleAccount
from repro.pipeline.core import SimulationResult
from repro.pipeline.stats import SimStats

_BENCHMARKS = ("chase-cold", "chase-warm", "streaming-warm", "gemm-tiny",
               "spectre-v1", "exchange2", "leela", "xz")
_CONFIGS = ("small", "medium", "large", "mega")
_WIDTH = 4
_HIERARCHY_COUNTERS = tuple(MemoryHierarchy().stats())
_OCCUPANCY = tuple(CycleAccount().occupancy)


def _scheme_shapes():
    """``(name, counter names, delay label)`` of each grid scheme."""
    shapes = []
    for name in grid_scheme_names():
        scheme = make_scheme(name)
        shapes.append((name, tuple(scheme.extra_stats()),
                       scheme.delay_label))
    return tuple(shapes)


_SCHEMES = _scheme_shapes()


def _account(index, cycles, committed, label):
    """A ``cycacct.`` account that conserves, keyed as a core emits it.

    A scheme that never delays books no ``scheme_delayed`` slots; one
    that does charges them all to its own label.
    """
    account = {"cycacct.width": _WIDTH, "cycacct.cycles": cycles}
    leaves = [leaf for leaf in sorted(LEAF_CAUSES)
              if label is not None or leaf != "scheme_delayed"]
    weights = [(index * 13 + j * 7) % 97 + 1 for j in range(len(leaves))]
    idle = _WIDTH * cycles - committed
    shares = [idle * weight // sum(weights) for weight in weights]
    shares[0] += idle - sum(shares)
    for leaf, share in zip(leaves, shares):
        account["cycacct." + leaf] = share
    if label is not None:
        account["cycacct.scheme." + label] = account["cycacct.scheme_delayed"]
        account["cycacct.issue_blocks." + label] = (index * 5) % 1_000 + 1
    for j, name in enumerate(_OCCUPANCY):
        account["cycacct.occ." + name] = cycles * ((index + 5 * j) % 40 + 1)
    return account


def synthetic_key(index):
    """Deterministic stand-in for :func:`simulation_key`."""
    return hashlib.sha256(b"store-bench-cell-%d" % index).hexdigest()


def synthetic_result(index):
    """One realistic-shaped campaign cell, deterministic in ``index``."""
    scheme_name, counters, label = _SCHEMES[index % len(_SCHEMES)]
    cycles = 5_000 + (index * 97) % 3_000
    committed = 3_000 + (index * 31) % 2_000
    extra = {name: (index * 13 + j * 7) % 10_000
             for j, name in enumerate(counters + _HIERARCHY_COUNTERS)}
    extra.update(_account(index, cycles, committed, label))
    stats = SimStats(
        cycles=cycles,
        committed_instructions=committed,
        committed_loads=committed // 4,
        committed_stores=committed // 8,
        committed_branches=committed // 6,
        branch_mispredicts=(index * 11) % 200,
        stall_iq_full=(index * 5) % 1_000,
        stall_rob_full=(index * 3) % 800,
        fetched_instructions=committed + (index % 500),
        extra=extra,
    )
    regs = [(index * 2654435761 + r * 40503) % (1 << 32) for r in range(32)]
    memory = {4096 + 8 * j: (index ^ (j * 2246822519)) % (1 << 32)
              for j in range(192)}
    return SimulationResult(
        program_name=_BENCHMARKS[index % len(_BENCHMARKS)],
        scheme_name=scheme_name,
        config_name=_CONFIGS[index % len(_CONFIGS)],
        stats=stats, regs=regs, memory=memory, halted=True, cycles=cycles,
    )

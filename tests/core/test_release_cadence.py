"""NDA-family release cadence, pinned bit for bit.

NDA and delay-on-miss withhold a speculative load's ready broadcast
until the load is bound-to-commit, then release at most ``mem_width``
withheld broadcasts per cycle, oldest first (Section 5.1).
``shadowed_miss_kernel`` piles completed victim loads up behind a slow
guard branch, so when the shadow resolves the backlog drains through
that budget over several cycles.

The cells run both schemes on SMALL (``mem_width`` 1) and MEGA
(``mem_width`` 2), with and without a trace.  One SHA-256 spans each
cell's ``stats.to_dict()``, registers and sorted memory; a change that
moves any of these numbers must say why, and record the new digest
here.  Each cell is also checked against the cadence itself: no cycle
releases more than ``mem_width`` withheld broadcasts, a cycle's
releases go in age order, and no release passes over an older load
that was already releasable.
"""

import hashlib
import json
from collections import defaultdict

import pytest

from repro.core.factory import make_scheme
from repro.isa.trace import record_trace
from repro.pipeline.config import MEGA, SMALL
from repro.pipeline.core import OoOCore
from repro.workloads.kernels import shadowed_miss_kernel

PROGRAM = shadowed_miss_kernel(iterations=32)
TRACE = record_trace(PROGRAM)

CELLS = [(scheme_name, config, traced)
         for scheme_name in ("nda", "delay-on-miss")
         for config in (SMALL, MEGA)
         for traced in (False, True)]

#: SHA-256 over the eight cells above.
PINNED_DIGEST = (
    "652786c35bee736ecb1468cea06f34429a6565f4e20cd5ba308bcb86dc8dedea")


def _run(scheme_name, config, traced):
    """One cell, with every budgeted release recorded.

    Returns the result, the releases as ``(cycle, seq, completed_at)``
    and, per releasing cycle, the ``(vp_now, d_pending)`` the release
    saw.
    """
    scheme = make_scheme(scheme_name)
    releases = []
    gates = {}
    release = scheme._release

    def recording_release(uop, cycle):
        core = scheme.core
        gates.setdefault(cycle, (core.vp_now, frozenset(core.d_pending)))
        releases.append((cycle, uop.seq, uop.complete_cycle))
        release(uop, cycle)

    scheme._release = recording_release
    result = OoOCore(PROGRAM, config=config, scheme=scheme,
                     trace=TRACE if traced else None).run()
    assert result.halted
    return result, releases, gates


@pytest.fixture(scope="module")
def cells():
    return {cell: _run(*cell) for cell in CELLS}


def test_release_cells_match_pinned_digest(cells):
    digest = hashlib.sha256()
    for (scheme_name, config, traced), (result, _r, _g) in cells.items():
        record = [scheme_name, config.name, traced, result.stats.to_dict(),
                  result.regs, sorted(result.memory.items())]
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == PINNED_DIGEST


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "%s-%s-%s" % (
    cell[0], cell[1].name, "trace" if cell[2] else "inline"))
def test_releases_respect_budget_and_age(cells, cell):
    _scheme, config, _traced = cell
    result, releases, gates = cells[cell]
    per_cycle = defaultdict(list)
    for cycle, seq, _done in releases:
        per_cycle[cycle].append(seq)

    # The kernel exists to pile loads up behind the budget: a backlog
    # must drain at full budget over consecutive cycles.
    assert max(len(seqs) for seqs in per_cycle.values()) == config.mem_width
    assert any(cycle + 1 in per_cycle for cycle in per_cycle)
    assert len(releases) <= result.stats.deferred_broadcasts

    for cycle, seqs in per_cycle.items():
        assert len(seqs) <= config.mem_width, (
            "cycle %d released %d broadcasts" % (cycle, len(seqs)))
        assert seqs == sorted(seqs), "cycle %d released out of age order" % cycle

    # Oldest first across cycles too: a load released after cycle c
    # that is older than one c released must not have been releasable
    # at c (completed, inside the visibility point, no memory-dependence
    # speculation left).
    for cycle, seqs in per_cycle.items():
        vp_now, d_pending = gates[cycle]
        youngest = seqs[-1]
        for later, seq, done in releases:
            if later > cycle and seq < youngest:
                assert not (done is not None and done <= cycle
                            and seq <= vp_now and seq not in d_pending), (
                    "cycle %d released seq %d before releasable seq %d"
                    % (cycle, youngest, seq))

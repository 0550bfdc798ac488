"""Golden-results equivalence suite for the simulation kernel.

The fast-path work on the kernel (event heap, idle-cycle fast-forward,
wakeup-driven issue scheduling) is only legal because it is *cycle-for-
cycle equivalent* to the reference stepping model.  This suite pins
that claim to data: a small scheme x config x workload grid was
simulated with the pre-fast-path kernel and stored under
``golden_store/`` next to this file, one JSON envelope (``{"key",
"model_version", "meta", "result"}``, sorted keys) per cell, named by
:func:`cell_filename`.  The session fixture
``golden_results`` (``tests/conftest.py``) reads them.  Every test
re-simulates one cell with the current kernel and asserts a
bit-identical result: cycles, IPC, every stall and replay counter, and
the final architectural registers and memory.

The fixture keys use a frozen ``model_version`` stamp
(:data:`GOLDEN_VERSION`) instead of the live package version, so
package version bumps never silently orphan the fixture.

Regenerate (only when an *intentional* model change invalidates it)::

    PYTHONPATH=src python tests/pipeline/test_kernel_equivalence.py --regenerate
"""

import json
import pathlib
import re
import sys
from dataclasses import replace

import pytest

from repro.core.factory import make_scheme
from repro.harness.store import MODEL_VERSION, simulation_key
from repro.isa.trace import record_trace
from repro.pipeline.config import MEGA, SMALL
from repro.pipeline.core import OoOCore
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.kernels import (
    chase_kernel,
    forwarding_kernel,
    streaming_kernel,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden_store"

#: Frozen fixture stamp — deliberately NOT the package version.
GOLDEN_VERSION = "golden-v1"

#: Scheme variants under test: every registered scheme plus the
#: Section 9.2 split-store-taint ablation of STT-Rename.  The PR 4
#: engine refactor (event-scheduled scheme hooks) regenerated the
#: fixture; every pre-existing cell stayed byte-identical, pinning the
#: polled -> scheduled equivalence, and the fence / delay-on-miss
#: variants were recorded on top.
SCHEME_VARIANTS = (
    ("baseline", {}),
    ("stt-rename", {}),
    ("stt-rename", {"split_store_taints": True}),
    ("stt-issue", {}),
    ("nda", {}),
    ("fence", {}),
    ("delay-on-miss", {}),
)

CONFIGS = (SMALL, MEGA)


def golden_programs():
    """Small, deterministic workloads covering the kernel's behaviours:

    * ``streaming`` — independent loads, predictable branch;
    * ``chase`` — serial dependent loads (cache misses, spec-wakeup
      kills and replays);
    * ``forwarding`` — store-to-load forwarding, partial store issue,
      ordering-violation flushes (the Section 9.2 anomaly recipe);
    * ``mixed`` — generated workload with data-dependent branches,
      mul/div, and stores (squashes, checkpoints, taint churn).
    """
    return [
        streaming_kernel(iterations=48, array_words=256),
        chase_kernel(iterations=48, ring_words=64),
        forwarding_kernel(iterations=32, slots=8, array_words=256),
        generate_program(
            WorkloadProfile(
                name="mixed",
                iterations=10,
                body_templates=6,
                body_blocks=3,
                working_set_words=256,
                ring_words=32,
                scratch_words=16,
            ),
            seed=7,
        ),
    ]


_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def cell_filename(benchmark, config_name, scheme_name, key):
    """Browsable filename for one golden cell: readable prefix + digest."""
    prefix = "__".join(
        _SAFE.sub("-", part) for part in (benchmark, config_name, scheme_name)
    )
    return "%s__%s.json" % (prefix, key[:12])


def cell_key(program_name, config, scheme_name, scheme_kwargs):
    return simulation_key(
        program_name,
        config,
        scheme_name,
        scheme_kwargs=scheme_kwargs,
        scale=1.0,
        seed=0,
        model_version=GOLDEN_VERSION,
    )


#: Memoised canonical traces, one per golden program: every cell runs
#: with trace replay *enabled*, so the whole grid doubles as the
#: replay-is-byte-identical acceptance (the fixture was recorded by the
#: purely functional kernel and is unchanged).
_TRACES = {}


def trace_for(program):
    entry = _TRACES.get(id(program))
    if entry is None or entry[0] is not program:
        _TRACES[id(program)] = entry = (program, record_trace(program))
    return entry[1]


def simulate(program, config, scheme_name, scheme_kwargs, replay=True):
    core = OoOCore(
        program,
        config=config,
        scheme=make_scheme(scheme_name, **scheme_kwargs),
        trace=trace_for(program) if replay else None,
    )
    return core.run()


def grid_cells():
    cells = []
    for program in golden_programs():
        for config in CONFIGS:
            for scheme_name, scheme_kwargs in SCHEME_VARIANTS:
                cells.append((program, config, scheme_name, scheme_kwargs))
    return cells


def _cell_id(cell):
    program, config, scheme_name, scheme_kwargs = cell
    suffix = "-split" if scheme_kwargs.get("split_store_taints") else ""
    return "%s-%s-%s%s" % (program.name, config.name, scheme_name, suffix)


_CELLS = grid_cells()


@pytest.mark.parametrize("cell", _CELLS, ids=[_cell_id(c) for c in _CELLS])
def test_kernel_matches_golden(cell, golden_results):
    program, config, scheme_name, scheme_kwargs = cell
    key = cell_key(program.name, config, scheme_name, scheme_kwargs)
    golden = golden_results.get(key)
    assert golden is not None, (
        "no golden result for %s — regenerate the fixture" % _cell_id(cell)
    )
    result = simulate(program, config, scheme_name, scheme_kwargs)

    got_stats = result.stats.to_dict()
    want_stats = golden.stats.to_dict()
    for name in sorted(set(got_stats) | set(want_stats)):
        assert got_stats.get(name) == want_stats.get(name), (
            "%s: stats counter %r diverged: got %r, golden %r"
            % (_cell_id(cell), name, got_stats.get(name), want_stats.get(name))
        )
    assert result.cycles == golden.cycles
    assert result.ipc == golden.ipc
    assert result.halted == golden.halted
    assert result.regs == golden.regs, "architectural registers diverged"
    assert result.memory == golden.memory, "architectural memory diverged"
    # Belt and braces: the full serialised form must round-trip equal.
    assert result.to_dict() == golden.to_dict()
    # Coded against its program, the words the core wrote over the
    # program's own image give the delta a scan of the whole image finds.
    assert result.memory.base is program.initial_memory
    assert result.to_dict(program) == \
        replace(result, memory=dict(result.memory)).to_dict(program)


@pytest.mark.parametrize(
    "scheme_variant", SCHEME_VARIANTS,
    ids=["%s%s" % (n, "-split" if k.get("split_store_taints") else "")
         for n, k in SCHEME_VARIANTS],
)
def test_replay_on_equals_replay_off(scheme_variant):
    """Trace replay on == trace replay off, bit for bit, per scheme.

    The golden grid above runs with replay *on* against a replay-free
    fixture, which already implies this — but only for fixture cells.
    This is the direct statement, on the workload with the richest
    wrong-path behaviour (forwarding: ordering violations, partial
    store issue, squash storms), under both configs.
    """
    scheme_name, scheme_kwargs = scheme_variant
    program = forwarding_kernel(iterations=32, slots=8, array_words=256)
    for config in CONFIGS:
        on = simulate(program, config, scheme_name, scheme_kwargs)
        off = simulate(program, config, scheme_name, scheme_kwargs,
                       replay=False)
        assert on.to_dict() == off.to_dict(), (
            "replay changed results under %s/%s"
            % (config.name, scheme_name)
        )


@pytest.mark.parametrize(
    "scheme_variant", SCHEME_VARIANTS,
    ids=["%s%s" % (n, "-split" if k.get("split_store_taints") else "")
         for n, k in SCHEME_VARIANTS],
)
def test_fast_forward_matches_pure_stepping(scheme_variant):
    """run() (idle-cycle fast-forward) == a pure step() loop, bit for bit.

    The golden fixture pins today's kernel against the recorded one;
    this pins the fast-forward path against the stepping path *inside*
    the current kernel, and asserts the fast-forward actually engaged.
    """
    scheme_name, scheme_kwargs = scheme_variant
    program = chase_kernel(iterations=48, ring_words=64)

    fast_core = OoOCore(
        program, config=MEGA,
        scheme=make_scheme(scheme_name, **scheme_kwargs),
    )
    fast = fast_core.run()

    slow_core = OoOCore(
        program, config=MEGA,
        scheme=make_scheme(scheme_name, **scheme_kwargs),
    )
    while not slow_core.halted and slow_core.cycle < 100_000:
        slow_core.step()
    slow = slow_core.result()

    assert slow_core.halted, "stepping run did not finish"
    assert fast.to_dict() == slow.to_dict()
    assert fast_core.ff_skipped_cycles > 0, (
        "fast-forward never engaged on a miss-heavy workload"
    )
    assert slow_core.ff_skipped_cycles == 0


def regenerate():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for path in GOLDEN_DIR.glob("*.json"):
        path.unlink()
    for cell in _CELLS:
        program, config, scheme_name, scheme_kwargs = cell
        key = cell_key(program.name, config, scheme_name, scheme_kwargs)
        # Recorded functionally (replay off): the grid tests then pin
        # the trace replayer against a replay-free fixture.
        result = simulate(program, config, scheme_name, scheme_kwargs,
                          replay=False)
        envelope = {
            "key": key,
            "model_version": MODEL_VERSION,
            "meta": {
                "golden_version": GOLDEN_VERSION,
                "benchmark": program.name,
                "config": config.name,
                "scheme": scheme_name,
                "scheme_kwargs": dict(scheme_kwargs),
            },
            "result": result.to_dict(),
        }
        name = cell_filename(result.program_name, result.config_name,
                             result.scheme_name, key)
        with open(GOLDEN_DIR / name, "w") as handle:
            json.dump(envelope, handle, sort_keys=True)
        print("recorded %-40s cycles=%-7d ipc=%.3f"
              % (_cell_id(cell), result.cycles, result.ipc))
    print("golden fixture: %d cells under %s" % (len(_CELLS), GOLDEN_DIR))


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        print("usage: python %s --regenerate" % sys.argv[0])
        raise SystemExit(2)
    regenerate()

"""Trace replay equivalence: the timing replayer is bit-identical to
the in-line functional kernel, for every scheme, on workloads chosen to
stress the replay boundary (wrong-path fallback, purity tracking,
squash re-entry, spec-wakeup kills).

The golden suite (``test_kernel_equivalence``) pins replay-on runs
against a replay-free fixture; this module fuzzes the on/off diff
directly across more behaviourally extreme workloads, and asserts the
replay path actually *engages* — so the equivalence can never pass
vacuously because the stream fell off-trace and stayed there.
"""

import pytest

from repro.core.factory import make_scheme
from repro.isa.trace import record_trace
from repro.pipeline.config import MEGA, SMALL
from repro.pipeline.core import OoOCore
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.kernels import (
    chase_kernel,
    forwarding_kernel,
    shadowed_miss_kernel,
    streaming_kernel,
)

SCHEME_VARIANTS = (
    ("baseline", {}),
    ("stt-rename", {}),
    ("stt-rename", {"split_store_taints": True}),
    ("stt-issue", {}),
    ("nda", {}),
    ("fence", {}),
    ("delay-on-miss", {}),
)


def _programs():
    """Workloads spanning the replay boundary's failure modes:

    * ``streaming`` — the easy case (long pure on-trace stretches);
    * ``chase`` — serial misses: spec-wakeup kills/replays re-execute
      on-trace loads whose purity must re-derive, not leak;
    * ``forwarding`` — ordering violations, partial store issue, and
      store-forwarded values: the impure-address masking case;
    * ``shadowed-miss`` — NDA/STT release windows over piles of
      completed loads;
    * ``mixed``/``squashy`` — generated blends with data-dependent
      branches: dense squash/re-entry traffic on the trace position.
    """
    return [
        streaming_kernel(iterations=24, array_words=128),
        chase_kernel(iterations=48, ring_words=64),
        forwarding_kernel(iterations=32, slots=8, array_words=256),
        shadowed_miss_kernel(iterations=32, guard_words=512,
                             victim_words=512),
        generate_program(
            WorkloadProfile(name="mixed", iterations=10, body_templates=6,
                            body_blocks=3, working_set_words=256,
                            ring_words=32, scratch_words=16),
            seed=11,
        ),
        generate_program(
            WorkloadProfile(name="squashy", iterations=14, body_templates=4,
                            body_blocks=2, working_set_words=128,
                            ring_words=16, scratch_words=8),
            seed=23,
        ),
    ]


_PROGRAMS = _programs()
_TRACES = [record_trace(p) for p in _PROGRAMS]


def _run(program, config, scheme_name, scheme_kwargs, trace):
    return OoOCore(
        program, config=config,
        scheme=make_scheme(scheme_name, **scheme_kwargs),
        trace=trace,
    ).run()


@pytest.mark.parametrize("index", range(len(_PROGRAMS)),
                         ids=[p.name for p in _PROGRAMS])
@pytest.mark.parametrize("config", (SMALL, MEGA), ids=lambda c: c.name)
def test_replay_equals_inline_for_every_scheme(index, config):
    program = _PROGRAMS[index]
    trace = _TRACES[index]
    for scheme_name, scheme_kwargs in SCHEME_VARIANTS:
        on = _run(program, config, scheme_name, scheme_kwargs, trace)
        off = _run(program, config, scheme_name, scheme_kwargs, None)
        assert on.to_dict() == off.to_dict(), (
            "replay diverged: %s under %s/%s"
            % (program.name, config.name, scheme_name)
        )


def test_replay_actually_engages(monkeypatch):
    """Most completions on a squash-heavy workload must come from the
    trace, not the functional fallback — otherwise every equivalence
    above would hold trivially with replay never exercised.  Every
    trace-fed completion goes through ``_replay_complete``."""
    replayed = [0]
    orig_replay = OoOCore._replay_complete

    def counting_replay(self, uop, op, ti):
        replayed[0] += 1
        return orig_replay(self, uop, op, ti)

    monkeypatch.setattr(OoOCore, "_replay_complete", counting_replay)

    program = _PROGRAMS[-1]  # squashy
    core = OoOCore(program, config=MEGA, scheme=make_scheme("baseline"),
                   trace=_TRACES[-1])
    result = core.run()
    committed = result.stats.committed_instructions
    assert result.halted and committed > 0
    assert replayed[0] > committed // 2, (
        "replay engaged on only %d of %d completions"
        % (replayed[0], committed)
    )


def test_trace_reentry_after_mispredicts(monkeypatch):
    """Squash recovery must put the fetch stream back on-trace: on a
    mispredict-heavy workload the replayer keeps engaging *after* the
    first misprediction (off-trace-forever would still be correct, but
    would silently forfeit the tentpole)."""
    program = _PROGRAMS[-1]  # squashy
    trace = _TRACES[-1]
    core = OoOCore(program, config=MEGA, scheme=make_scheme("baseline"),
                   trace=trace)
    late_replays = [0]
    saw_squash = [False]
    orig_replay = OoOCore._replay_complete
    orig_squash = OoOCore._process_squash

    def counting_replay(self, uop, op, ti):
        if saw_squash[0]:
            late_replays[0] += 1
        return orig_replay(self, uop, op, ti)

    def marking_squash(self):
        if self._pending_squash is not None:
            saw_squash[0] = True
        return orig_squash(self)

    monkeypatch.setattr(OoOCore, "_replay_complete", counting_replay)
    monkeypatch.setattr(OoOCore, "_process_squash", marking_squash)
    result = core.run()
    assert result.halted
    assert result.stats.branch_mispredicts > 0, (
        "workload no longer mispredicts; pick a squashier one"
    )
    assert late_replays[0] > 0, "stream never re-entered the trace"


def test_wrong_trace_is_rejected():
    other = record_trace(streaming_kernel(iterations=4, array_words=64))
    with pytest.raises(ValueError):
        OoOCore(chase_kernel(iterations=4, ring_words=32), config=MEGA,
                trace=other)

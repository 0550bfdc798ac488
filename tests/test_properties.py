"""Property-based tests (hypothesis): the heavy correctness artillery.

The central invariant: the out-of-order pipeline — under any scheme,
any configuration, any generated program — produces exactly the
architectural state of the in-order reference interpreter.  On top of
that, scheme-specific invariants (taint soundness, NDA deferral) and
structural invariants (rename consistency) are checked.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import LARGE, MEDIUM, MEGA, SMALL, OoOCore, make_scheme, run_reference
from repro.isa.interp import evaluate_alu, to_signed64, to_unsigned64
from repro.isa.instructions import Opcode
from repro.workloads.generator import WorkloadProfile, generate_program

_SLOW = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _profile_strategy():
    return st.builds(
        WorkloadProfile,
        name=st.just("prop"),
        iterations=st.integers(min_value=2, max_value=8),
        body_templates=st.integers(min_value=3, max_value=9),
        body_blocks=st.integers(min_value=1, max_value=2),
        working_set_words=st.sampled_from([64, 256, 1024]),
        ring_words=st.sampled_from([16, 64]),
        scratch_words=st.sampled_from([8, 16]),
        branch_entropy=st.floats(min_value=0.0, max_value=1.0),
        branch_on_load=st.floats(min_value=0.0, max_value=1.0),
        chain_length=st.integers(min_value=1, max_value=6),
        reload_match=st.floats(min_value=0.0, max_value=1.0),
        w_chase_load=st.floats(min_value=0.0, max_value=2.0),
        w_store=st.floats(min_value=0.0, max_value=3.0),
        w_reload=st.floats(min_value=0.0, max_value=2.0),
        w_branch=st.floats(min_value=0.0, max_value=3.0),
        w_div=st.floats(min_value=0.0, max_value=0.4),
    )


@settings(max_examples=15, **_SLOW)
@given(profile=_profile_strategy(), seed=st.integers(0, 2**32 - 1),
       scheme=st.sampled_from(["baseline", "stt-rename", "stt-issue", "nda"]),
       config=st.sampled_from([SMALL, MEGA]))
def test_pipeline_matches_reference(profile, seed, scheme, config):
    program = generate_program(profile, seed=seed)
    reference = run_reference(program, max_steps=2_000_000)
    core = OoOCore(program, config=config, scheme=make_scheme(scheme))
    result = core.run()
    for reg in range(32):
        assert result.regs[reg] == reference.state.read_reg(reg), (
            "x%d diverged under %s/%s" % (reg, config.name, scheme)
        )
    ref_memory = {a: v for a, v in reference.state.memory.items() if v != 0}
    got_memory = {a: v for a, v in result.memory.items() if v != 0}
    assert got_memory == ref_memory
    assert result.stats.committed_instructions == reference.instructions_retired


@settings(max_examples=15, **_SLOW)
@given(profile=_profile_strategy(), seed=st.integers(0, 2**32 - 1))
def test_schemes_commit_identical_instruction_counts(profile, seed):
    """Schemes change timing, never the committed instruction stream."""
    program = generate_program(profile, seed=seed)
    counts = set()
    for scheme in ("baseline", "stt-rename", "stt-issue", "nda"):
        core = OoOCore(program, config=MEDIUM, scheme=make_scheme(scheme))
        counts.add(core.run().stats.committed_instructions)
    assert len(counts) == 1


@settings(max_examples=10, **_SLOW)
@given(profile=_profile_strategy(), seed=st.integers(0, 2**32 - 1))
def test_rename_invariants_hold_after_run(profile, seed):
    program = generate_program(profile, seed=seed)
    core = OoOCore(program, config=LARGE, scheme=make_scheme("stt-rename"))
    core.run()
    core.rename.check_invariants()


@settings(max_examples=10, **_SLOW)
@given(profile=_profile_strategy(), seed=st.integers(0, 2**32 - 1))
def test_scheme_slowdowns_are_bounded(profile, seed):
    """Schemes change cycle counts within sane bounds.  (A strict
    "baseline is always fastest" is NOT an invariant: the paper's own
    Figure 6 shows schemes occasionally beating baseline when flushes
    reshape cache state — exchange2's NDA result.)"""
    program = generate_program(profile, seed=seed)
    base = OoOCore(program, config=MEGA).run().stats.cycles
    for scheme in ("stt-rename", "stt-issue", "nda"):
        cycles = OoOCore(program, config=MEGA,
                         scheme=make_scheme(scheme)).run().stats.cycles
        assert base * 0.5 <= cycles <= base * 20


@settings(max_examples=40, deadline=None)
@given(a=st.integers(-(2**63), 2**63 - 1), b=st.integers(-(2**63), 2**63 - 1))
def test_alu_results_stay_in_64_bits(a, b):
    for op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.XOR,
               Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.DIV, Opcode.REM):
        result = evaluate_alu(op, a, b, 0)
        assert -(2**63) <= result <= 2**63 - 1


@settings(max_examples=40, deadline=None)
@given(value=st.integers(-(2**70), 2**70))
def test_signed_unsigned_round_trip(value):
    assert to_signed64(to_unsigned64(value)) == to_signed64(value)
    assert 0 <= to_unsigned64(value) < 2**64


@settings(max_examples=25, deadline=None)
@given(seqs=st.lists(st.integers(0, 1000), min_size=1, max_size=30, unique=True))
def test_shadow_tracker_vp_is_min(seqs):
    from repro.core.shadows import ShadowTracker

    tracker = ShadowTracker()
    for seq in seqs:
        tracker.cast(seq)
    assert tracker.visibility_point() == min(seqs)
    tracker.resolve(min(seqs))
    rest = [s for s in seqs if s != min(seqs)]
    assert tracker.visibility_point() == (min(rest) if rest else None)


@settings(max_examples=25, deadline=None)
@given(
    sets=st.integers(1, 6).map(lambda p: 2**p),
    ways=st.integers(1, 8),
    addresses=st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
)
def test_cache_never_exceeds_capacity(sets, ways, addresses):
    from repro.memsys.cache import CacheModel

    cache = CacheModel(num_sets=sets, ways=ways, line_words=8)
    for address in addresses:
        cache.lookup(address)
        cache.insert(address)
    assert len(cache.resident_lines()) <= sets * ways
    # Only the most recent insertion is guaranteed resident (older
    # addresses may have been evicted by set conflicts since).
    assert cache.contains(addresses[-1])

"""Top-down cycle accounting: conservation, attribution, zero-cost off.

Four contracts pinned here:

* *Conservation* — every commit slot is attributed exactly once:
  ``sum(leaf slots) + committed_instructions == width x cycles`` and
  ``account.cycles == stats.cycles``, across every scheme variant.
* *Attribution* — each secure scheme's delay surfaces as
  ``scheme_delayed`` with that scheme's own sub-cause label on a
  shadow-heavy workload, its issue-block count under the same label
  equals ``taint_blocked_issues``, and the baseline never charges
  either.
* *Occupancy* — the ROB/IQ/LDQ/STQ/physical-register integrals equal
  a test-local reading of each structure after every stepped commit
  phase (window-weighted across fast-forwarded windows).
* *Disabled-path equivalence* — enabling the observability sinks
  changes nothing but the ``cycacct.*`` extras: every cell of the
  golden equivalence grid (tests/pipeline) re-simulated with
  accounting *and* pipeline tracing on must be byte-identical to the
  recorded obs-off fixture once those extras are stripped.
"""

import pytest

from repro.core.factory import make_scheme
from repro.harness.store import simulation_key
from repro.obs import CycleAccount, LEAF_CAUSES, PipeTracer
from repro.pipeline.config import MEGA, SMALL
from repro.pipeline.core import OoOCore
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.kernels import (
    chase_kernel,
    forwarding_kernel,
    shadowed_miss_kernel,
    streaming_kernel,
)

#: Same grid as the golden equivalence suite (tests/pipeline), read
#: through the ``golden_results`` fixture.
GOLDEN_VERSION = "golden-v1"

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

#: scheme name -> the sub-cause label its delay must surface as.
DELAY_LABELS = {
    "fence": "fence-bound-to-commit",
    "stt-rename": "stt-taint-not-cleared",
    "stt-issue": "stt-taint-not-cleared",
    "nda": "nda-budget-block",
    "delay-on-miss": "delay-on-miss-defer",
}

#: The schemes that withhold issue itself on the shadow-heavy
#: attribution workload (NDA defers broadcasts, delay-on-miss defers
#: missing loads).
ISSUE_BLOCKING = {"fence", "stt-rename", "stt-issue"}


def golden_programs():
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


def grid_cells():
    return [
        (program, config, scheme_name, scheme_kwargs)
        for program in golden_programs()
        for config in CONFIGS
        for scheme_name, scheme_kwargs in SCHEME_VARIANTS
    ]


def _cell_id(cell):
    program, config, scheme_name, scheme_kwargs = cell
    suffix = "-split" if scheme_kwargs.get("split_store_taints") else ""
    return "%s-%s-%s%s" % (program.name, config.name, scheme_name, suffix)


_CELLS = grid_cells()


def simulate_with_obs(program, config, scheme_name, scheme_kwargs):
    account = CycleAccount()
    core = OoOCore(
        program,
        config=config,
        scheme=make_scheme(scheme_name, **scheme_kwargs),
        account=account,
        tracer=PipeTracer(limit=100),
    )
    return core.run(), account


def assert_conserved(result, account):
    slots = account.width * account.cycles
    leaf_total = sum(account.leaves.values())
    committed = result.stats.committed_instructions
    assert account.cycles == result.stats.cycles
    assert leaf_total + committed == slots, (
        "conservation violated: %d leaf + %d committed != %d slots"
        % (leaf_total, committed, slots)
    )
    assert set(account.leaves) <= set(LEAF_CAUSES)
    # Sub-causes are a refinement of the scheme_delayed leaf, never a
    # separate pool.
    assert sum(account.scheme_sub.values()) == account.leaves.get(
        "scheme_delayed", 0)


#: The cells whose ordering-violation flushes empty every structure
#: mid-run, so the oracle below also covers the flush path.
FLUSHING_CELLS = {"forwarding-small-stt-rename", "forwarding-mega-stt-rename"}


def _reference_occupancy(core):
    """Wrap ``core`` so that its five occupancies are read straight off
    the structures after the commit phase of every stepped cycle, and
    weighted by the window length for every fast-forwarded window;
    returns the dict the readings sum into."""
    totals = dict.fromkeys(("iq", "ldq", "pregs", "rob", "stq"), 0)
    phys_regs = core.config.num_phys_regs

    def sample(weight):
        totals["rob"] += len(core.rob) * weight
        totals["iq"] += len(core.iq.entries) * weight
        totals["ldq"] += len(core.lsu.ldq) * weight
        totals["stq"] += len(core.lsu.stq) * weight
        totals["pregs"] += (phys_regs - len(core.rename.free_list)) * weight

    commit, fast_forward = core._commit, core._fast_forward

    def committed():
        count = commit()
        sample(1)
        return count

    def skipped():
        start = core.cycle
        fast_forward()
        sample(core.cycle - start)

    core._commit = committed
    core._fast_forward = skipped
    return totals


@pytest.mark.parametrize("cell", _CELLS, ids=[_cell_id(c) for c in _CELLS])
def test_obs_enabled_conserves_and_matches_golden(cell, golden_results):
    """One pass over the golden grid checks conservation, occupancy and
    disabled-path equivalence per cell."""
    program, config, scheme_name, scheme_kwargs = cell
    key = simulation_key(
        program.name, config, scheme_name, scheme_kwargs=scheme_kwargs,
        scale=1.0, seed=0, model_version=GOLDEN_VERSION,
    )
    golden = golden_results.get(key)
    assert golden is not None, "no golden result for %s" % _cell_id(cell)

    account = CycleAccount()
    core = OoOCore(program, config=config,
                   scheme=make_scheme(scheme_name, **scheme_kwargs),
                   account=account, tracer=PipeTracer(limit=100))
    occupancy = _reference_occupancy(core)
    result = core.run()
    assert_conserved(result, account)
    assert account.occupancy == occupancy
    assert {name: result.stats.extra["cycacct.occ." + name]
            for name in occupancy} == occupancy
    if _cell_id(cell) in FLUSHING_CELLS:
        assert result.stats.order_violation_flushes > 0
        assert account.leaves["flush_recovery"] > 0

    # Strip the (and only the) cycacct extras: the remainder must be
    # byte-identical to the obs-off fixture.
    got = result.to_dict()
    extras = got["stats"]["extra"]
    cycacct = [name for name in extras if name.startswith("cycacct.")]
    assert cycacct, "obs-enabled run recorded no cycle account"
    for name in cycacct:
        del extras[name]
    assert got == golden.to_dict(), (
        "%s: observability perturbed the simulation" % _cell_id(cell)
    )


@pytest.mark.parametrize("scheme_name", sorted(DELAY_LABELS))
def test_scheme_delay_surfaces_with_own_subcause(scheme_name):
    """Shadow-heavy workload: every secure scheme charges scheme_delayed
    under exactly its own label (direct head delay or back-pressure)."""
    program = shadowed_miss_kernel(iterations=32)
    result, account = simulate_with_obs(program, MEGA, scheme_name, {})
    assert_conserved(result, account)
    delayed = account.leaves.get("scheme_delayed", 0)
    assert delayed > 0, "%s never charged scheme_delayed" % scheme_name
    assert set(account.scheme_sub) == {DELAY_LABELS[scheme_name]}
    assert account.scheme_sub[DELAY_LABELS[scheme_name]] == delayed
    # Every withheld (half-)issue is counted under the scheme's label.
    blocked = result.stats.taint_blocked_issues
    assert (blocked > 0) == (scheme_name in ISSUE_BLOCKING)
    extra = result.stats.extra
    assert extra.get("cycacct.issue_blocks." + DELAY_LABELS[scheme_name],
                     0) == blocked
    assert account.issue_blocks == (
        {DELAY_LABELS[scheme_name]: blocked} if blocked else {})
    assert [name for name in extra
            if name.startswith("cycacct.issue_blocks.")] == (
        ["cycacct.issue_blocks." + DELAY_LABELS[scheme_name]]
        if blocked else [])


def test_baseline_never_charges_scheme_delay():
    for config in CONFIGS:
        result, account = simulate_with_obs(
            shadowed_miss_kernel(iterations=32), config, "baseline", {})
        assert_conserved(result, account)
        assert "scheme_delayed" not in account.leaves
        assert account.scheme_sub == {}
        assert account.issue_blocks == {}


@pytest.mark.parametrize(
    "scheme_variant", SCHEME_VARIANTS,
    ids=["%s%s" % (n, "-split" if k.get("split_store_taints") else "")
         for n, k in SCHEME_VARIANTS],
)
def test_fast_forward_account_matches_pure_stepping(scheme_variant):
    """Idle-cycle fast-forward and pure stepping must attribute every
    slot identically — window classification is provably constant."""
    scheme_name, scheme_kwargs = scheme_variant
    program = shadowed_miss_kernel(iterations=32)

    fast_account = CycleAccount()
    fast_core = OoOCore(program, config=SMALL,
                        scheme=make_scheme(scheme_name, **scheme_kwargs),
                        account=fast_account)
    fast = fast_core.run()

    slow_account = CycleAccount()
    slow_core = OoOCore(program, config=SMALL,
                        scheme=make_scheme(scheme_name, **scheme_kwargs),
                        account=slow_account)
    while not slow_core.halted and slow_core.cycle < 100_000:
        slow_core.step()
    slow = slow_core.result()

    assert slow_core.halted
    assert fast_core.ff_skipped_cycles > 0, "fast-forward never engaged"
    assert fast_account.as_extra() == slow_account.as_extra()
    assert fast.to_dict() == slow.to_dict()
    assert_conserved(fast, fast_account)


def test_account_extras_ride_simulation_result():
    """as_extra lands in stats.extra and round-trips the store format,
    and SimStats.cycle_account() strips the namespace back off."""
    program = streaming_kernel(iterations=8, array_words=64)
    result, account = simulate_with_obs(program, SMALL, "baseline", {})
    extras = result.stats.extra
    assert extras["cycacct.width"] == SMALL.width
    assert extras["cycacct.cycles"] == result.stats.cycles
    recovered = result.stats.cycle_account()
    assert recovered["width"] == SMALL.width
    for leaf, slots in account.leaves.items():
        assert recovered[leaf] == slots

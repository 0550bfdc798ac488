"""Behavioural tests for LSU forwarding, violations, and replay."""

import pytest

from repro import MEGA, OoOCore, assemble, make_scheme
from repro.workloads.kernels import chase_kernel, forwarding_kernel, streaming_kernel

from tests.conftest import assert_matches_reference


def test_forwarding_counted_on_baseline():
    program = forwarding_kernel(iterations=50)
    result = OoOCore(program, config=MEGA).run()
    assert result.stats.store_forwards > 0
    assert result.stats.stl_forward_errors == 0
    assert_matches_reference(program, result, "baseline")


def test_stt_rename_causes_forwarding_errors():
    """The Section 9.2 anomaly: blocked store address generation makes
    untainted reloads read stale memory and flush."""
    program = forwarding_kernel(iterations=120)
    rename = OoOCore(program, config=MEGA, scheme=make_scheme("stt-rename")).run()
    issue = OoOCore(program, config=MEGA, scheme=make_scheme("stt-issue")).run()
    nda = OoOCore(program, config=MEGA, scheme=make_scheme("nda")).run()
    assert rename.stats.stl_forward_errors > 50 * max(
        1, nda.stats.stl_forward_errors
    )
    assert rename.stats.order_violation_flushes > 0
    assert nda.stats.ipc > rename.stats.ipc
    # STT-Issue's split operand taints keep address generation flowing.
    assert issue.stats.stl_forward_errors <= rename.stats.stl_forward_errors / 5
    # And every scheme still computes the right answer.
    for result in (rename, issue, nda):
        assert_matches_reference(program, result, result.scheme_name)


def test_violation_index_flags_exactly_matching_younger_loads():
    """Store-address resolution must flag precisely the same-address
    loads younger than a late-resolving store — no more (the
    different-address load stays clean), no fewer (both victims
    counted)."""
    source = """
        li   sp, 0x1000
        li   t0, 7
        li   t3, 0x2000
        div  t1, t0, t0       # slow chain delays the store address
        add  t2, t1, t1
        sub  t2, t2, t2
        add  t4, t2, sp
        sw   t0, 0(t4)        # resolves to 0x1000 long after the loads
        lw   a1, 0(sp)        # younger, same address: violation
        lw   a2, 0(sp)        # younger, same address: violation
        lw   a3, 0(t3)        # younger, different address: clean
        add  s1, a1, a2
        add  s1, s1, a3
        halt
    """
    program = assemble(source, name="late-store")
    program.initial_memory[0x2000] = 99
    result = OoOCore(program, config=MEGA).run()
    assert result.stats.stl_forward_errors == 2
    assert result.stats.order_violation_flushes == 1
    assert_matches_reference(program, result, "late-store")


# Each gadget reaches one guard of the ordering-violation check: a
# same-address load younger than a late-resolving store S1 is flagged
# unless it took (or waits for) its value from a store younger than S1,
# or is flagged already.  ``div`` (12 cycles) and ``mul`` (3) chains
# delay store addresses and data; ``add t6, sp, zero`` twice delays the
# load until the early store's address is known.
_GUARD_GADGETS = {
    # S2 (younger, early address and data) forwards to L, so S1's late
    # resolution finds L served by a younger store: no error.
    "forwarded-from-younger-store": ("""
        li   sp, 0x1000
        li   t0, 7
        li   t5, 42
        div  t1, t0, t0
        add  t2, t1, t1
        sub  t2, t2, t2
        add  t4, t2, sp
        sw   t0, 0(t4)        # S1: address waits on the div chain
        sw   t5, 0(sp)        # S2: address and data early
        add  t6, sp, zero
        add  t6, t6, zero
        lw   a1, 0(t6)        # L: forwards 42 from S2
        add  s1, a1, a1
        halt
    """, 0, 0),
    # L waits on S2's data (a div) when S1's address (a shorter mul
    # chain) resolves: L will forward from a younger store, no error.
    "waiting-on-younger-store": ("""
        li   sp, 0x1000
        li   t0, 7
        mul  t1, t0, t0
        sub  t1, t1, t1
        add  t4, t1, sp
        div  t5, t0, t0
        sw   t0, 0(t4)        # S1: address waits on the mul chain
        sw   t5, 0(sp)        # S2: early address, data waits on the div
        add  t6, sp, zero
        add  t6, t6, zero
        lw   a1, 0(t6)        # L: waits to forward from S2
        add  s1, a1, a1
        halt
    """, 0, 0),
    # Both stores resolve late to L's address, the younger first: L is
    # flagged once, and the older store's resolution counts no second
    # error.
    "flagged-once": ("""
        li   sp, 0x1000
        li   t0, 7
        li   t3, 9
        div  t1, t0, t0
        sub  t2, t1, t1
        add  t4, t2, sp
        mul  t5, t0, t0
        sub  t5, t5, t5
        add  t6, t5, sp
        sw   t0, 0(t4)        # S1: address waits on the div chain
        sw   t3, 0(t6)        # S2: address waits on the mul chain
        lw   a1, 0(sp)        # L: runs past both, reads memory
        add  s1, a1, a1
        halt
    """, 1, 1),
}


@pytest.mark.parametrize("gadget", sorted(_GUARD_GADGETS))
def test_store_resolution_guards(gadget):
    """Pin the violation check's three guards: each gadget's exact
    error and flush counts change when its guard is removed."""
    source, errors, flushes = _GUARD_GADGETS[gadget]
    program = assemble(source, name=gadget)
    result = OoOCore(program, config=MEGA).run()
    assert result.stats.stl_forward_errors == errors
    assert result.stats.order_violation_flushes == flushes
    assert_matches_reference(program, result, gadget)


def test_violation_detection_stable_across_ldq_sizes():
    """Growing the LDQ (store resolution walks its younger loads)
    must not change what is detected."""
    program = forwarding_kernel(iterations=120)
    big = MEGA.scaled(name="mega-big-ldq", ldq_entries=64, stq_entries=64)
    big_ldq = OoOCore(program, config=big,
                      scheme=make_scheme("stt-rename")).run()
    assert big_ldq.stats.stl_forward_errors > 0
    assert_matches_reference(program, big_ldq, "stt-rename-big-ldq")


def test_store_resolution_clears_memory_dependence_sets():
    """A store address resolution must clear itself from exactly the
    pending sets that name it (and the D-shadows it empties) — pinned
    via NDA, whose releases gate on ``d_pending``: a leaked entry would
    deadlock the run."""
    program = forwarding_kernel(iterations=80, slots=8)
    result = OoOCore(program, config=MEGA, scheme=make_scheme("nda")).run()
    assert result.halted
    assert result.stats.deferred_broadcasts > 0
    assert_matches_reference(program, result, "nda-dpending")


def test_violation_flush_preserves_correctness(scheme_name):
    program = forwarding_kernel(iterations=60)
    result = OoOCore(program, config=MEGA, scheme=make_scheme(scheme_name)).run()
    assert_matches_reference(program, result, scheme_name)


def test_pointer_chase_is_serial():
    program = chase_kernel(iterations=40, ring_words=64)
    result = OoOCore(program, config=MEGA, warm_caches=True).run()
    # A chase hop takes at least L1 latency; IPC must reflect serialization.
    assert result.stats.ipc < 1.5
    assert_matches_reference(program, result, "chase")


def test_streaming_hits_after_warmup():
    program = streaming_kernel(iterations=200, array_words=1024)
    core = OoOCore(program, config=MEGA, warm_caches=True)
    result = core.run()
    stats = core.hierarchy.stats()
    assert stats["l1_hits"] > stats["dram_accesses"]
    assert_matches_reference(program, result, "stream")


def test_spec_wakeup_kills_on_misses():
    """Loads that miss L1 broadcast speculative wakeups that get killed,
    wasting issue slots — unless the scheme (NDA) removes the logic."""
    program = streaming_kernel(iterations=150, stride=64, array_words=65536)
    baseline = OoOCore(program, config=MEGA).run()
    nda = OoOCore(program, config=MEGA, scheme=make_scheme("nda")).run()
    assert baseline.stats.spec_wakeup_kills > 0
    assert nda.stats.spec_wakeup_kills == 0


def test_nda_defers_broadcasts_under_shadows():
    source = """
        li   ra, 60
        li   sp, 0x1000
        li   t0, 0
    loop:
        andi t1, t0, 255
        add  t1, t1, sp
        lw   a1, 0(t1)
        slti t2, a1, 100000
        beq  t2, zero, skip
        addi s2, s2, 1
    skip:
        add  a2, a1, a1
        addi t0, t0, 1
        addi ra, ra, -1
        bne  ra, zero, loop
        halt
    """
    program = assemble(source, name="nda-defer")
    for i in range(256):
        program.initial_memory[0x1000 + i] = i
    nda = OoOCore(program, config=MEGA, scheme=make_scheme("nda"),
                  warm_caches=True).run()
    assert nda.stats.deferred_broadcasts > 0
    assert_matches_reference(program, nda, "nda")


def test_load_to_zero_register_survives_l1_miss():
    """A destination-less load (rd == x0) that misses the L1 must not
    broadcast a speculative wakeup — it has no physical register to
    mark, revoke, or replay consumers of (regression: the spec-ready
    event used to index the register file with None)."""
    program = assemble("""
        li   sp, 4096
        lw   zero, 0(sp)
        lw   a0, 8(sp)
        halt
    """, name="rd0-load")
    program.initial_memory[4096] = 7
    result = OoOCore(program, config=MEGA).run()  # cold caches: both miss
    assert result.halted
    assert result.stats.committed_loads == 2
    assert_matches_reference(program, result, "rd0-load")

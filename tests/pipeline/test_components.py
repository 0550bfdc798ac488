"""Unit tests for pipeline components: micro-ops, regfile, IQ, fetch."""

import pytest

from repro import MEGA, SMALL, OoOCore, assemble
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.regfile import NOT_READY, READY, SPEC_READY, PhysRegFile
from repro.pipeline.uop import ADDR, DATA, WHOLE, MicroOp


def test_uop_classification_cache():
    load = MicroOp(0, 0, Instruction(op=Opcode.LW, rd=1, rs1=2))
    assert load.op_is_load and load.is_load
    assert load.op_is_transmitter
    store = MicroOp(1, 0, Instruction(op=Opcode.SW, rs1=1, rs2=2))
    assert store.op_is_store and not store.op_is_load
    div = MicroOp(2, 0, Instruction(op=Opcode.DIV, rd=1, rs1=2, rs2=3))
    assert div.op_is_div and div.op_latency == 12


def test_uop_fully_issued_semantics():
    store = MicroOp(0, 0, Instruction(op=Opcode.SW, rs1=1, rs2=2))
    assert not store.fully_issued
    store.addr_issued = True
    assert not store.fully_issued
    store.data_issued = True
    assert store.fully_issued
    alu = MicroOp(1, 0, Instruction(op=Opcode.ADD, rd=1, rs1=2, rs2=3))
    alu.addr_issued = True
    assert alu.fully_issued


def test_uop_kill_bumps_generation():
    uop = MicroOp(0, 0, Instruction(op=Opcode.NOP))
    gen = uop.gen
    uop.kill()
    assert uop.killed and uop.gen == gen + 1


def test_uop_replay_resets_issue_state():
    uop = MicroOp(0, 0, Instruction(op=Opcode.ADD, rd=1, rs1=2, rs2=3))
    uop.addr_issued = True
    uop.completed = True
    uop.spec_deps = {4}
    gen = uop.gen
    uop.replay()
    assert not uop.addr_issued and not uop.completed
    assert uop.spec_deps is None
    assert uop.gen == gen + 1


def test_regfile_spec_state_machine():
    prf = PhysRegFile(40)
    prf.mark_alloc(35)
    assert prf.state[35] == NOT_READY
    assert not prf.is_usable(35)
    prf.set_spec_ready(35)
    assert prf.state[35] == SPEC_READY
    assert prf.is_usable(35) and prf.is_spec(35) and not prf.is_ready(35)
    prf.revoke_spec(35)
    assert prf.state[35] == NOT_READY
    prf.write(35, 99)
    assert prf.is_ready(35) and prf.read(35) == 99


def test_regfile_spec_does_not_demote_ready():
    prf = PhysRegFile(40)
    prf.write(35, 1)
    prf.set_spec_ready(35)   # no effect on READY registers
    assert prf.state[35] == READY
    prf.revoke_spec(35)      # ditto
    assert prf.state[35] == READY


def test_regfile_write_value_only_keeps_not_ready():
    """NDA's split data-write / broadcast path (Figure 5b)."""
    prf = PhysRegFile(40)
    prf.mark_alloc(35)
    prf.write_value_only(35, 77)
    assert prf.read(35) == 77
    assert not prf.is_usable(35)
    prf.set_ready(35)
    assert prf.is_ready(35)


def test_regfile_minimum_size():
    with pytest.raises(ValueError):
        PhysRegFile(32)


def test_fetch_follows_taken_branches():
    program = assemble("""
        jal  zero, target
        nop
        nop
    target:
        halt
    """)
    core = OoOCore(program, config=MEGA)
    result = core.run()
    # Only the jal and halt commit; the nops are never fetched.
    assert result.stats.committed_instructions == 2
    assert result.stats.fetched_instructions == 2


def test_fetch_stalls_on_runaway_pc():
    """A wrong-path jalr to a wild target must not crash fetch."""
    program = assemble("""
        .word 100 3
        lw   t0, 100(zero)
        jalr ra, t0, 0
        nop
        halt
    """)
    result = OoOCore(program, config=MEGA).run()
    assert result.halted


def test_issue_respects_mem_width():
    # SMALL has one memory port: two independent loads can never issue
    # in the same cycle, bounding load throughput.
    program = assemble("""
        li   ra, 32
        li   sp, 0x1000
    loop:
        lw   a0, 0(sp)
        lw   a1, 1(sp)
        addi ra, ra, -1
        bne  ra, zero, loop
        halt
    """)
    program.initial_memory[0x1000] = 1
    program.initial_memory[0x1001] = 2
    result = OoOCore(program, config=SMALL, warm_caches=True).run()
    # 64 loads through one port: at least 64 cycles just for loads.
    assert result.stats.cycles >= 64


def test_divider_is_unpipelined():
    serial = assemble("""
        li t0, 100
        li t1, 7
        div t2, t0, t1
        div t3, t0, t1
        div t4, t0, t1
        halt
    """)
    result = OoOCore(serial, config=MEGA).run()
    # Three 12-cycle divides through one unpipelined unit: >= 36 cycles.
    assert result.stats.cycles >= 36


def test_halves_are_distinct_markers():
    assert len({WHOLE, ADDR, DATA}) == 3

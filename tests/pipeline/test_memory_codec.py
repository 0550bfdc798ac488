"""The memory-image codec and the core's initial architectural state.

``SimulationResult.to_dict`` packs the final memory image into
contiguous runs; given the program the result was simulated from, it
packs only the words that differ from the program's initial image.
``from_dict`` (and the store's lazy decoder, through the same
:func:`decode_memory`) decodes such a delta against that program only,
to a :class:`MemoryImage` over the program's own image, and still
reads whole images: packed, or the legacy ``{"address": value}`` object
every 1.1.0 store and the golden fixture hold.  The core loads
``.reg``/``.word`` values exactly as the reference interpreter does, so
both start — and end — in the same architectural state.
"""

import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MEGA, OoOCore, assemble, make_scheme
from repro.core.registry import grid_scheme_names
from repro.harness.parallel import simulate_cell
from repro.isa.interp import run_reference
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS
from repro.isa.trace import record_trace
from repro.pipeline.core import (
    MemoryImage,
    SimulationResult,
    pack_memory,
    unpack_memory,
)
from repro.pipeline.stats import SimStats
from repro.workloads.characteristics import SPEC_BENCHMARKS
from repro.workloads.program_cache import cached_spec_program

_ADDRESS = st.integers(min_value=0, max_value=2**64 - 1)
_WORD = st.integers(min_value=-(2**63), max_value=2**63 - 1)

#: Images shaped like real ones and like their edge cases: a few dense
#: runs at arbitrary bases (gaps between them, zero and negative words
#: included), plus scattered lone words.
_IMAGES = st.builds(
    lambda runs, lone: {**runs, **lone},
    st.lists(
        st.tuples(_ADDRESS, st.lists(_WORD, max_size=40)), max_size=5,
    ).map(lambda runs: {
        base + offset: value
        for base, values in runs
        for offset, value in enumerate(values)
    }),
    st.dictionaries(_ADDRESS, _WORD | st.just(0), max_size=12),
)


def _result(memory):
    return SimulationResult(
        program_name="codec", scheme_name="baseline", config_name="mega",
        stats=SimStats(), regs=[0] * NUM_ARCH_REGS, memory=memory,
        halted=True,
    )


@settings(max_examples=200, deadline=None)
@given(_IMAGES)
def test_packed_round_trip(memory):
    packed = pack_memory(memory)
    assert unpack_memory(packed) == memory
    # Runs ascend, never touch, and each holds at least one word.
    bases = [base for base, _values in packed]
    assert bases == sorted(bases)
    for (base, values), (after, _next) in zip(packed, packed[1:]):
        assert values and base + len(values) < after
    # ...and survive JSON unchanged.
    assert unpack_memory(json.loads(json.dumps(packed))) == memory


@pytest.mark.parametrize("memory, runs", [
    ({}, []),
    ({7: 0}, [[7, [0]]]),
    ({3: -1, 1: 5, 2: 0, 10: 9}, [[1, [5, 0, -1]], [10, [9]]]),
    ({2**64 - 1: -(2**63), 0: 2**63 - 1}, [[0, [2**63 - 1]],
                                            [2**64 - 1, [-(2**63)]]]),
])
def test_packed_form(memory, runs):
    assert pack_memory(memory) == runs
    assert _result(memory).to_dict()["memory"] == runs


def test_legacy_object_decodes_to_the_same_image():
    memory = {4096: 7, 4097: 0, 4099: -3, 2**64 - 8: 1}
    legacy = {str(addr): value for addr, value in memory.items()}
    assert unpack_memory(legacy) == memory
    data = _result(memory).to_dict()
    data["memory"] = legacy
    assert SimulationResult.from_dict(data).memory == memory
    # A whole image reads the same whatever program is passed.
    other = Program([], initial_memory={4096: 1}, name="other")
    assert SimulationResult.from_dict(data, other).memory == memory


# ----------------------------------------------------------------------
# Deltas against the program's initial image.
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_IMAGES, _IMAGES, st.booleans(), _ADDRESS)
def test_delta_round_trip(base, writes, drop, probe):
    _check_view(base, writes, probe)
    # A final image is the initial one with some words written, and
    # (where the core normalised an address away) one word missing.
    memory = {**base, **writes}
    if drop and base:
        del memory[min(base)]
    program = Program([], initial_memory=base, name="base")
    # A view over the program's own image codes in O(delta) to the
    # record the full scan of its merged dict gives.
    assert _result(MemoryImage(base, writes)).to_dict(program) == \
        _result({**base, **writes}).to_dict(program)
    data = json.loads(json.dumps(_result(memory).to_dict(program)))
    decoded = SimulationResult.from_dict(data, program).memory
    assert decoded == memory and memory == decoded
    if base and base.keys() <= memory.keys():
        assert decoded.base is base
        assert data["memory_base"] == program.image_digest
        assert unpack_memory(data["memory"]) == {
            addr: value for addr, value in memory.items()
            if base.get(addr) != value}
    else:
        # An empty base, or one the final image lacks an address of,
        # codes the whole image.
        assert "memory_base" not in data
        assert unpack_memory(data["memory"]) == memory


def _check_view(base, writes, probe):
    # The view reads, iterates and compares as ``dict(base)`` updated
    # by ``writes``, in that dict's order.
    view = MemoryImage(base, writes)
    legacy = dict(base)
    legacy.update(writes)
    assert list(view.items()) == list(legacy.items())
    assert list(view) == list(legacy)
    assert list(view.values()) == list(legacy.values())
    assert len(view) == len(legacy)
    for address in (probe, *list(base)[:3], *list(writes)[:3]):
        assert (address in view) == (address in legacy)
        assert view.get(address) == legacy.get(address)
        assert view.get(address, "absent") == legacy.get(address, "absent")
    # Equal to the merged dict, and to views over this base or another
    # that hold the same words, both ways round.
    for same in (legacy, MemoryImage(base, dict(writes)),
                 MemoryImage(dict(base), writes), MemoryImage({}, legacy)):
        assert view == same and same == view
        assert not view != same and not same != view
    # One word more (addresses are never negative), or one word
    # changed, is unequal both ways round, over this base and another.
    edits = [{-1: 0}]
    if legacy:
        address = next(iter(legacy))
        edits.append({address: legacy[address] + 1})
    for edit in edits:
        changed = {**legacy, **edit}
        for other in (changed, MemoryImage(base, {**writes, **edit}),
                      MemoryImage({}, changed)):
            assert view != other and other != view
            assert not view == other and not other == view
    # A pickle holds the plain dict: it names no program.
    copied = pickle.loads(pickle.dumps(view))
    assert type(copied) is dict
    assert list(copied.items()) == list(legacy.items())


def test_every_spec_proxy_codes_to_a_small_delta():
    # A whole image reaches 130 kB of JSON; a campaign cell changes a
    # handful of its words.  The delta decodes against its own
    # program's image only.
    for name, other in zip(SPEC_BENCHMARKS,
                           SPEC_BENCHMARKS[1:] + SPEC_BENCHMARKS[:1]):
        result = simulate_cell((name, MEGA, "baseline", (), 0.05, 2017))
        program = cached_spec_program(name, scale=0.05, seed=2017)
        data = result.to_dict(program)
        assert data["memory_base"] == program.image_digest
        assert len(json.dumps(data)) <= 4096, name
        decoded = SimulationResult.from_dict(data, program)
        assert decoded.to_dict() == result.to_dict()
        for wrong in (cached_spec_program(other, scale=0.05, seed=2017),
                      None):
            with pytest.raises(ValueError, match="delta against image"):
                SimulationResult.from_dict(data, wrong)


# ----------------------------------------------------------------------
# The written set: deltas in O(words written), same bytes as the scan.
# ----------------------------------------------------------------------

#: The cells of perfbench's ``campaign-cluster`` slice: these 11
#: proxies x Mega x every grid scheme, at scale 0.05.
CAMPAIGN_PROXIES = ("500.perlbench", "503.bwaves", "507.cactuBSSN",
                    "510.parest", "519.lbm", "521.wrf", "525.x264",
                    "531.deepsjeng", "541.leela", "548.exchange2",
                    "554.roms")


def _campaign_cell(name, scheme="baseline"):
    result = simulate_cell((name, MEGA, scheme, (), 0.05, 2017))
    return result, cached_spec_program(name, scale=0.05, seed=2017)


def _scanned(result):
    """``result`` with its image as a plain dict: coded by the full scan."""
    return replace(result, memory=dict(result.memory))


def test_written_set_codes_what_the_full_scan_codes():
    for name in CAMPAIGN_PROXIES:
        for scheme in grid_scheme_names():
            result, program = _campaign_cell(name, scheme)
            # The core's result shares its program's image and holds
            # the words it wrote as the view's delta.
            assert result.memory.base is program.initial_memory
            scanned = _scanned(result)
            assert scanned == result and result == scanned
            data = result.to_dict(program)
            assert data == scanned.to_dict(program), (name, scheme)
            assert data["memory_base"] == program.image_digest
            assert unpack_memory(data["memory"]).keys() <= \
                result.memory.delta.keys()
            # A decoded delta is a view over the same image, so the
            # coordinator's and the pool's decode-then-save codes it
            # again without a scan.
            decoded = SimulationResult.from_dict(data, program)
            assert decoded.memory.base is program.initial_memory
            assert decoded.memory.delta == unpack_memory(data["memory"])
            assert decoded == result and result == decoded
            assert decoded.to_dict(program) == data


def test_written_set_applies_to_its_own_program_only():
    result, program = _campaign_cell("503.bwaves")
    # The same image in another object, another program's image, and
    # no program at all: each codes as the full scan does.
    twin = Program(program.instructions, dict(program.initial_memory),
                   dict(program.initial_regs), name=program.name)
    other = cached_spec_program("548.exchange2", scale=0.05, seed=2017)
    for target in (twin, other, None):
        data = result.to_dict(target)
        assert data == _scanned(result).to_dict(target)
        assert SimulationResult.from_dict(data, target).memory == \
            result.memory
    assert result.to_dict(twin) == result.to_dict(program)
    # A hand-built result holds a plain dict and is scanned whole.
    hand = _result(dict(result.memory))
    assert hand.to_dict(program)["memory"] == \
        result.to_dict(program)["memory"]


def test_pickled_result_leaves_the_written_set_behind():
    # A pickle holds the image as a plain dict: it names no program,
    # reads back equal, and codes to the same record by the full scan.
    result, program = _campaign_cell("554.roms", "nda")
    blob = pickle.dumps(result)
    assert b"repro.isa.program" not in blob and b"MemoryImage" not in blob
    copied = pickle.loads(blob)
    assert type(copied.memory) is dict
    assert list(copied.memory.items()) == list(result.memory.items())
    assert copied == result and result == copied
    assert copied.to_dict(program) == result.to_dict(program)


def test_result_repr_leaves_the_image_out():
    result, program = _campaign_cell("554.roms", "nda")
    text = repr(result)
    assert "MemoryImage" in text
    assert len(text) < len(repr(dict(result.memory))) // 20
    address = next(iter(program.initial_memory))
    assert "%d: %d" % (address, program.initial_memory[address]) \
        not in text


# ----------------------------------------------------------------------
# Initial state: the core loads values as the reference interpreter.
# ----------------------------------------------------------------------

#: Each loads an out-of-range initial value (a register above 2**63-1,
#: a word above it, a negative address) and reads it back.
OUT_OF_RANGE = {
    "reg": """
        .reg x5 9223372036854775808
        add x6, x5, x0
        halt
    """,
    "word": """
        .word 100 9223372036854775808
        lw x2, 100(x0)
        halt
    """,
    "address": """
        .word -8 18446744073709551615
        .word 40 -9223372036854775809
        lw x3, -8(x0)
        lw x4, 40(x0)
        halt
    """,
}


@pytest.mark.parametrize("traced", [False, True], ids=["inline", "trace"])
@pytest.mark.parametrize("source", sorted(OUT_OF_RANGE))
def test_initial_state_matches_reference(source, traced):
    program = assemble(OUT_OF_RANGE[source], name=source)
    ref = run_reference(program).state
    trace = record_trace(program) if traced else None
    result = OoOCore(program, config=MEGA, scheme=make_scheme("baseline"),
                     trace=trace).run()
    assert result.regs == [ref.read_reg(reg) for reg in range(NUM_ARCH_REGS)]
    assert result.memory == ref.memory
    # Normalised words are coded losslessly against the program: a
    # normalised value as a changed word, a normalised address as the
    # whole image.
    data = result.to_dict(program)
    assert ("memory_base" in data) == (source == "word")
    assert SimulationResult.from_dict(data, program).memory == ref.memory

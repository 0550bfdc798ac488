"""Per-program start state: what a program's first core records on it
(``Program.start_state``) and every later core reuses.

The warmed L2 is a :meth:`CacheModel.snapshot` on the program; later
cores restore it instead of re-installing every image line.  The
contract: a restored L2 equals a fresh ``MemoryHierarchy.warm()``, no
run alters the snapshot, a grown image re-warms, and the snapshots die
with the program.  A program that passed validation is not validated
again.  A deterministic gate counts what building ``campaign-cluster``'s
cores costs.
"""

import cProfile
import gc
import os
import pstats
import weakref

import pytest

import repro
from repro.core.factory import make_scheme
from repro.core.registry import grid_scheme_names
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.memsys.hierarchy import MemConfig, MemoryHierarchy
from repro.obs import CycleAccount
from repro.pipeline.config import MEGA
from repro.pipeline.core import OoOCore
from repro.workloads.characteristics import SPEC_BENCHMARKS
from repro.workloads.program_cache import (
    cached_spec_program,
    cached_spec_trace,
    clear_cache,
)
from tests.conftest import small_program

#: An L2 of 8 lines, so a warm-up evicts and the order of installs shows.
TINY_L2 = MEGA.scaled(name="tiny-l2",
                      mem=MemConfig(l2_sets=4, l2_ways=2, l1_sets=2,
                                    l1_ways=2))

#: Python calls into ``repro/`` per core while building
#: ``campaign-cluster``'s 66 cores from a cleared program cache: 281.9
#: on CPython 3.11 (18,605 calls).  It was 1,556 per core when every
#: core installed its program's image into its L2 line by line, and
#: 354.7 when every core validated its program.  A ceiling rather than
#: an equality, since CPython 3.12 inlines comprehensions.  Lower it as
#: core set-up gets cheaper.
BUILD_CALLS_PER_CORE_CEILING = 282

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def warm_l2_snapshot(program):
    """The one warmed L2 recorded on ``program`` (``None`` if none)."""
    warmed = [snapshot for key, snapshot in program.start_state.items()
              if key[0] == "warm-l2"]
    assert len(warmed) <= 1
    return warmed[0] if warmed else None


def fresh_warm_l2(program, config):
    """The L2 a per-line ``warm()`` of ``program``'s image leaves."""
    hierarchy = MemoryHierarchy(config.mem)
    hierarchy.warm(program.initial_memory.keys(), level="l2")
    return hierarchy.l2


def as_lists(cache):
    return [list(cache_set) for cache_set in cache._sets], cache.evictions


def test_later_core_restores_the_first_cores_warm_l2():
    program = small_program(working_set_words=256)
    first = OoOCore(program, config=TINY_L2, warm_caches=True)
    snapshot = warm_l2_snapshot(program)
    second = OoOCore(program, config=TINY_L2, warm_caches=True)
    want = as_lists(fresh_warm_l2(program, TINY_L2))
    assert want[1] > 0  # the warm-up evicted
    assert as_lists(first.hierarchy.l2) == want
    assert as_lists(second.hierarchy.l2) == want
    # The second core shares the snapshot's sets instead of installing.
    assert all(got is shared for got, shared
               in zip(second.hierarchy.l2._sets, snapshot[0]))
    # A cold core records nothing and starts empty.
    cold = OoOCore(program, config=TINY_L2)
    assert cold.hierarchy.l2.resident_lines() == set()
    assert warm_l2_snapshot(program) is snapshot


def test_runs_leave_the_snapshot_alone():
    program = small_program(working_set_words=256)
    first = OoOCore(program, config=TINY_L2, warm_caches=True)
    snapshot = warm_l2_snapshot(program)
    frozen = as_lists(fresh_warm_l2(program, TINY_L2))
    first.run()
    second = OoOCore(program, config=TINY_L2, warm_caches=True)
    second.run()
    assert second.hierarchy.l2.evictions > snapshot[1]
    assert warm_l2_snapshot(program) is snapshot
    assert ([list(cache_set) for cache_set in snapshot[0]], snapshot[1]) \
        == frozen
    third = OoOCore(program, config=TINY_L2, warm_caches=True)
    assert as_lists(third.hierarchy.l2) == frozen


def test_each_l2_geometry_warms_once():
    program = small_program(working_set_words=256)
    OoOCore(program, config=TINY_L2, warm_caches=True)
    OoOCore(program, config=MEGA, warm_caches=True)
    mega = OoOCore(program, config=MEGA, warm_caches=True)
    warmed = sorted(key for key in program.start_state
                    if key[0] == "warm-l2")
    assert [key[1:3] for key in warmed] == [(4, 2), (512, 8)]
    assert as_lists(mega.hierarchy.l2) \
        == as_lists(fresh_warm_l2(program, MEGA))


def test_a_word_added_between_builds_rewarms():
    program = small_program(working_set_words=256)
    OoOCore(program, config=MEGA, warm_caches=True)
    # A new line, and an address the core must normalise to unsigned.
    new_line = max(program.initial_memory) + 1024
    program.initial_memory[new_line] = 5
    OoOCore(program, config=MEGA, warm_caches=True)
    program.initial_memory[-8] = 6
    core = OoOCore(program, config=MEGA, warm_caches=True)
    assert core.hierarchy.l2.contains(new_line)
    assert core.memory[(1 << 64) - 8] == 6 and -8 not in core.memory
    want = MemoryHierarchy(MEGA.mem)
    want.warm(core.memory.keys(), level="l2")
    assert as_lists(core.hierarchy.l2) == as_lists(want.l2)
    # One verdict and one warmed L2 per image length.
    lengths = sorted(key[-1] for key in program.start_state
                     if key[0] == "warm-l2")
    assert len(lengths) == 3 and len(set(lengths)) == 3
    assert sum(key[0] == "image-in-range"
               for key in program.start_state) == 3
    assert not program.start_state[("image-in-range", lengths[-1])]


def test_a_program_is_validated_once(monkeypatch):
    # Only validation reads is_branch while a core is built.
    checked = []
    is_branch = Instruction.is_branch
    monkeypatch.setattr(Instruction, "is_branch", property(
        lambda instr: checked.append(instr) or is_branch.fget(instr)))
    program = small_program(working_set_words=64)
    verdict = ("valid", program.entry, len(program.instructions))
    assert program.start_state == {verdict: True}  # generate_program's
    assert len(checked) == len(program.instructions)
    OoOCore(program)
    OoOCore(program, config=TINY_L2, warm_caches=True)
    program.validate()
    assert len(checked) == len(program.instructions)
    # A program nothing has validated is checked by its first core.
    unchecked = Program(list(program.instructions), name="unchecked")
    OoOCore(unchecked)
    OoOCore(unchecked)
    assert len(checked) == 2 * len(program.instructions)
    assert unchecked.start_state[verdict] is True
    # A failure records nothing, so every core raises.
    no_halt = Program([Instruction(Opcode.ADDI, rd=1, imm=1)])
    for _ in range(2):
        with pytest.raises(ValueError, match="no halt"):
            OoOCore(no_halt)
    assert no_halt.start_state == {}


def test_clear_cache_drops_the_snapshots():
    clear_cache()
    program = cached_spec_program("548.exchange2", scale=0.05)
    OoOCore(program, config=MEGA, warm_caches=True).run()
    assert warm_l2_snapshot(program) is not None
    program_ref = weakref.ref(program)
    del program
    clear_cache()
    gc.collect()
    assert program_ref() is None
    fresh = cached_spec_program("548.exchange2", scale=0.05)
    # Only generate_program's validation verdict, no core's facts.
    assert fresh.start_state == {
        ("valid", fresh.entry, len(fresh.instructions)): True}
    clear_cache()


# -- construction cost gate --------------------------------------------------


@pytest.fixture(scope="module")
def cluster_workloads():
    """``campaign-cluster``'s programs and traces from a cleared cache."""
    clear_cache()
    workloads = {name: (cached_spec_program(name, scale=0.05),
                        cached_spec_trace(name, scale=0.05))
                 for name in SPEC_BENCHMARKS[::2]}
    yield workloads
    clear_cache()


def profiled_build(program, trace, scheme_name):
    """Build one campaign cell's core under cProfile: (calls into
    ``repro/``, ``CacheModel.insert`` calls)."""
    profiler = cProfile.Profile()
    profiler.enable()
    OoOCore(program, config=MEGA, scheme=make_scheme(scheme_name),
            warm_caches=True, trace=trace, account=CycleAccount())
    profiler.disable()
    calls = inserts = 0
    for (filename, _line, func), row in pstats.Stats(profiler).stats.items():
        path = os.path.abspath(filename)
        if path.startswith(_REPRO_DIR):
            calls += row[1]
            if func == "insert" and path.endswith(
                    os.path.join("memsys", "cache.py")):
                inserts += row[1]
    return calls, inserts


def test_core_build_calls_per_core_ceiling(cluster_workloads):
    calls = cores = 0
    built = set()
    for scheme_name in grid_scheme_names():
        for name, (program, trace) in cluster_workloads.items():
            core_calls, inserts = profiled_build(program, trace, scheme_name)
            if name in built:
                assert inserts == 0, (
                    "%s/%s re-installed %d lines of its program's warmed L2"
                    % (name, scheme_name, inserts))
            else:
                assert inserts > 0, "%s: the first core did not warm" % name
                built.add(name)
            calls += core_calls
            cores += 1
    assert cores == 66
    assert calls / cores <= BUILD_CALLS_PER_CORE_CEILING, (
        "%d calls into repro/ to build %d cores: %.1f per core, above the"
        " ceiling of %d" % (calls, cores, calls / cores,
                            BUILD_CALLS_PER_CORE_CEILING))

"""Results keep the words a cell wrote, not its program's whole image.

Every result shares its program's initial image through a
:class:`~repro.pipeline.core.MemoryImage` instead of copying it,
whichever path produced it: a core, a decoded record, the store's
eager and lazy reads, or the process pool, whose workers send the
record the store holds.  The gate counts what the kept results retain
with tracemalloc, which sees exactly the bytes Python allocates, so it
repeats where resident-set figures do not.

The core that made a result is not kept either: once it halts it holds
no reference cycle, so it is freed as its last reference goes, without
waiting for the cyclic collector.

A stored cell is small too: its statistics, stored once, and its
record, both deflated against the store's dictionary.
"""

import gc
import sqlite3
import statistics
import tracemalloc
import weakref

import pytest

from repro.core.factory import make_scheme
from repro.core.registry import grid_scheme_names
from repro.harness.executor import PoolExecutor
from repro.harness.parallel import simulate_cell
from repro.harness.runner import CampaignRunner
from repro.harness.store import MANIFEST_NAME, ResultStore
from repro.obs import CycleAccount
from repro.pipeline.config import MEGA
from repro.pipeline.core import OoOCore, SimulationResult
from repro.workloads.program_cache import (
    cached_spec_program,
    cached_spec_trace,
)

#: The SPEC proxy with the largest image at this scale: 16,704 words.
BENCHMARK = "554.roms"
SCALE = 0.05
SEED = 2017

#: Bytes one kept result may retain.  A result holding its own copy of
#: the image retains about 580 KB from a core or a decoded record, and
#: about 1.6 MB from the pool.
MAX_RETAINED_BYTES = 32 * 1024

SPECS = [(BENCHMARK, MEGA, scheme, (), SCALE, SEED)
         for scheme in grid_scheme_names()]

#: Median payload bytes (statistics plus record, as stored) of one
#: campaign cell: 1.3x the 400 B measured over :data:`DENSITY_CAMPAIGN`
#: (a store that held the statistics twice took 1,901 B).
MAX_CELL_PAYLOAD_BYTES = 520

#: Real cells, not synthetic ones: a synthetic result's 192 random
#: whole-image words would dominate its payload.
DENSITY_CAMPAIGN = ("503.bwaves", "548.exchange2")


def retained_per_result(build):
    """``(bytes retained per result, results)`` for ``build()``'s list."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(results), results


@pytest.fixture(scope="module")
def cells():
    """The program, its six grid cells' results and their records,
    with every cache a cell fills (trace, warmed L2, the pool's
    imports) filled before any measurement."""
    program = cached_spec_program(BENCHMARK, scale=SCALE, seed=SEED)
    results = [simulate_cell(spec) for spec in SPECS]
    PoolExecutor(jobs=2).run(SPECS[:2])
    return program, results, [result.to_dict(program) for result in results]


def build(path, program, records):
    """The six results, by way of ``path``."""
    if path == "core":
        return [simulate_cell(spec) for spec in SPECS]
    if path == "decoded":
        return [SimulationResult.from_dict(record, program)
                for record in records]
    return PoolExecutor(jobs=2).run(SPECS)


@pytest.mark.parametrize("path", ["core", "decoded", "pool"])
def test_a_kept_result_retains_only_its_words(path, cells):
    program, expected, records = cells
    per_result, results = retained_per_result(
        lambda: build(path, program, records))
    assert per_result <= MAX_RETAINED_BYTES, (
        "each %s result retains %.0f bytes, above the %d-byte bound: it"
        " copies its program's image" % (path, per_result,
                                         MAX_RETAINED_BYTES))
    for result in results:
        assert result.memory.base is program.initial_memory
    assert results == expected


def test_stored_results_share_their_program_image(cells, tmp_path):
    program, expected, _records = cells
    runner = CampaignRunner(scale=SCALE, seed=SEED, benchmarks=(BENCHMARK,),
                            store=ResultStore(tmp_path))
    runner.run_grid(configs=(MEGA,), schemes=grid_scheme_names())
    keys = [runner.cell_key(BENCHMARK, MEGA, scheme)
            for scheme in grid_scheme_names()]
    store = ResultStore(tmp_path)
    lazy = store.load_many(keys)
    for key, result in zip(keys, expected):
        for loaded in (store.load(key), lazy[key]):
            assert loaded.memory.base is program.initial_memory
            assert loaded.memory == result.memory


def test_a_stored_cell_is_a_few_hundred_bytes(tmp_path):
    runner = CampaignRunner(scale=SCALE, seed=SEED,
                            benchmarks=DENSITY_CAMPAIGN,
                            store=ResultStore(tmp_path))
    runner.run_grid(configs=(MEGA,), schemes=grid_scheme_names())
    runner.store.close()
    conn = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    try:
        sizes = [size for (size,) in conn.execute(
            "SELECT LENGTH(stats) + LENGTH(record) FROM cells")]
    finally:
        conn.close()
    assert len(sizes) == len(DENSITY_CAMPAIGN) * len(grid_scheme_names())
    median = statistics.median(sizes)
    assert median <= MAX_CELL_PAYLOAD_BYTES, (
        "a stored cell's median payload is %.0f bytes, above the %d-byte"
        " bound" % (median, MAX_CELL_PAYLOAD_BYTES))


@pytest.mark.parametrize("scheme", grid_scheme_names())
def test_a_finished_core_is_not_cyclic_garbage(scheme, cells):
    program, expected, _records = cells
    trace = cached_spec_trace(BENCHMARK, scale=SCALE, seed=SEED)
    gc.collect()
    gc.disable()
    try:
        # As simulate_cell builds it.
        core = OoOCore(program, config=MEGA, scheme=make_scheme(scheme),
                       warm_caches=True, trace=trace, account=CycleAccount())
        result = core.run()
        assert core.result() == result  # still callable once halted
        finished = weakref.ref(core)
        del core
        assert finished() is None, "a finished %s core outlived its last" \
            " reference" % scheme
    finally:
        gc.enable()
    assert result == expected[grid_scheme_names().index(scheme)]

"""Results keep the words a cell wrote, not its program's whole image.

Every result shares its program's initial image through a
:class:`~repro.pipeline.core.MemoryImage` instead of copying it,
whichever path produced it: a core, a decoded record, the store's
eager and lazy reads, or the process pool, whose workers send the
record the store holds.  The gate counts what the kept results retain
with tracemalloc, which sees exactly the bytes Python allocates, so it
repeats where resident-set figures do not.
"""

import gc
import tracemalloc

import pytest

from repro.core.registry import grid_scheme_names
from repro.harness.executor import PoolExecutor
from repro.harness.parallel import simulate_cell
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import MEGA
from repro.pipeline.core import SimulationResult
from repro.workloads.program_cache import cached_spec_program

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

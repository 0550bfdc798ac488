"""Cell simulation: the one function every backend runs a cell through.

A *cell spec* is the picklable tuple
``(benchmark, config, scheme_name, scheme_kwargs, scale, seed)`` — the
same identity that :func:`repro.harness.store.simulation_key` hashes,
and (in wire form, see :mod:`repro.harness.cluster.protocol`) the unit
of work the cluster coordinator hands to its workers.

:func:`simulate_cell` executes one spec; every backend — the serial
loop, the multiprocessing pool, and cluster workers — funnels through
it, so a cell simulates identically wherever it lands.  Which backend
runs a batch of specs is the caller's choice of
:class:`~repro.harness.executor.Executor`, made in one place:
:meth:`~repro.harness.runner.CampaignRunner.run_cell_batch`.  Benchmark
programs come from the content-addressed
:mod:`~repro.workloads.program_cache`: generation is seeded and
per-benchmark independent (a subset build is bit-identical to a
full-suite build), and a worker looping over many cells of one
benchmark generates its program once.
"""

import os
import threading

from repro.core.factory import make_scheme
from repro.obs import CycleAccount
from repro.pipeline.core import OoOCore
from repro.workloads.program_cache import cached_spec_program, cached_spec_trace


def default_jobs():
    """Worker count when the caller does not specify one."""
    return max(1, os.cpu_count() or 1)


#: Per-thread out-of-band diagnostics of the last simulate_cell() call
#: (cluster executor workers are threads sharing one process, so a
#: module global would race).  Deliberately NOT part of the result:
#: results must stay byte-identical across backends.
_cell_diag = threading.local()


def last_cell_diagnostics():
    """Executor-side extras of this thread's last cell (or ``None``):
    telemetry that has no business inside the stored result, e.g.
    fast-forward engagement."""
    return getattr(_cell_diag, "data", None)


def simulate_cell(spec):
    """Simulate one grid cell from its spec; returns a SimulationResult.

    Top-level (not nested) so it is picklable by multiprocessing.
    Raises ``KeyError`` for unknown benchmark names.

    The workload's canonical dynamic trace rides along with the program
    (same content-addressed cache, same disk directory), so every cell
    of a benchmark — across schemes, configs, processes, and cluster
    workers — replays one recording instead of re-evaluating per uop.

    Campaign cells always carry cycle accounting (see
    :mod:`repro.obs`): every backend funnels through here, so stored
    results gain identical ``cycacct.`` extras everywhere and the
    store stays byte-identical across serial / pool / cluster runs.
    """
    benchmark, config, scheme_name, scheme_kwargs, scale, seed = spec
    program = cached_spec_program(benchmark, scale=scale, seed=seed)
    trace = cached_spec_trace(benchmark, scale=scale, seed=seed)
    core = OoOCore(
        program,
        config=config,
        scheme=make_scheme(scheme_name, **dict(scheme_kwargs or {})),
        warm_caches=True,
        trace=trace,
        account=CycleAccount(),
    )
    result = core.run()
    _cell_diag.data = {"ff_skipped_cycles": core.ff_skipped_cycles}
    return result


def _simulate_indexed(indexed_spec):
    """``(index, spec) -> (index, pid, record)`` for the process pool.

    The result crosses the pool as the record that the cluster wire and
    the store carry, :meth:`~repro.pipeline.core.SimulationResult.to_dict`
    coded against the cell's program: the words the cell changed, not
    its whole image.  The index lets the pool stream completions out of
    order and still reassemble spec order; the pid provides per-worker
    attribution for progress reporting.
    """
    index, spec = indexed_spec
    benchmark, _config, _scheme, _kwargs, scale, seed = spec
    result = simulate_cell(spec)
    program = cached_spec_program(benchmark, scale=scale, seed=seed)
    return index, os.getpid(), result.to_dict(program)


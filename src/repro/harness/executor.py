"""The ``Executor`` protocol: one seam for every execution backend.

A *cell spec* is the picklable, JSON-expressible tuple
``(benchmark, config, scheme_name, scheme_kwargs, scale, seed)``
(see :mod:`repro.harness.parallel`).  An executor turns a list of
specs into a list of :class:`~repro.pipeline.core.SimulationResult`
in spec order::

    class Executor:
        def run(self, specs, progress=None, on_result=None,
                on_failure=None): ...

- ``progress`` is an optional
  :class:`~repro.harness.progress.ProgressReporter`; the backend calls
  ``progress.cell_done(worker=...)`` once per completed cell with its
  best worker attribution (``"serial"``, ``"pid-1234"``, a cluster
  worker name).
- ``on_result(index, result)`` is an optional streaming callback fired
  as each cell completes (any thread, any order);
  :meth:`CampaignRunner.run_cell_batch` uses it to persist results
  into the :class:`~repro.harness.store.ResultStore` as they arrive,
  so an interrupted campaign keeps everything already simulated.
- ``on_failure(index, failure)`` is the failure-side twin: a backend
  that degrades gracefully (today, the cluster) reports each settled
  :class:`~repro.harness.store.CellFailure` through it and returns
  ``None`` at that index instead of raising.  Backends without
  graceful degradation (serial, pool) never call it — a cell failure
  there propagates as an exception, exactly as before.

Three implementations exist:

- :class:`SerialExecutor` — in-process loop;
- :class:`PoolExecutor` — process fan-out over ``jobs`` processes
  (in-process at one job, or when a pool cannot be created);
- :class:`~repro.harness.cluster.ClusterExecutor` — the socket-based
  work-stealing cluster backend (loopback worker threads).

The caller picks one and hands it to :meth:`CampaignRunner.run_grid
<repro.harness.runner.CampaignRunner.run_grid>` or
:meth:`~repro.harness.runner.CampaignRunner.run_cell_batch`
(``executor=None`` is a :class:`SerialExecutor`); the grid logic
(dedup, cache, store) never knows which backend simulates.  On the
command line ``--executor {pool,cluster}`` with ``--jobs N`` makes the
same choice.
"""

import multiprocessing

from repro.harness.parallel import (
    _simulate_indexed,
    default_jobs,
    simulate_cell,
)
from repro.pipeline.core import SimulationResult
from repro.workloads.program_cache import cached_spec_program


class Executor:
    """Base of the executor protocol (duck-typed; subclassing optional)."""

    def run(self, specs, progress=None, on_result=None, on_failure=None):
        """Simulate every spec; return results in spec order."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, one cell at a time."""

    def run(self, specs, progress=None, on_result=None, on_failure=None):
        results = []
        for index, spec in enumerate(specs):
            result = simulate_cell(spec)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
            if progress is not None:
                progress.cell_done(worker="serial")
        return results


class PoolExecutor(Executor):
    """Process fan-out across ``jobs`` local processes.

    Results stream back in completion order (``as_completed``) so
    progress and ``on_result`` fire as cells finish, then are
    reassembled into spec order.  Each result crosses the process
    boundary as its :meth:`~repro.pipeline.core.SimulationResult.to_dict`
    record coded against the cell's program, as the cluster wire and
    the store carry it, and decodes here against this process's copy
    of that program: only the words the cell changed travel, and the
    result shares the program's image as a core's result does.

    Anything that prevents pool *creation* (restricted sandboxes,
    missing ``/dev/shm``) degrades to the serial executor; once workers
    exist, an exception inside ``simulate_cell`` propagates to the
    caller exactly as a serial run would, and a worker process that
    dies raises ``BrokenProcessPool`` instead of leaving the campaign
    waiting for its cell.  Either way the cells still queued are
    dropped, not simulated.
    """

    def __init__(self, jobs=None):
        self.jobs = jobs

    def run(self, specs, progress=None, on_result=None, on_failure=None):
        specs = list(specs)
        if not specs:
            return []
        jobs = default_jobs() if self.jobs is None else int(self.jobs)
        jobs = min(jobs, len(specs))
        if jobs <= 1:
            return SerialExecutor().run(specs, progress=progress,
                                        on_result=on_result)
        # Imported here, not at module level: it costs every process
        # that imports the harness ~14 ms, and only a pool needs it.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        try:
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
        except (OSError, PermissionError, RuntimeError):
            return SerialExecutor().run(specs, progress=progress,
                                        on_result=on_result)
        results = [None] * len(specs)
        try:
            futures = [pool.submit(_simulate_indexed, (index, spec))
                       for index, spec in enumerate(specs)]
            for future in as_completed(futures):
                index, pid, record = future.result()
                benchmark, _config, _scheme, _kwargs, scale, seed = \
                    specs[index]
                result = results[index] = SimulationResult.from_dict(
                    record,
                    cached_spec_program(benchmark, scale=scale, seed=seed))
                if on_result is not None:
                    on_result(index, result)
                if progress is not None:
                    progress.cell_done(worker="pid-%d" % pid)
        finally:
            pool.shutdown(cancel_futures=True)
        return results

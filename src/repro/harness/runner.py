"""Simulation campaign engine: content-addressed cache + executor.

Regenerating every table and figure needs the full
(22 benchmarks x 4 configs x 6 grid schemes) grid; many experiments
share slices of it, so the runner they are handed caches every
simulation result.

Cache identity is the *full* simulation content, not display names:
:func:`repro.harness.store.simulation_key` hashes the complete
``CoreConfig`` (every field, nested ``MemConfig`` included), the
canonical scheme name and constructor kwargs, the workload scale/seed,
and a model version stamp.  Two configurations that merely share a
``name`` can therefore never alias each other's cached results.
:meth:`CampaignRunner.cell_key` memoises that hash per runner, so the
experiments' repeated reads of the grid key each cell once.

Three layers cooperate:

- the in-process dict cache (always on, per-runner);
- an optional persistent :class:`~repro.harness.store.ResultStore`
  (one SQLite file on disk — see :mod:`repro.harness.store`) consulted
  before simulating and updated after, so repeated processes skip
  already-simulated cells;
- an :class:`~repro.harness.executor.Executor`, to which
  :meth:`CampaignRunner.run_cell_batch` hands the *uncached* cells of
  a batch: in-process by default, or a pool or cluster the caller
  chose.  :meth:`CampaignRunner.run` simulates one cell through the
  same :func:`~repro.harness.parallel.simulate_cell` every backend
  calls.

``python -m repro`` exposes all of this on the command line.
"""

from repro.core.registry import grid_scheme_names
from repro.harness.executor import SerialExecutor
from repro.harness.parallel import simulate_cell
from repro.harness.store import simulation_key
from repro.pipeline.config import named_configs


class CampaignRunner:
    """Runs and caches the benchmark/config/scheme grid."""

    def __init__(self, scale=1.0, seed=2017, benchmarks=None, store=None):
        self.scale = scale
        self.seed = seed
        from repro.workloads.characteristics import SPEC_BENCHMARKS

        self.benchmarks = tuple(benchmarks or SPEC_BENCHMARKS)
        self.store = store
        self._cache = {}
        self._keys = {}

    # -- cache identity ----------------------------------------------------

    def cell_key(self, benchmark, config, scheme_name, scheme_kwargs=None):
        """Content-addressed key for one grid cell, memoised per runner.

        :func:`~repro.harness.store.simulation_key` stays the one
        definition of cell identity; it runs once per distinct cell.
        The memo is keyed on the config's fingerprint, not the config
        object, so it excludes the display name exactly as the key
        does.  Scale and seed are fixed per runner, so they need no
        place in the memo key.
        """
        kwargs = tuple(sorted((scheme_kwargs or {}).items()))
        memo = (benchmark, config.fingerprint(), scheme_name, kwargs)
        key = self._keys.get(memo)
        if key is None:
            key = self._keys[memo] = simulation_key(
                benchmark, config, scheme_name, scheme_kwargs=scheme_kwargs,
                scale=self.scale, seed=self.seed,
            )
        return key

    def _cell_spec(self, benchmark, config, scheme_name, scheme_kwargs=None):
        return (benchmark, config, scheme_name,
                tuple(sorted((scheme_kwargs or {}).items())),
                self.scale, self.seed)

    # -- simulation --------------------------------------------------------

    def run(self, benchmark, config, scheme_name, **scheme_kwargs):
        """Result for one cell of the grid (cached, store-backed)."""
        key = self.cell_key(benchmark, config, scheme_name, scheme_kwargs)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self.store.load(key) if self.store is not None else None
        if result is None:
            # The one cell path every executor uses, so a cell's result
            # and stored bytes are identical however it was produced.
            result = simulate_cell(self._cell_spec(
                benchmark, config, scheme_name, scheme_kwargs))
            self._persist(key, result, benchmark, config, scheme_name,
                          scheme_kwargs)
        self._cache[key] = result
        return result

    def _persist(self, key, result, benchmark, config, scheme_name,
                 scheme_kwargs):
        if self.store is None:
            return
        self.store.save(key, result, meta={
            "benchmark": benchmark,
            "config": config.name,
            "scheme": scheme_name,
            "scheme_kwargs": dict(scheme_kwargs or {}),
            "scale": self.scale,
            "seed": self.seed,
        })

    def preload_from_store(self, cells):
        """Bulk-load already-stored cells into the in-process cache.

        One :meth:`~repro.harness.store.ResultStore.load_many` call
        replaces a per-cell ``load`` (and its per-miss index check)
        for every ``(benchmark, config, scheme_name)`` in ``cells`` —
        the figure loaders' dominant cost once a campaign has run.
        Returns the number of cells newly cached; cells absent from
        the store are left for :meth:`run` to simulate.
        """
        if self.store is None:
            return 0
        wanted = {}
        for benchmark, config, scheme_name in cells:
            key = self.cell_key(benchmark, config, scheme_name)
            if key not in self._cache:
                wanted[key] = True
        if not wanted:
            return 0
        loaded = self.store.load_many(wanted)
        self._cache.update(loaded)
        return len(loaded)

    def suite_results(self, config, scheme_name, benchmarks=None):
        """Results for all benchmarks under (config, scheme), in order.

        The whole suite is preloaded from the store in one bulk read
        before any per-cell work, so a fully-populated campaign costs
        one batched index lookup per suite instead of one store lookup
        per benchmark.
        """
        selected = benchmarks or self.benchmarks
        self.preload_from_store(
            [(name, config, scheme_name) for name in selected])
        return [self.run(name, config, scheme_name) for name in selected]

    # -- grid execution ----------------------------------------------------

    def run_grid(self, configs=None, schemes=None, benchmarks=None,
                 executor=None, progress=None):
        """Populate a (benchmark x config x scheme) grid.

        Cells already in the in-process cache or the persistent store
        are skipped; the remainder goes to ``executor`` (any
        :class:`~repro.harness.executor.Executor` — serial, pool, or
        cluster; ``None`` runs them in-process) and is merged back into
        both cache layers.  Returns a summary dict with ``total``,
        ``cached``, ``from_store``, and ``simulated`` counts.
        """
        configs = list(configs or named_configs())
        schemes = tuple(schemes or grid_scheme_names())
        benchmarks = tuple(benchmarks or self.benchmarks)
        cells = [
            (benchmark, config, scheme)
            for config in configs
            for scheme in schemes
            for benchmark in benchmarks
        ]
        return self.run_cell_batch(cells, executor=executor,
                                   progress=progress)

    def run_cell_batch(self, cells, executor=None, progress=None):
        """Populate arbitrary ``(benchmark, config, scheme)`` cells.

        The sparse counterpart of :meth:`run_grid`, for callers that
        know exactly which cells they need (e.g. the CLI pre-populating
        only the slices the requested experiments read).  Same caching,
        store, and summary semantics; ``executor`` as in
        :meth:`run_grid`.  ``progress`` (a
        :class:`~repro.harness.progress.ProgressReporter`) is armed
        with the count of cells actually executing and fed by the
        backend as they complete.

        Graceful degradation: a backend that settles cells as
        :class:`~repro.harness.store.CellFailure` instead of raising
        (the cluster, unless ``fail_fast``) reports them through
        ``on_failure`` — each is persisted as a failure record in the
        store, counted in the summary's ``failed``, and its ``None``
        result is simply not cached, so a later campaign retries it.
        """
        # Dedup within the batch (identical cells hash identically), so
        # repeated entries never reach the backend twice.
        unique, seen = [], set()
        for benchmark, config, scheme in cells:
            key = self.cell_key(benchmark, config, scheme)
            if key in seen:
                continue
            seen.add(key)
            unique.append((key, benchmark, config, scheme))

        summary = {"total": len(unique), "cached": 0, "from_store": 0,
                   "simulated": 0, "failed": 0}
        # One bulk store read for the whole batch instead of a
        # per-cell load (each of which can re-stat the directory).
        stored = {}
        if self.store is not None:
            stored = self.store.load_many(
                key for key, _b, _c, _s in unique
                if key not in self._cache)
        pending = []
        for key, benchmark, config, scheme in unique:
            if key in self._cache:
                summary["cached"] += 1
                continue
            if key in stored:
                self._cache[key] = stored[key]
                summary["from_store"] += 1
                continue
            pending.append((key, benchmark, config, scheme))

        specs = [self._cell_spec(benchmark, config, scheme)
                 for _key, benchmark, config, scheme in pending]
        if progress is not None:
            progress.begin(len(specs))

        def persist_streaming(index, result):
            # Fired by the backend as each cell completes (possibly
            # from a pool/coordinator thread): results reach the store
            # while the campaign is still running, so an interruption
            # keeps every cell already simulated.  A result also clears
            # any failure record left by an earlier attempt — first
            # result wins over quarantine.
            key, benchmark, config, scheme = pending[index]
            self._persist(key, result, benchmark, config, scheme, {})
            self.store.clear_failure(key)

        def persist_failure(index, failure):
            # Failure-side twin: settle the cell's CellFailure record
            # in the store so ``python -m repro store failures`` (and a
            # resumed campaign) can see what went wrong.
            self.store.save_failure(failure)

        if executor is None:
            executor = SerialExecutor()
        results = executor.run(specs, progress=progress,
                               on_result=persist_streaming
                               if self.store is not None else None,
                               on_failure=persist_failure
                               if self.store is not None else None)
        for (key, _benchmark, _config, _scheme), result in zip(pending,
                                                               results):
            if result is None:
                summary["failed"] += 1
                continue
            self._cache[key] = result
            summary["simulated"] += 1
        if progress is not None:
            progress.finish()
        return summary


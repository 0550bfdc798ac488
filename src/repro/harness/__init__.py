"""Campaign engine: content-addressed, disk-backed, parallel, distributed.

:class:`~repro.harness.runner.CampaignRunner` executes the
(benchmark x config x scheme) simulation grid and caches results;
:mod:`repro.harness.experiments` turns the cached grid into each
table/figure of the paper, rendered as text and returned as data.

**Cache key.**  Every grid cell is identified by
:func:`~repro.harness.store.simulation_key`, a SHA-256 over the
canonical JSON of the complete simulation identity: the full
``CoreConfig`` parameter record (every field, nested ``MemConfig``
included), the scheme name plus constructor kwargs, the workload
scale/seed, and a model version stamp.  Display names carry no
identity, so same-named-but-different configurations can never alias.

**Store layout** (format ``segments-v1``).  With a
:class:`~repro.harness.store.ResultStore` attached, cells append into
shared segment files indexed by a SQLite manifest::

    results/store/
        manifest.db               # SQLite: full-key index + columns
        segments/seg-NNNNNN.seg   # append-only record segments
        failures/*.json           # CellFailure records

Each segment record is ``"SBR1" | u32 payload-length | u32 CRC32 |
zlib(canonical JSON)`` where the JSON payload is the envelope
``{"key", "model_version", "meta", "result"}``.  Inside ``result``
the final memory image is packed as contiguous runs in ascending
address order, ``[[base, [v0, v1, ...]], ...]`` (see
:meth:`~repro.pipeline.core.SimulationResult.to_dict`); records
written by 1.1.0 before the packed form hold a ``{"address": value}``
object instead, and every read path — ``load``, ``load_many``, the
lazy results' ``memory`` — decodes both through
:func:`~repro.pipeline.core.unpack_memory`, so such stores stay valid
under the same model version.  The manifest's ``cells`` table maps
every *full* 64-hex key to its segment/offset/length and carries the
benchmark/config/scheme columns, hot counters, and a per-cell
statistics blob: ``keys()`` and ``len()`` are pure index reads, and
``load_many`` and ``iter_results`` return lazily-decoded results —
statistics come from the manifest, snapshot payloads decompress only
when touched — so analysis passes that read statistics do zero segment
I/O.  Writers append a record and flush *before* indexing it, so a
crash leaves at worst an unindexed orphan tail — never an indexed cell
without bytes; each writer instance owns its segment, so concurrent
writers never interleave.
``ResultStore.compact()`` folds live records into fresh sealed
segments and reclaims dead bytes.

**Legacy stores and migration.**  Segment files are the only format
the store reads.  Earlier releases wrote one JSON envelope per cell,
``<benchmark>__<config>__<scheme>__<digest12>.json`` in the store root;
no read path serves those files.  ``python -m repro store migrate``
folds them into segments in place, preserving each envelope verbatim
(key, meta, and ``model_version`` stamp included), and ``python -m
repro store stats`` reports cell/segment counts, bytes on disk,
compression ratio, and how many unmigrated JSON files remain.

**Version invalidation and maintenance.**  The model version stamp
(:data:`~repro.harness.store.MODEL_VERSION`, the package version)
participates in every hash: bumping the version changes every key, so
results computed by an older simulator are never reused — they simply
stop being found.  Eviction is no longer all-or-nothing:
``ResultStore.verify()`` quarantines corrupt records (healthy
neighbours are salvaged, the damaged segment is set aside as
``*.corrupt``) and drops version-stale cells, ``ResultStore.gc(
keep_keys)`` evicts everything outside a caller-supplied key set and
reports the bytes reclaimed, and all of it is scriptable as
``python -m repro store {verify,gc,stats,compact,migrate}``.
Maintenance verbs are offline operations: run them without concurrent
writers.

**Executor protocol.**  Execution is backend-agnostic behind
:class:`~repro.harness.executor.Executor` — ``run(specs, progress,
on_result)`` returning results in spec order.  Three backends share
the seam: the in-process :class:`~repro.harness.executor.SerialExecutor`,
the ``multiprocessing`` :class:`~repro.harness.executor.PoolExecutor`,
and the socket-based
:class:`~repro.harness.cluster.ClusterExecutor`.
``CampaignRunner.run_grid(executor=...)`` / ``run_cell_batch`` pass
any of them straight through; ``on_result`` streams each cell into the
store the moment it completes, so interrupted campaigns keep their
work.  All backends feed one
:class:`~repro.harness.progress.ProgressReporter` (cells done/total,
cells/sec, ETA, per-worker attribution).

**Cluster protocol** (:mod:`repro.harness.cluster`, stdlib-only).  A
TCP coordinator owns the campaign's pending cells; workers *pull*
(work stealing), simulate via the same
:func:`~repro.harness.parallel.simulate_cell` every backend uses, and
report back.  The contract:

- *Framing*: each frame is a 4-byte big-endian payload length plus
  UTF-8 JSON encoding one ``{"kind": ...}`` object; frames above 64
  MiB are rejected.  Strict request/response per connection.
- *Message kinds*: worker sends ``hello`` (names itself, states
  protocol version) and receives ``welcome`` (or ``reject``); then
  loops ``steal`` -> ``cell`` (cell id + full wire spec) / ``wait``
  (queue empty, grid live) / ``done`` (drained or failed);
  ``result``/``error`` report a cell and are ``ack``'d; ``heartbeat``
  keeps liveness fresh mid-simulation; ``bye`` ends cleanly.
- *Wire specs*: the complete ``CoreConfig`` record travels with every
  cell (``spec_to_wire``/``spec_from_wire``), so remote workers
  simulate exactly the configuration that was hashed — never a
  same-named approximation.
- *Telemetry frames*: a ``result`` frame may carry an optional
  ``telemetry`` sibling object (wall-clock seconds, replay counters,
  fast-forward engagement, peak worker RSS; see
  :func:`repro.obs.cell_telemetry`).  It rides *beside* the result —
  never inside it, stored results stay byte-identical across backends
  — and is unversioned: coordinators tolerate its absence, so old and
  new builds interoperate.  The coordinator aggregates frames into
  per-worker / per-scheme rollups
  (:class:`repro.obs.TelemetryAggregate`) surfaced through
  ``coordinator.stats()["telemetry"]`` and the ``serve`` summary.
- *Requeue semantics*: a stolen cell is in-flight against its worker;
  if the worker's socket drops or it stays silent past the heartbeat
  timeout, the cell returns to the *front* of the queue and the
  campaign continues.  Determinism makes the race benign: a
  falsely-dead worker's late result is bit-identical to the requeued
  rerun, the first result per cell wins, duplicates are dropped.
  Reported ``error`` frames are deterministic failures and are *not*
  requeued.

**Failure model** (the crash-safety contract, end to end):

- *Retried*: worker death (socket EOF, heartbeat silence) requeues the
  dead worker's in-flight cells at the front of the queue — a crash
  costs one cell's work, never the campaign.  Workers themselves retry
  lost coordinators with capped exponential backoff + jitter
  (``work --max-reconnects``); an explicit coordinator *rejection*
  (bad protocol version, incompatible schemes) is not retried.
- *Quarantined*: a cell that kills its worker ``max_cell_attempts``
  times (default 3) is poisoned — it is settled as a
  :class:`~repro.harness.store.CellFailure` (kind ``poisoned``) and
  never requeued, so one pathological cell cannot starve the grid.
  Deterministic ``error`` frames and watchdog timeouts
  (``work --cell-timeout``) settle the same way with kinds
  ``deterministic``/``timeout``.  Settled failures are persisted as
  records under ``<store>/failures/`` (``python -m repro store
  failures`` lists them; a later first result wins and clears the
  record).
- *Aborts*: only ``--fail-fast`` restores abort-on-first-error;
  otherwise failed cells yield ``None`` results and the rest of the
  campaign completes (graceful degradation).  Serial and pool
  backends keep their historical raise-on-exception behaviour.
- *Resumes*: the coordinator appends every steal/done/requeue/
  quarantine to an atomic-headed journal
  (``<store>/campaign.journal.jsonl``); ``serve --resume`` replays it
  — the store stays authoritative for completed cells, the journal
  contributes queue order, attempt counts, and settled failures.  A
  seeded :class:`~repro.harness.cluster.FaultPlan` injects crashes,
  frame faults, hangs, and coordinator kills at the protocol seam to
  test all of the above deterministically.

**Program cache.**  Workload generation is memoised content-addressed
(:mod:`repro.workloads.program_cache`: profile content + seed +
generator version), so pool and cluster workers looping over many
cells of one benchmark generate its program once per process.

**CLI.**  All of this is scriptable via ``python -m repro``::

    python -m repro list                         # experiment ids
    python -m repro grid --jobs 8 --progress     # local pool backend
    python -m repro run figure6 table3           # named experiments
    python -m repro run all --jobs 8             # everything, parallel
    python -m repro grid --executor cluster --local-workers 4

    # multi-host campaign: coordinator on one machine ...
    python -m repro serve --port 2017 --scale 1.0
    # ... any number of workers on any machines:
    python -m repro work --connect coordinator-host:2017

    python -m repro serve --resume               # pick up after a crash
    python -m repro store failures               # recorded cell failures
    python -m repro store verify                 # quarantine corrupt/stale
    python -m repro store gc --scale 1.0         # evict off-grid cells
    python -m repro store stats                  # cells/segments/bytes
    python -m repro store compact                # fold + reclaim segments
    python -m repro store migrate                # legacy JSON -> segments
    python -m repro bench --record BENCH_PR3.json

``--jobs N`` fans simulation out over N workers, ``--executor``
selects the backend explicitly, ``--progress`` streams live ETA lines,
``--scale`` / ``--seed`` select the workload build, ``--store-dir``
relocates the persistent store, and ``--no-store`` keeps a run purely
in-memory.
"""

from repro.harness.runner import CampaignRunner, shared_runner
from repro.harness.store import (
    MODEL_VERSION,
    CellFailure,
    ResultStore,
    simulation_key,
)
from repro.harness.journal import CampaignJournal, journal_path
from repro.harness.executor import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.harness.parallel import run_cells, simulate_cell
from repro.harness.progress import ProgressReporter, make_progress
from repro.harness.experiments import (
    EXPERIMENTS,
    Experiment,
    experiment_grid_needs,
    run_experiment,
    experiment_ids,
)

__all__ = [
    "CampaignRunner",
    "shared_runner",
    "ResultStore",
    "CellFailure",
    "CampaignJournal",
    "journal_path",
    "simulation_key",
    "MODEL_VERSION",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "make_executor",
    "run_cells",
    "simulate_cell",
    "ProgressReporter",
    "make_progress",
    "EXPERIMENTS",
    "Experiment",
    "experiment_grid_needs",
    "run_experiment",
    "experiment_ids",
]

"""Campaign engine: content-addressed, disk-backed, parallel.

:class:`~repro.harness.runner.CampaignRunner` executes the
(benchmark x config x scheme) simulation grid and caches results;
:mod:`repro.harness.experiments` turns the cached grid into each
table/figure of the paper, rendered as text and returned as data.

**Cache key.**  Every grid cell is identified by
:func:`~repro.harness.store.simulation_key`, a SHA-256 over the
canonical JSON of the complete simulation identity: the full
``CoreConfig`` parameter record (every field, nested ``MemConfig``
included), the canonical scheme name (aliases such as ``stt_rename``
key the same cell as ``stt-rename``) plus constructor kwargs, the
workload scale/seed, and a model version stamp.  Display names carry
no identity, so same-named-but-different configurations can never
alias.

**Store layout** (format ``sqlite-v2``).  With a
:class:`~repro.harness.store.ResultStore` attached, a store is one
SQLite database file, and each cell is one row of it::

    results/store/
        manifest.db               # one ``cells`` row per cell, one
                                  # ``failures`` row per failed cell

A row's last column is its record: the envelope ``{"key",
"model_version", "meta", "result"}`` as canonical JSON,
zlib-compressed.  Inside ``result`` the final memory image is packed
as contiguous runs in ascending address order,
``[[base, [v0, v1, ...]], ...]`` (see
:meth:`~repro.pipeline.core.SimulationResult.to_dict`).  A campaign
cell packs only the words that differ from its program's initial
image, and ``memory_base`` names that image by its digest; the
envelope's ``meta`` (benchmark, scale, seed) names the program, and
every read path — ``load``, ``load_many``, the lazy results'
``memory`` — decodes the record through
:func:`~repro.pipeline.core.decode_memory` to a read-only
:class:`~repro.pipeline.core.MemoryImage`: the record's words over the
program's own image, shared rather than copied.  Records without
``memory_base`` hold the whole image: packed, or, if written by 1.1.0
before the packed form, a ``{"address": value}`` object; both still
load, so such stores stay valid under the same model version.  The
row's other columns are the *full* 64-hex key, the
benchmark/config/scheme names, the halted flag and cycle count, the
record's size before compression, and a per-cell statistics blob:
``keys()`` and ``len()`` are pure index reads, and
``load_many`` and ``iter_results`` return lazily-decoded results —
statistics come from the row, records decompress only when touched —
so analysis passes that read statistics decode no record.  A save is
one transaction — the cell's INSERT and the DELETE of its failure row
— so a cell is stored whole or not at all, and concurrent writers,
threads or processes, share the one WAL-mode database.

**Stores of another format.**  The database's ``meta`` table names
its format, and the store reads it before writing anything.  A
directory of another format — such as ``sqlite-v1``, whose failure
records were JSON files under ``failures/``, or ``segments-v1``, the
segment files and manifest earlier releases wrote — is refused with an
error naming both formats and the directory, and left as it was; its
cells are simulated again in a fresh directory, as after a
model-version bump.  There is no migration.

**Version invalidation and maintenance.**  The model version stamp
(:data:`~repro.harness.store.MODEL_VERSION`, the package version)
participates in every hash: bumping the version changes every key, so
results computed by an older simulator are never reused — they simply
stop being found.  Eviction is no longer all-or-nothing:
``ResultStore.verify()`` decodes every row and deletes corrupt and
version-stale ones, ``ResultStore.gc(keep_keys)`` deletes everything
outside a caller-supplied key set, runs ``VACUUM`` to shrink the file
and reports the bytes reclaimed, and all of it is scriptable as
``python -m repro store {verify,gc,stats,failures}``.
Maintenance verbs are offline operations: run them without concurrent
writers.

**Executor protocol.**  Execution is backend-agnostic behind
:class:`~repro.harness.executor.Executor` — ``run(specs, progress,
on_result, on_failure)`` returning results in spec order.  Three
backends share the seam: the in-process
:class:`~repro.harness.executor.SerialExecutor`, the
``multiprocessing`` :class:`~repro.harness.executor.PoolExecutor`
(in-process at one job), and the socket-based
:class:`~repro.harness.cluster.ClusterExecutor`.  The caller picks
one; ``CampaignRunner.run_grid(executor=...)`` / ``run_cell_batch``
hand the uncached cells straight to it (``None`` is the serial
backend).  A result that crosses a process or socket boundary, from a
pool worker or a cluster worker alike, travels as the record the store
holds: ``SimulationResult.to_dict`` coded against the cell's program,
decoded on arrival against the receiver's copy of that program.
``on_result`` streams each cell into the store the moment it
completes, so interrupted campaigns keep their work.  All backends
feed one :class:`~repro.harness.progress.ProgressReporter` (cells
done/total, cells/sec, ETA, per-worker attribution).

**Cluster protocol** (:mod:`repro.harness.cluster`, stdlib-only).  A
coordinator owns the campaign's pending cells; in-process worker
threads *pull* them (work stealing), simulate via the same
:func:`~repro.harness.parallel.simulate_cell` every backend uses, and
report back.  The contract:

- *Transport*: each worker talks to its coordinator serve thread over
  its own ``socket.socketpair()``.  No other process can reach a
  socket pair, so every frame comes from this process: there is no
  handshake and no version check.
- *Framing*: each frame is a 4-byte big-endian payload length plus
  UTF-8 JSON encoding one ``{"kind": ...}`` object; frames above 64
  MiB are rejected.
- *Message kinds*: the worker sends ``steal`` first, then ``result``
  or ``error`` for the cell it holds; the coordinator answers every
  frame with the next ``cell`` (the full wire spec) or with ``done``
  (queue empty or campaign aborted).  A cell costs two frames.
- *Wire specs*: the complete ``CoreConfig`` record travels with every
  cell (``spec_to_wire``/``spec_from_wire``), so workers simulate
  exactly the configuration that was hashed — never a same-named
  approximation.

**Failure model** (the crash-safety contract, end to end):

- *Deterministic failures*: a cell whose simulation raises settles as
  a :class:`~repro.harness.store.CellFailure` of kind
  ``deterministic`` on the cluster (its ``error`` frame carries the
  message and traceback), yields ``None`` at its index, and the rest
  of the campaign completes.  Settled failures are persisted as
  ``failures`` rows of the store (``python -m repro store failures``
  lists them).  A result saved for the cell deletes its failure row in
  the transaction that inserts the result, whichever runner path
  produced it, so a cell is never both.  Serial and pool backends
  raise on a cell exception.
- *Hung cells*: no wall-clock timeout is needed.  The kernel's
  watchdog (no commit for ``watchdog_cycles``) and ``max_cycles``
  raise inside the cell, so a hung cell settles as ``deterministic``
  on the cluster and raises on the serial and pool backends.
- *Aborts*: on the cluster, a worker connection that ends any other
  way before the coordinator sent it ``done`` — a worker thread that
  died, a result that does not decode, an ``on_result`` that raised —
  aborts the campaign: ``run`` raises ``RuntimeError`` naming the
  worker and the cell it held, once every thread has ended.  A pool
  worker process that dies raises ``BrokenProcessPool`` instead of
  hanging the campaign.
- *Resumes*: results stream into the store as each cell finishes, so
  re-running the same command against the same store simulates only
  the missing cells, and retries the failed ones.

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
    python -m repro store failures               # recorded cell failures
    python -m repro store verify                 # drop corrupt/stale cells
    python -m repro store gc --scale 1.0         # evict off-grid cells
    python -m repro store stats                  # format/cells/bytes

``grid`` and ``run`` choose the backend with ``--executor
{pool,cluster}``: the default ``pool`` runs ``--jobs N`` processes
(in-process at the default of 1), ``cluster`` serves a loopback
coordinator to ``--local-workers`` threads.  ``--progress`` streams
live ETA lines, ``--scale`` / ``--seed`` select the workload build,
``--store-dir`` relocates the persistent store, and ``--no-store``
keeps a run purely in-memory.  An interrupted campaign resumes by
running the same command again against the same ``--store-dir``.
"""

from repro.harness.runner import CampaignRunner
from repro.harness.store import (
    MODEL_VERSION,
    CellFailure,
    ResultStore,
    simulation_key,
)
from repro.harness.executor import Executor, PoolExecutor, SerialExecutor
from repro.harness.parallel import simulate_cell
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
    "ResultStore",
    "CellFailure",
    "simulation_key",
    "MODEL_VERSION",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "simulate_cell",
    "ProgressReporter",
    "make_progress",
    "EXPERIMENTS",
    "Experiment",
    "experiment_grid_needs",
    "run_experiment",
    "experiment_ids",
]

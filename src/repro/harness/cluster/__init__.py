"""Loopback campaign execution over sockets (stdlib-only).

The cluster subsystem serves a campaign's cells over TCP to in-process
worker threads, behind the same
:class:`~repro.harness.executor.Executor` seam the serial loop and the
multiprocessing pool share:

- :mod:`~repro.harness.cluster.protocol` — length-prefixed JSON
  frames, the steal/result/error message kinds, and the wire form of
  cell specs (full ``CoreConfig`` travels with every cell);
- :mod:`~repro.harness.cluster.coordinator` — the TCP service owning
  the work-stealing queue, requeue of a dead worker's in-flight cells
  (a worker is dead on socket EOF or error), quarantine, and result
  collection;
- :mod:`~repro.harness.cluster.worker` — the pull/simulate/report
  client;
- :mod:`~repro.harness.cluster.executor` — the
  :class:`~repro.harness.executor.Executor` adapter
  (``--executor cluster --local-workers N``);
- :mod:`~repro.harness.cluster.faults` — the seeded chaos harness:
  :class:`~repro.harness.cluster.faults.FaultPlan` schedules worker
  crashes, poison cells, frame drops/delays/corruption, slow cells,
  late duplicate results, and coordinator kills, all injected at the
  protocol seam.

Everything is standard-library Python: one coordinator thread per
connection, blocking sockets, JSON frames.  Determinism and
content-addressing make the fault story simple — any cell may run
twice (a requeue races a late result) and the first result wins,
bit-identical either way.  The failure-model contract (what is
retried, quarantined, aborts, resumes) is documented in
:mod:`repro.harness`.
"""

from repro.harness.cluster.coordinator import ClusterCoordinator
from repro.harness.cluster.executor import ClusterExecutor
from repro.harness.cluster.faults import Fault, FaultPlan
from repro.harness.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.harness.cluster.worker import (
    ClusterWorker,
    CoordinatorRejected,
    WorkerCrash,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterExecutor",
    "ClusterWorker",
    "CoordinatorRejected",
    "WorkerCrash",
    "Fault",
    "FaultPlan",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "send_frame",
    "recv_frame",
    "spec_to_wire",
    "spec_from_wire",
]

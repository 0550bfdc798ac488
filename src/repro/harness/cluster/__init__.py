"""Loopback campaign execution over socket pairs (stdlib-only).

The cluster subsystem serves a campaign's cells to in-process worker
threads, behind the same :class:`~repro.harness.executor.Executor`
seam the serial loop and the process pool share:

- :mod:`~repro.harness.cluster.protocol` — length-prefixed JSON
  frames, the conversation (two frames per cell), and the wire form
  of cell specs (the full ``CoreConfig`` travels with every cell);
- :mod:`~repro.harness.cluster.coordinator` — the work-stealing
  queue, result collection, and the failure rule: an ``error`` frame
  settles a ``deterministic`` failure, any other early end of a
  connection aborts the campaign;
- :mod:`~repro.harness.cluster.worker` — the pull/simulate/report
  loop;
- :mod:`~repro.harness.cluster.executor` — the
  :class:`~repro.harness.executor.Executor` adapter
  (``--executor cluster --local-workers N``), one
  ``socket.socketpair()`` per worker.

Everything is standard-library Python: one serve thread and one
worker thread per connection, blocking sockets, JSON frames.  No
other process can reach a socket pair, so every frame comes from this
process.  The failure model (what settles, what aborts, how a
campaign resumes) is documented in :mod:`repro.harness`.
"""

from repro.harness.cluster.coordinator import ClusterCoordinator
from repro.harness.cluster.executor import ClusterExecutor
from repro.harness.cluster.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterExecutor",
    "ProtocolError",
    "send_frame",
    "recv_frame",
    "spec_to_wire",
    "spec_from_wire",
]

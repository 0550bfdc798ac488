"""The cluster backend behind the ``Executor`` protocol.

:class:`ClusterExecutor` serves a batch to ``local_workers`` worker
threads, each connected to a
:class:`~repro.harness.cluster.coordinator.ClusterCoordinator` serve
thread through its own ``socket.socketpair()``.  It blocks until the
grid drains and returns results in spec order, with ``None`` for a
cell whose simulation raised.  If a worker's connection ends before
the coordinator answered it ``done``, the campaign aborts and
:meth:`~ClusterExecutor.run` raises ``RuntimeError`` naming the worker
and its cell; every thread has ended by the time it raises.

Worker threads share the Python interpreter (the GIL serialises
them), so they exercise the socket path rather than add throughput;
``PoolExecutor`` is the backend that fans out across cores.
"""

import socket
import threading

from repro.harness.cluster.coordinator import ClusterCoordinator
from repro.harness.cluster.protocol import shutdown
from repro.harness.cluster.worker import work
from repro.harness.executor import Executor


class ClusterExecutor(Executor):
    """Serve a batch of cell specs to local cluster worker threads."""

    def __init__(self, local_workers=1):
        self.local_workers = int(local_workers)
        if self.local_workers < 1:
            raise ValueError("ClusterExecutor needs at least one local"
                             " worker, got %d" % self.local_workers)

    def run(self, specs, progress=None, on_result=None, on_failure=None):
        specs = list(specs)
        if not specs:
            return []
        coordinator = ClusterCoordinator(
            specs, progress=progress, on_result=on_result,
            on_failure=on_failure)
        served, threads, results = [], [], None
        try:
            for index in range(self.local_workers):
                ours, theirs = socket.socketpair()
                served.append(ours)
                threads.append(_start(coordinator.serve, ours,
                                      "local-%d" % (index + 1)))
                threads.append(_start(work, theirs))
            coordinator.wait()
            results = coordinator.results()
        finally:
            if results is None:
                # Aborted or interrupted: wake every serve thread still
                # waiting for a frame, which ends its worker's
                # connection in turn.
                for sock in served:
                    shutdown(sock)
            for thread in threads:
                thread.join()
            for sock in served:
                sock.close()
        return results


def _start(target, *args):
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    return thread

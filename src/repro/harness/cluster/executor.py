"""The cluster backend behind the ``Executor`` protocol.

:class:`ClusterExecutor` stands up a loopback
:class:`~repro.harness.cluster.coordinator.ClusterCoordinator` for the
batch, starts ``local_workers`` in-process worker threads against it,
blocks until the grid drains, and returns results in spec order —
with ``None`` standing in for cells that failed or were quarantined
(unless ``fail_fast``, which raises like a pool run).

Worker threads share the Python interpreter (the GIL serialises
them), so they exercise the socket path rather than add throughput;
``PoolExecutor`` is the backend that fans out across cores.  Only the
local threads can simulate cells: once every one of them has exited
with cells still unsettled, :meth:`ClusterExecutor.run` raises instead
of waiting for a worker that cannot come.

``fault_plan`` threads a seeded
:class:`~repro.harness.cluster.faults.FaultPlan` into the coordinator
and every local worker.
"""

import threading
import time

from repro.harness.cluster.coordinator import (
    DEFAULT_MAX_CELL_ATTEMPTS,
    ClusterCoordinator,
)
from repro.harness.cluster.worker import ClusterWorker
from repro.harness.executor import Executor

#: Seconds between checks that a local worker is still alive.
_POLL_SECONDS = 0.1


class ClusterExecutor(Executor):
    """Serve a batch of cell specs to local cluster worker threads."""

    kind = "cluster"

    def __init__(self, local_workers=1, wait_timeout=None, fail_fast=False,
                 max_cell_attempts=DEFAULT_MAX_CELL_ATTEMPTS,
                 fault_plan=None):
        self.local_workers = int(local_workers)
        if self.local_workers < 1:
            raise ValueError("ClusterExecutor needs at least one local"
                             " worker, got %d" % self.local_workers)
        self.wait_timeout = wait_timeout
        self.fail_fast = fail_fast
        self.max_cell_attempts = max_cell_attempts
        self.fault_plan = fault_plan
        self.last_stats = None
        self.last_failures = {}

    def run(self, specs, progress=None, on_result=None, on_failure=None):
        specs = list(specs)
        if not specs:
            return []
        coordinator = ClusterCoordinator(
            specs, progress=progress, on_result=on_result,
            on_failure=on_failure, fail_fast=self.fail_fast,
            max_cell_attempts=self.max_cell_attempts,
            fault_plan=self.fault_plan,
        )
        coordinator.start()
        try:
            host, port = coordinator.address
            threads = []
            for index in range(self.local_workers):
                worker = ClusterWorker(host, port,
                                       name="local-%d" % (index + 1),
                                       fault_plan=self.fault_plan)
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                threads.append(thread)
            stuck = self._wait(coordinator, threads)
            self.last_stats = coordinator.stats()
            self.last_failures = coordinator.failures()
            if stuck is not None:
                raise RuntimeError(
                    "cluster campaign %s: %d/%d cells"
                    % (stuck, self.last_stats["completed"],
                       self.last_stats["cells"]))
            results = coordinator.results()
            # Let workers drain cleanly (their next steal is answered
            # "done", they reply "bye") before tearing the coordinator
            # down, so a clean campaign never ends in mid-request
            # connection errors.
            for thread in threads:
                thread.join(timeout=5.0)
            self.last_stats = coordinator.stats()
            self.last_failures = coordinator.failures()
        finally:
            coordinator.close()
        return results

    def _wait(self, coordinator, threads):
        """Block until every cell settles; ``None``, or why none can.

        Gives up after ``wait_timeout`` seconds, or once every worker
        thread has exited and the coordinator has requeued or settled
        what their connections held, with cells still unsettled.
        """
        deadline = (None if self.wait_timeout is None
                    else time.monotonic() + self.wait_timeout)
        while not coordinator.wait(_POLL_SECONDS):
            if deadline is not None and time.monotonic() >= deadline:
                return "timed out after %ss" % self.wait_timeout
            if (not any(thread.is_alive() for thread in threads)
                    and not coordinator.serving()
                    and not coordinator.wait(0)):
                return "stalled: every local worker exited"
        return None

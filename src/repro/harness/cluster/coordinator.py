"""Coordinator: one campaign's queue, served to local workers.

:class:`ClusterCoordinator` owns one batch of cell specs.
:meth:`ClusterCoordinator.serve` runs one worker's connection on the
caller's thread: it answers the worker's ``steal`` and each of its
``result``/``error`` frames with the next cell from a shared queue, or
with ``done``.  Workers pull cells when idle, so a fast worker
simulates more cells than a slow one (work stealing without a
placement policy).

**Failures.**  An ``error`` frame settles its cell as a
``deterministic`` :class:`~repro.harness.store.CellFailure` through
``on_failure``, and the campaign continues.  A connection that ends
any other way before the coordinator answered it ``done`` — the
worker thread died, a result did not decode, ``on_result`` raised —
aborts the campaign: no further cell is handed out, :meth:`wait`
returns, and :meth:`results` raises naming the worker and the cell it
held.  Results that ``on_result`` already streamed into the store
stay there, so running the campaign again simulates only the rest.
"""

import collections
import threading

from repro.harness.cluster.protocol import (
    ProtocolError,
    recv_frame,
    send_frame,
    shutdown,
    spec_to_wire,
)
from repro.harness.store import CellFailure, simulation_key
from repro.pipeline.core import SimulationResult
from repro.workloads.program_cache import cached_spec_program


class ClusterCoordinator:
    """Serves one batch of cell specs to pulling workers."""

    def __init__(self, specs, progress=None, on_result=None, on_failure=None):
        self._specs = list(specs)
        self._queue = collections.deque(range(len(self._specs)))
        self._results = [None] * len(self._specs)
        self._settled = 0
        self._aborted = None  # the RuntimeError results() raises
        self.progress = progress
        self.on_result = on_result
        self.on_failure = on_failure
        self._lock = threading.Lock()
        self._done = threading.Event()
        if not self._specs:
            self._done.set()

    def wait(self, timeout=None):
        """Block until every cell settled or the campaign aborted;
        True if so."""
        return self._done.wait(timeout)

    def results(self):
        """All results in spec order, ``None`` for a failed cell.

        Raises ``RuntimeError`` when the campaign aborted, or when it
        has not finished.
        """
        with self._lock:
            if self._aborted is not None:
                raise self._aborted
            if self._settled < len(self._specs):
                raise RuntimeError("cluster campaign incomplete: %d/%d cells"
                                   % (self._settled, len(self._specs)))
            return list(self._results)

    def serve(self, conn, name):
        """Answer the worker ``name`` on ``conn`` until it is sent
        ``done``; any other end of the connection aborts the campaign.

        Shuts ``conn`` down on return, so the worker sees the end too.
        """
        held = None  # the cell the worker holds
        ended = ConnectionError("connection closed")
        try:
            message = recv_frame(conn)
            while message is not None:
                self._settle(name, held, message)
                held = self._next_cell()
                if held is None:
                    send_frame(conn, {"kind": "done"})
                    ended = None
                    break
                send_frame(conn, {"kind": "cell",
                                  "spec": spec_to_wire(self._specs[held])})
                message = recv_frame(conn)
        except Exception as exc:
            ended = exc
        finally:
            if ended is not None:
                self._abort(name, held, ended)
            shutdown(conn)

    # -- internals --------------------------------------------------------

    def _next_cell(self):
        with self._lock:
            if self._aborted is not None or not self._queue:
                return None
            return self._queue.popleft()

    def _settle(self, name, cell_id, message):
        """Settle the held cell from the worker's ``result`` or
        ``error`` frame; a ``steal`` settles nothing."""
        kind = message["kind"]
        if kind == "steal" and cell_id is None:
            return
        if cell_id is None or kind not in ("result", "error"):
            raise ProtocolError("unexpected %r frame" % kind)
        benchmark, config, scheme, kwargs, scale, seed = self._specs[cell_id]
        if kind == "result":
            # The worker coded the cell's memory against its program's
            # initial image; decode it to a view over this process's
            # copy of that image, as the pool does.
            try:
                result = SimulationResult.from_dict(
                    message["result"],
                    cached_spec_program(benchmark, scale=scale, seed=seed))
            except (LookupError, TypeError, ValueError,
                    AttributeError) as exc:
                raise ProtocolError("undecodable result: %s: %s"
                                    % (type(exc).__name__, exc))
            # A cell counts as settled only once on_result returned, so
            # a store write that raises aborts the campaign instead of
            # finishing it without that cell.
            if self.on_result is not None:
                self.on_result(cell_id, result)
            self._results[cell_id] = result
            if self.progress is not None:
                self.progress.cell_done(worker=name)
        else:
            failure = CellFailure(
                key=simulation_key(benchmark, config, scheme,
                                   scheme_kwargs=dict(kwargs or ()),
                                   scale=scale, seed=seed),
                benchmark=benchmark, config_name=config.name,
                scheme_name=scheme,
                kind="deterministic", worker=name,
                error=str(message.get("error", "unknown error")),
                traceback=message.get("traceback"))
            if self.on_failure is not None:
                self.on_failure(cell_id, failure)
            if self.progress is not None:
                self.progress.cell_failed(worker=name)
        with self._lock:
            self._settled += 1
            finished = self._settled == len(self._specs)
        if finished:
            self._done.set()

    def _abort(self, name, cell_id, cause):
        """Stop the campaign: a connection ended before ``done``."""
        if cell_id is None:
            held = "holding no cell"
        else:
            benchmark, config, scheme = self._specs[cell_id][:3]
            held = "holding cell %d (%s/%s/%s)" % (
                cell_id, benchmark, config.name, scheme)
        error = RuntimeError("cluster campaign aborted: worker %s ended %s:"
                             " %s: %s" % (name, held, type(cause).__name__,
                                          cause))
        error.__cause__ = cause
        with self._lock:
            # Once every cell has settled nothing is lost: a worker
            # that ends after that is not an abort.
            if self._aborted is None and self._settled < len(self._specs):
                self._aborted = error
        self._done.set()


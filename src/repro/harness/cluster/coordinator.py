"""TCP coordinator: work-stealing queue, requeue, quarantine.

:class:`ClusterCoordinator` owns one campaign's pending cells.  It
listens on an ephemeral loopback port, registers workers as they
``hello``, and serves ``steal`` requests from a double-ended queue —
workers *pull* work when idle, so a fast worker naturally simulates
more cells than a slow one (work stealing without any placement
policy).

Liveness: a socket EOF or error declares a worker dead.  Its
in-flight cells are pushed back to the *front* of the queue (they
were stolen earliest; finishing them first keeps campaign latency
bounded), and the campaign continues without them.

Determinism makes all of this safe: cells are content-addressed and
simulation is reproducible, so a late ``result`` for a requeued cell
is identical to the rerun — the first result for a cell wins,
duplicates are ack'd and dropped.

**Poison-cell quarantine.**  A requeue is attributed to the cell the
dead worker was holding; after ``max_cell_attempts`` deaths the cell
is *quarantined* — recorded as a ``poisoned``
:class:`~repro.harness.store.CellFailure` and never requeued — so one
worker-killing cell costs one cell, not every worker in turn.  A late
result for a quarantined cell (the "dead" worker was merely slow)
still wins: the quarantine is cleared and the result recorded.

**Graceful degradation.**  A worker *reporting* an ``error`` frame is
a deterministic failure (an unknown benchmark stays unknown on every
retry): by default it is recorded as a :class:`CellFailure` and the
campaign continues — one bad cell costs one cell.  ``fail_fast=True``
restores the historical abort-on-first-error behaviour, where
:meth:`ClusterCoordinator.results` raises like a pool run propagating
a worker exception.
"""

import socket
import threading

from repro.harness.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
    spec_to_wire,
)
from repro.harness.store import MODEL_VERSION, CellFailure, simulation_key
from repro.obs import TelemetryAggregate
from repro.pipeline.core import SimulationResult
from repro.workloads.program_cache import cached_spec_program

#: Seconds an idle worker is told to wait before stealing again.
STEAL_RETRY_SECONDS = 0.05

#: Worker deaths attributed to one cell before it is quarantined.
DEFAULT_MAX_CELL_ATTEMPTS = 3


class _WorkerState:
    """Coordinator-side record of one connected worker."""

    def __init__(self, conn):
        self.conn = conn
        self.cells = set()  # in-flight cell ids


def _spec_key(spec):
    """Content-addressed key of one cell spec tuple."""
    benchmark, config, scheme_name, scheme_kwargs, scale, seed = spec
    return simulation_key(benchmark, config, scheme_name,
                          scheme_kwargs=dict(scheme_kwargs or ()),
                          scale=scale, seed=seed)


class ClusterCoordinator:
    """Serves one batch of cell specs to pulling workers."""

    def __init__(self, specs, progress=None, on_result=None, on_failure=None,
                 fail_fast=False,
                 max_cell_attempts=DEFAULT_MAX_CELL_ATTEMPTS,
                 fault_plan=None):
        import collections

        self._specs = list(specs)
        self._keys = [_spec_key(spec) for spec in self._specs]
        self._queue = collections.deque(range(len(self._specs)))
        self._in_flight = {}  # cell_id -> worker name
        self._results = {}  # cell_id -> SimulationResult
        self._failures = {}  # cell_id -> CellFailure (deterministic)
        self._quarantined = {}  # cell_id -> CellFailure (poisoned)
        self._attempts = {}  # cell_id -> worker deaths attributed
        self._workers = {}  # name -> _WorkerState
        self._attribution = {}  # worker name -> cells completed, ever
        self._requeues = 0
        self._persisted = 0  # results whose on_result returned
        self._connections = 0  # worker connections still being served
        #: Campaign-wide execution telemetry (wall time, replay
        #: counters, peak RSS), aggregated from the optional
        #: ``telemetry`` riding each first-winning result frame.
        self.telemetry = TelemetryAggregate()
        self.progress = progress
        self.on_result = on_result
        self.on_failure = on_failure
        self.fail_fast = fail_fast
        self.max_cell_attempts = max(1, int(max_cell_attempts))
        self._fault_plan = fault_plan
        self._lock = threading.Lock()
        self._done = threading.Event()
        if not self._specs:
            self._done.set()
        self._closed = False
        self._listener = None
        self._threads = []

    def _make_failure(self, cell_id, kind, error, worker, attempts,
                      traceback=None):
        benchmark, config = self._specs[cell_id][0], self._specs[cell_id][1]
        scheme = self._specs[cell_id][2]
        return CellFailure(
            key=self._keys[cell_id], benchmark=benchmark,
            config_name=getattr(config, "name", str(config)),
            scheme_name=scheme, kind=kind, attempts=attempts,
            worker=worker, error=error, traceback=traceback,
        )

    # -- lifecycle --------------------------------------------------------

    def start(self):
        """Bind an ephemeral loopback port, listen, start accepting."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    @property
    def address(self):
        """``(host, port)`` actually bound (port resolved if 0)."""
        return self._listener.getsockname()[:2]

    def wait(self, timeout=None):
        """Block until every cell has a result or failure; True if so."""
        return self._done.wait(timeout)

    def serving(self):
        """True while any worker connection is still being served.

        Once it is False, every connection that ended has requeued or
        settled what its worker held.
        """
        with self._lock:
            return self._connections > 0

    def close(self):
        """Stop serving and drop every connection."""
        self._closed = True
        self._done.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            workers = list(self._workers.values())
        for state in workers:
            self._disconnect(state.conn)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.close()

    # -- reading ----------------------------------------------------------

    def _settled_locked(self):
        return (len(self._results) + len(self._failures)
                + len(self._quarantined))

    def results(self):
        """All results in spec order; failed cells are ``None``.

        Raises when the campaign is incomplete, or — under
        ``fail_fast`` — when any cell failed (the historical
        pool-style propagation).
        """
        with self._lock:
            if self.fail_fast and (self._failures or self._quarantined):
                failed = dict(self._failures)
                failed.update(self._quarantined)
                first_id = sorted(failed)[0]
                raise RuntimeError(
                    "cluster campaign failed: %d cell(s) errored; first:"
                    " cell %d: %s"
                    % (len(failed), first_id, failed[first_id].error)
                )
            if self._settled_locked() != len(self._specs):
                raise RuntimeError(
                    "cluster campaign incomplete: %d/%d cells"
                    % (self._settled_locked(), len(self._specs))
                )
            return [self._results.get(i) for i in range(len(self._specs))]

    def failures(self):
        """Failed/quarantined cells: ``{cell_id: CellFailure}``."""
        with self._lock:
            failed = dict(self._failures)
            failed.update(self._quarantined)
            return failed

    def stats(self):
        """Queue/worker counters (for status lines and tests)."""
        with self._lock:
            return {
                "cells": len(self._specs),
                "completed": len(self._results),
                "failed": len(self._failures),
                "quarantined": len(self._quarantined),
                "queued": len(self._queue),
                "in_flight": len(self._in_flight),
                "requeues": self._requeues,
                # Attribution survives worker disconnects: a worker
                # that drained and left still shows in the final tally.
                "workers": dict(self._attribution),
                "telemetry": self.telemetry.rollup(),
            }

    # -- accept / serve ---------------------------------------------------

    def _accept_loop(self):
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                self._connections += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn):
        name = None
        try:
            while not self._closed:
                message = recv_frame(conn)
                if message is None:
                    break
                kind = message["kind"]
                if kind == "hello":
                    name, reject_reason = self._register(message, conn)
                    if name is None:
                        send_frame(conn, {
                            "kind": "reject",
                            "error": reject_reason,
                        })
                        break
                    send_frame(conn, {
                        "kind": "welcome",
                        "protocol": PROTOCOL_VERSION,
                        "worker": name,
                        "cells": len(self._specs),
                    })
                elif name is None:
                    send_frame(conn, {"kind": "reject",
                                      "error": "hello required first"})
                    break
                elif kind == "steal":
                    send_frame(conn, self._next_cell(name))
                elif kind == "result":
                    self._complete(name, message["cell_id"],
                                   message["result"],
                                   telemetry=message.get("telemetry"))
                    send_frame(conn, {"kind": "ack"})
                elif kind == "error":
                    self._fail(name, message["cell_id"], message)
                    send_frame(conn, {"kind": "ack"})
                elif kind == "bye":
                    send_frame(conn, {"kind": "ack"})
                    break
                else:
                    send_frame(conn, {"kind": "reject",
                                      "error": "unknown kind %r" % kind})
                    break
        except (OSError, ProtocolError, KeyError):
            pass
        finally:
            try:
                self._drop_worker(name)
                self._disconnect(conn)
            finally:
                with self._lock:
                    self._connections -= 1

    def _register(self, message, conn):
        """Validate a ``hello`` and record the worker.

        Returns ``(name, None)`` on success, ``(None, reason)`` on a
        refused handshake: another protocol generation, or another
        model version (see the protocol module docstring — results
        simulated by another model must not be stored under this
        model's keys).
        """
        if message.get("protocol") != PROTOCOL_VERSION:
            return None, ("protocol version mismatch: coordinator v%s,"
                          " worker v%s" % (PROTOCOL_VERSION,
                                           message.get("protocol")))
        if message.get("model_version") != MODEL_VERSION:
            return None, ("model version mismatch: coordinator %s,"
                          " worker %s" % (MODEL_VERSION,
                                          message.get("model_version")))
        base = str(message.get("worker") or "worker")
        with self._lock:
            name = base
            suffix = 1
            while name in self._workers:
                suffix += 1
                name = "%s~%d" % (base, suffix)
            self._workers[name] = _WorkerState(conn)
        return name, None

    # -- queue management -------------------------------------------------

    def _next_cell(self, name):
        with self._lock:
            if self._done.is_set():
                return {"kind": "done"}
            if self.fail_fast and (self._failures or self._quarantined):
                return {"kind": "done"}
            state = self._workers.get(name)
            if state is None:
                return {"kind": "done"}
            if self._queue:
                cell_id = self._queue.popleft()
                self._in_flight[cell_id] = name
                state.cells.add(cell_id)
                spec = self._specs[cell_id]
            elif self._in_flight:
                # Queue drained but peers are still simulating; if one
                # dies its cells reappear, so stay subscribed.
                return {"kind": "wait", "seconds": STEAL_RETRY_SECONDS}
            else:
                return {"kind": "done"}
        return {"kind": "cell", "cell_id": cell_id,
                "spec": spec_to_wire(spec)}

    def _complete(self, name, cell_id, result_data, telemetry=None):
        # The worker coded the cell's memory against its program's
        # initial image; decode it to a view over this process's copy
        # of that image, as the pool does.  A frame that does not
        # decode is the worker's fault: drop it, requeue the cell.
        try:
            benchmark, _config, _scheme, _kwargs, scale, seed = \
                self._specs[cell_id]
            result = SimulationResult.from_dict(
                result_data,
                cached_spec_program(benchmark, scale=scale, seed=seed))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ProtocolError("undecodable result for cell %r: %s: %s"
                                % (cell_id, type(exc).__name__, exc))
        with self._lock:
            state = self._workers.get(name)
            if state is not None:
                state.cells.discard(cell_id)
            if cell_id in self._results:
                return  # late duplicate after a requeue; first wins
            # A late result for a failed or quarantined cell is the
            # *first result* — determinism says it is the result the
            # requeued rerun would have produced, so it wins and the
            # failure record dissolves.
            cleared = (self._failures.pop(cell_id, None)
                       or self._quarantined.pop(cell_id, None))
            self._results[cell_id] = result
            # First result wins ⇒ its telemetry is counted exactly
            # once; duplicates returned above never reach here.
            self.telemetry.add(name, self._specs[cell_id][2], telemetry)
            self._in_flight.pop(cell_id, None)
            self._attribution[name] = self._attribution.get(name, 0) + 1
            finished = self._settled_locked() >= len(self._specs)
        # The done event must fire even if a callback blows up (full
        # disk in the store-save, a buggy progress hook): the result is
        # already recorded, and a campaign that finished must never
        # leave its executor blocked in wait() forever.
        try:
            if self.on_result is not None:
                self.on_result(cell_id, result)
            with self._lock:
                self._persisted += 1
                persisted = self._persisted
            if self.progress is not None:
                if cleared is not None:
                    self.progress.failure_cleared(cleared.kind)
                self.progress.cell_done(worker=name)
        finally:
            if finished:
                self._done.set()
        # Counted once on_result returned, not once recorded: another
        # connection may still be inside its own store write, and the
        # injected kill must not cut it off.
        if (self._fault_plan is not None
                and self._fault_plan.on_result_recorded(persisted)):
            # Injected coordinator death: vanish abruptly — exactly
            # what SIGKILL looks like to workers and callers.
            self.close()

    def _fail(self, name, cell_id, message):
        error = str(message.get("error", "unknown error"))
        with self._lock:
            state = self._workers.get(name)
            if state is not None:
                state.cells.discard(cell_id)
            self._in_flight.pop(cell_id, None)
            if (cell_id in self._results or cell_id in self._failures
                    or cell_id in self._quarantined):
                return  # duplicate report for a settled cell; ignore
            failure = self._make_failure(
                cell_id, "deterministic", error=error, worker=name,
                attempts=self._attempts.get(cell_id, 0) + 1,
                traceback=message.get("traceback"),
            )
            self._failures[cell_id] = failure
            finished = self._settled_locked() >= len(self._specs)
        self._notify_failure(cell_id, failure)
        # Deterministic failure: retrying elsewhere cannot succeed.
        # Under fail_fast the campaign ends promptly (results() will
        # raise); otherwise it is record-and-continue — one bad cell
        # costs one cell, and the rest of the grid completes.
        if self.fail_fast or finished:
            self._done.set()

    def _notify_failure(self, cell_id, failure):
        try:
            if self.on_failure is not None:
                self.on_failure(cell_id, failure)
        finally:
            if self.progress is not None:
                self.progress.cell_failed(worker=failure.worker,
                                          kind=failure.kind)

    def _drop_worker(self, name):
        """Requeue or quarantine a dead worker's in-flight cells.

        Each cell the dead worker held gets one attributed *attempt*;
        at ``max_cell_attempts`` the cell is quarantined instead of
        requeued — the cell is the common factor across those deaths,
        and feeding it to every remaining worker in turn would take the
        whole campaign down.  Idempotent per worker.
        """
        if name is None:
            return
        requeued = 0
        quarantined = []
        with self._lock:
            state = self._workers.pop(name, None)
            if state is None:
                return
            for cell_id in sorted(state.cells, reverse=True):
                if (cell_id in self._results or cell_id in self._failures
                        or cell_id in self._quarantined):
                    continue
                if self._in_flight.get(cell_id) != name:
                    continue
                del self._in_flight[cell_id]
                attempts = self._attempts.get(cell_id, 0) + 1
                self._attempts[cell_id] = attempts
                if attempts >= self.max_cell_attempts:
                    failure = self._make_failure(
                        cell_id, "poisoned", worker=name, attempts=attempts,
                        error="worker died %d time(s) holding this cell"
                              " (last: %s)" % (attempts, name),
                    )
                    self._quarantined[cell_id] = failure
                    quarantined.append((cell_id, failure))
                else:
                    self._queue.appendleft(cell_id)
                    self._requeues += 1
                    requeued += 1
            finished = self._settled_locked() >= len(self._specs)
        if self.progress is not None:
            for _ in range(requeued):
                self.progress.requeued()
        for cell_id, failure in quarantined:
            self._notify_failure(cell_id, failure)
        if finished or (self.fail_fast and quarantined):
            self._done.set()

    @staticmethod
    def _disconnect(conn):
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

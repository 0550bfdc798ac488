"""TCP coordinator: work-stealing queue, heartbeats, requeue, quarantine.

:class:`ClusterCoordinator` owns one campaign's pending cells.  It
listens on a TCP port, registers workers as they ``hello``, and serves
``steal`` requests from a double-ended queue — workers *pull* work
when idle, so a fast host naturally simulates more cells than a slow
one (work stealing without any placement policy).

Liveness: every frame from a worker (steals, results, heartbeats)
refreshes its ``last_seen``.  A monitor thread declares a worker dead
when nothing arrives within ``heartbeat_timeout`` seconds — workers
heartbeat at a fraction of that interval even mid-simulation — and a
socket EOF/error declares it dead immediately.  Either way the
worker's in-flight cells are pushed back to the *front* of the queue
(they were stolen earliest; finishing them first keeps campaign
latency bounded), and the campaign continues without them.

Determinism makes all of this safe: cells are content-addressed and
simulation is reproducible, so a falsely-declared-dead worker's late
``result`` is identical to the requeued rerun — the first result for
a cell wins, duplicates are ack'd and dropped.

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

**Journal.**  With a :class:`~repro.harness.journal.CampaignJournal`
attached every state transition (steal, done, requeue, quarantine,
failure, late-result unfail) appends one event line, and a coordinator
built with ``resume_state`` reconstructs the previous campaign's shape:
previously-in-flight cells re-queue at the front, attempt counts carry
over (a poison cell does not get a fresh life per restart), and
quarantine/failure records are re-applied instead of retried.
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

#: Seconds a worker may stay silent before it is declared dead.
DEFAULT_HEARTBEAT_TIMEOUT = 10.0

#: Seconds an idle worker is told to wait before stealing again.
STEAL_RETRY_SECONDS = 0.05

#: Worker deaths attributed to one cell before it is quarantined.
DEFAULT_MAX_CELL_ATTEMPTS = 3


class _WorkerState:
    """Coordinator-side record of one connected worker."""

    def __init__(self, name, conn):
        self.name = name
        self.conn = conn
        self.last_seen = 0.0
        self.cells = set()  # in-flight cell ids
        self.completed = 0


def _spec_key(spec):
    """Content-addressed key of one cell spec tuple."""
    benchmark, config, scheme_name, scheme_kwargs, scale, seed = spec
    return simulation_key(benchmark, config, scheme_name,
                          scheme_kwargs=dict(scheme_kwargs or ()),
                          scale=scale, seed=seed)


class ClusterCoordinator:
    """Serves one batch of cell specs to pulling workers."""

    def __init__(self, specs, host="127.0.0.1", port=0,
                 heartbeat_timeout=DEFAULT_HEARTBEAT_TIMEOUT,
                 progress=None, on_result=None, on_failure=None,
                 fail_fast=False,
                 max_cell_attempts=DEFAULT_MAX_CELL_ATTEMPTS,
                 journal=None, resume_state=None, fault_plan=None):
        import collections

        self._specs = list(specs)
        self._keys = [_spec_key(spec) for spec in self._specs]
        self._queue = collections.deque(range(len(self._specs)))
        self._in_flight = {}  # cell_id -> worker name
        self._results = {}  # cell_id -> SimulationResult
        self._failures = {}  # cell_id -> CellFailure (deterministic/timeout)
        self._quarantined = {}  # cell_id -> CellFailure (poisoned)
        self._attempts = {}  # cell_id -> worker deaths attributed
        self._workers = {}  # name -> _WorkerState
        self._attribution = {}  # worker name -> cells completed, ever
        self._requeues = 0
        self._persisted = 0  # results whose on_result returned
        #: Campaign-wide execution telemetry (wall time, replay
        #: counters, peak RSS), aggregated from the optional
        #: ``telemetry`` riding each first-winning result frame.
        self.telemetry = TelemetryAggregate()
        self.heartbeat_timeout = heartbeat_timeout
        self.progress = progress
        self.on_result = on_result
        self.on_failure = on_failure
        self.fail_fast = fail_fast
        self.max_cell_attempts = max(1, int(max_cell_attempts))
        self._journal = journal
        self._resume_state = resume_state
        self._fault_plan = fault_plan
        self._carried = []  # CellFailures re-applied from a resume
        self._lock = threading.Lock()
        self._done = threading.Event()
        if resume_state is not None:
            self._apply_resume_state(resume_state)
        if self._settled_locked() >= len(self._specs):
            self._done.set()
        self._closed = False
        self._listener = None
        self._threads = []
        self._host, self._port = host, port

    def _apply_resume_state(self, state):
        """Reconstruct campaign shape from a replayed journal.

        Previously-quarantined/failed cells are re-applied as settled
        (an explicit resume completes the *rest* of the campaign; a
        fresh ``serve`` retries them), attempt counts carry over, and
        the queue is reordered so cells that were in flight at the
        crash resume at the front.
        """
        remaining = []
        for cell_id, key in enumerate(self._keys):
            record = state.quarantined.get(key) or state.failed.get(key)
            if record is not None:
                failure = self._rebuild_failure(cell_id, record)
                if failure.kind == "poisoned":
                    self._quarantined[cell_id] = failure
                else:
                    self._failures[cell_id] = failure
                self._attempts[cell_id] = failure.attempts
                self._carried.append((cell_id, failure))
                continue
            self._attempts[cell_id] = state.attempts.get(key, 0)
            remaining.append(cell_id)
        order = {key: rank for rank, key in
                 enumerate(state.resume_order([self._keys[i]
                                               for i in remaining]))}
        remaining.sort(key=lambda i: order[self._keys[i]])
        self._queue.clear()
        self._queue.extend(remaining)

    def _rebuild_failure(self, cell_id, record):
        try:
            return CellFailure.from_dict(record)
        except (TypeError, ValueError):
            return self._make_failure(cell_id, "deterministic",
                                      error=str(record), worker=None,
                                      attempts=1)

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
        """Bind, listen, and start the accept + liveness threads."""
        if self._journal is not None:
            if self._resume_state is not None:
                self._journal.resume()
            else:
                self._journal.begin([self._keys[i] for i in self._queue])
        # Re-fire callbacks for failures carried over from the journal:
        # idempotent on the store side, and it keeps a resumed
        # campaign's progress/failure accounting complete.
        for cell_id, failure in self._carried:
            self._notify_failure(cell_id, failure)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self._host, self._port))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        for target in (self._accept_loop, self._monitor_loop):
            thread = threading.Thread(target=target, daemon=True)
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

    def drain(self, timeout=2.0):
        """Wait briefly for connected workers to see ``done`` and leave.

        Purely a politeness window after the campaign completes: each
        worker's next steal is answered ``done`` and it disconnects
        with ``bye``; waiting for that beats cutting its socket
        mid-exchange.  Returns True when every worker left in time.
        """
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._workers:
                    return True
            time.sleep(0.02)
        return False

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
            # Under the lock: every journal append holds it too, and
            # sees _closed once this section has run.
            if self._journal is not None:
                self._journal.close()
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
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn):
        import time

        name = None
        try:
            while not self._closed:
                message = recv_frame(conn)
                if message is None:
                    break
                kind = message["kind"]
                if name is not None:
                    with self._lock:
                        state = self._workers.get(name)
                        if state is None:
                            break  # declared dead; force a reconnect
                        state.last_seen = time.monotonic()
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
                elif kind == "heartbeat":
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
            self._drop_worker(name)
            self._disconnect(conn)

    def _register(self, message, conn):
        """Validate a ``hello`` and record the worker.

        Returns ``(name, None)`` on success, ``(None, reason)`` on a
        refused handshake: another protocol generation, or another
        model version (see the protocol module docstring — results
        simulated by another model must not be stored under this
        model's keys).
        """
        import time

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
            state = _WorkerState(name, conn)
            state.last_seen = time.monotonic()
            self._workers[name] = state
        return name, None

    # -- queue management -------------------------------------------------

    def _journal_event(self, record):
        """Append one event; the caller holds ``self._lock``.

        A closed coordinator journals nothing: its serve threads may
        still settle a late result or drop a worker after ``close``.
        """
        if self._journal is not None and not self._closed:
            try:
                self._journal.append(record)
            except OSError:
                pass  # a full disk must not take the campaign down

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
                self._journal_event({"event": "steal",
                                     "key": self._keys[cell_id],
                                     "worker": name})
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
        # initial image; rebuild the whole image, which is what results
        # handed to on_result and results() carry.  A frame that does
        # not decode is the worker's fault: drop it, requeue the cell.
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
            if state is not None:
                state.completed += 1
            self._attribution[name] = self._attribution.get(name, 0) + 1
            if cleared is not None:
                self._journal_event({"event": "unfail",
                                     "key": self._keys[cell_id]})
            self._journal_event({"event": "done",
                                 "key": self._keys[cell_id]})
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
            # Injected coordinator death: vanish abruptly, no drain —
            # exactly what SIGKILL looks like to workers and callers.
            self.close()

    def _fail(self, name, cell_id, message):
        error = str(message.get("error", "unknown error"))
        kind = message.get("failure_kind", "deterministic")
        if kind not in ("deterministic", "timeout"):
            kind = "deterministic"
        with self._lock:
            state = self._workers.get(name)
            if state is not None:
                state.cells.discard(cell_id)
            self._in_flight.pop(cell_id, None)
            if (cell_id in self._results or cell_id in self._failures
                    or cell_id in self._quarantined):
                return  # duplicate report for a settled cell; ignore
            failure = self._make_failure(
                cell_id, kind, error=error, worker=name,
                attempts=self._attempts.get(cell_id, 0) + 1,
                traceback=message.get("traceback"),
            )
            self._failures[cell_id] = failure
            self._journal_event({"event": "failure",
                                 "key": self._keys[cell_id],
                                 "failure": failure.to_dict()})
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
                    self._journal_event({"event": "quarantine",
                                         "key": self._keys[cell_id],
                                         "failure": failure.to_dict()})
                    quarantined.append((cell_id, failure))
                else:
                    self._queue.appendleft(cell_id)
                    self._requeues += 1
                    self._journal_event({"event": "requeue",
                                         "key": self._keys[cell_id],
                                         "attempts": attempts})
                    requeued += 1
            finished = self._settled_locked() >= len(self._specs)
        self._disconnect(state.conn)
        if self.progress is not None:
            for _ in range(requeued):
                self.progress.requeued()
        for cell_id, failure in quarantined:
            self._notify_failure(cell_id, failure)
        if finished or (self.fail_fast and quarantined):
            self._done.set()

    def _monitor_loop(self):
        import time

        interval = max(0.05, min(1.0, self.heartbeat_timeout / 4.0))
        while not self._done.wait(interval):
            now = time.monotonic()
            with self._lock:
                stale = [
                    name for name, state in self._workers.items()
                    if now - state.last_seen > self.heartbeat_timeout
                ]
            for name in stale:
                self._drop_worker(name)

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

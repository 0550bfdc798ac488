"""Cluster worker: pull a cell, simulate it, report, repeat, survive.

:class:`ClusterWorker` is the client side of the protocol in
:mod:`repro.harness.cluster.protocol`.  It funnels every cell through
the same :func:`~repro.harness.parallel.simulate_cell` the serial and
pool backends use (and therefore through the content-addressed program
cache), so a cell simulates bit-identically wherever it runs.

A background thread heartbeats while the main thread is deep inside a
simulation, keeping the coordinator's liveness clock fresh; both
threads share the socket under one lock, preserving the protocol's
strict request/response pairing.

**Reconnect.**  A transient failure — connect refused, socket EOF, a
frame the network ate — no longer ends the worker: it reconnects with
capped exponential backoff plus deterministic jitter, up to
``max_reconnects`` attempts (0 keeps the historical die-on-first-blip
behaviour; ``python -m repro work`` defaults higher).  An explicit
*rejection* (``reject`` frame: protocol or model version mismatch) is
different — reconnecting cannot fix a version mismatch, so the worker
exits immediately with ``rejected`` set.

**Watchdog.**  With ``cell_timeout`` set, each simulation runs under a
wall-clock deadline on a helper thread; a hung cell becomes a
``timeout`` error frame instead of an immortal heartbeat (the worker
keeps heartbeating while hung, so without the watchdog the coordinator
would wait forever).

**Fault injection.**  A
:class:`~repro.harness.cluster.faults.FaultPlan` (``fault_plan=``) is
a seeded schedule of crashes, poison cells, frame drops/delays/
corruption, slow/hung cells, and late duplicate results, consulted at
the protocol seam.  A ``crash`` fault makes the worker abandon the
connection after a steal without reporting — exactly what a SIGKILL'd
or partitioned host looks like to the coordinator.  Chaos tests use it
to prove the final store is byte-identical to a fault-free serial run.
"""

import os
import random
import socket
import threading
import time
import traceback as traceback_module

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None

from repro.harness.cluster.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
    spec_from_wire,
)
from repro.harness.parallel import last_cell_diagnostics, simulate_cell
from repro.harness.store import MODEL_VERSION
from repro.obs import cell_telemetry
from repro.workloads.program_cache import cached_spec_program

#: Fraction of the coordinator's timeout at which workers heartbeat.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: First reconnect delay; doubles per attempt up to the cap.
DEFAULT_RECONNECT_BACKOFF = 0.25

#: Upper bound on one reconnect delay (before jitter).
RECONNECT_BACKOFF_CAP = 15.0


def default_worker_name():
    """``host-pid-tid``: unique per thread, readable in progress lines."""
    return "%s-%d-%d" % (socket.gethostname(), os.getpid(),
                         threading.get_ident() % 10_000)


class WorkerCrash(Exception):
    """Raised internally to simulate an abrupt worker death."""


class CoordinatorRejected(ConnectionError):
    """The coordinator explicitly refused us (version mismatch).

    Distinct from the coordinator *crashing*: a rejection is
    deterministic — the same hello gets the same refusal — so the
    reconnect/backoff loop must not retry it.
    """


class ClusterWorker:
    """One pull/simulate/report loop against a coordinator."""

    def __init__(self, host, port, name=None,
                 heartbeat_interval=DEFAULT_HEARTBEAT_INTERVAL,
                 max_cells=None,
                 connect_timeout=10.0, max_reconnects=0,
                 reconnect_backoff=DEFAULT_RECONNECT_BACKOFF,
                 cell_timeout=None, fault_plan=None):
        self.host = host
        self.port = int(port)
        self.name = name or default_worker_name()
        self.heartbeat_interval = heartbeat_interval
        self.max_cells = max_cells
        self.connect_timeout = connect_timeout
        self.max_reconnects = int(max_reconnects)
        self.reconnect_backoff = reconnect_backoff
        self.cell_timeout = cell_timeout
        self.fault_plan = fault_plan
        self.cells_completed = 0
        self.reconnects = 0  # reconnect attempts actually made
        self.timeouts = 0  # cells abandoned by the watchdog
        #: True when the coordinator vanished for good (reconnect budget
        #: exhausted) as opposed to a clean ``done``/``bye`` drain;
        #: ``last_error`` then holds the reason.
        self.disconnected = False
        #: True when the coordinator explicitly refused our hello
        #: (protocol or model version mismatch) — never retried.
        self.rejected = False
        self.last_error = None
        self._sock = None
        self._io_lock = threading.Lock()
        self._stop = threading.Event()
        self._reported = []  # (cell_id, result_dict) for duplicate faults
        # Deterministic jitter: the same worker name always draws the
        # same delays, so a seeded chaos run is replayable.
        self._jitter = random.Random("reconnect:%s" % self.name)

    # -- protocol plumbing ------------------------------------------------

    def _send(self, message):
        """Send one frame, letting the fault plan interfere first."""
        fault = (self.fault_plan.on_frame(self.name, message["kind"])
                 if self.fault_plan is not None else None)
        if fault is None:
            send_frame(self._sock, message)
        elif fault.kind == "delay_frame":
            time.sleep(float(fault.arg or 0.1))
            send_frame(self._sock, message)
        elif fault.kind == "corrupt_frame":
            from repro.harness.cluster.faults import send_corrupted

            send_corrupted(self._sock, message)
        else:  # drop_frame: the network ate it; tear the connection
            try:
                self._sock.close()
            except OSError:
                pass
            raise ConnectionError("injected frame drop")

    def _request(self, message):
        """One locked request/response exchange."""
        with self._io_lock:
            self._send(message)
            reply = recv_frame(self._sock)
        if reply is None:
            raise ConnectionError("coordinator closed the connection")
        if reply["kind"] == "reject":
            raise CoordinatorRejected(
                "coordinator rejected us: %s" % reply.get("error"))
        return reply

    def _heartbeat_loop(self, stop):
        while not stop.wait(self.heartbeat_interval):
            try:
                with self._io_lock:
                    send_frame(self._sock, {"kind": "heartbeat"})
                    reply = recv_frame(self._sock)
                if reply is None:
                    return
            except (OSError, ConnectionError):
                return

    # -- main loop --------------------------------------------------------

    def run(self):
        """Work until the coordinator drains; returns cells completed.

        Transient connection failures (connect refused, EOF, protocol
        noise) trigger reconnect with capped exponential backoff +
        jitter up to ``max_reconnects``; an explicit rejection or an
        injected crash ends the worker immediately.
        """
        while True:
            try:
                return self._session()
            except WorkerCrash:
                # Die like a killed process: no bye, no report, just a
                # vanished connection for the coordinator to detect.
                return self.cells_completed
            except CoordinatorRejected as exc:
                # Deterministic refusal (another protocol or model
                # version): retrying the same hello cannot succeed —
                # exit now so the operator sees the reason instead of
                # a stuck backoff loop.
                self.rejected = True
                self.disconnected = True
                self.last_error = str(exc)
                return self.cells_completed
            except (OSError, ConnectionError, ProtocolError) as exc:
                self.last_error = str(exc)
                if self.reconnects >= self.max_reconnects:
                    self.disconnected = True
                    return self.cells_completed
                self.reconnects += 1
                delay = min(RECONNECT_BACKOFF_CAP,
                            self.reconnect_backoff
                            * (2 ** (self.reconnects - 1)))
                # 0.5x..1.5x jitter, deterministic per worker name.
                time.sleep(delay * (0.5 + self._jitter.random()))

    def _session(self):
        """One connect/hello/steal-loop lifetime against the coordinator."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout)
        self._sock.settimeout(None)
        stop = threading.Event()
        self._stop = stop
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     args=(stop,), daemon=True)
        try:
            self._request({
                "kind": "hello",
                "worker": self.name,
                "protocol": PROTOCOL_VERSION,
                # The coordinator refuses us unless this matches its
                # own: it stores our results under keys hashed with
                # its model version.
                "model_version": MODEL_VERSION,
            })
            heartbeat.start()
            while True:
                reply = self._request({"kind": "steal"})
                kind = reply["kind"]
                if kind == "done":
                    try:
                        self._request({"kind": "bye"})
                    except (OSError, ConnectionError):
                        pass
                    return self.cells_completed
                if kind == "wait":
                    time.sleep(float(reply.get("seconds", 0.05)))
                    continue
                # kind == "cell"
                self._maybe_crash(reply)
                self._run_cell(reply)
                if (self.max_cells is not None
                        and self.cells_completed >= self.max_cells):
                    try:
                        self._request({"kind": "bye"})
                    except (OSError, ConnectionError):
                        pass
                    return self.cells_completed
        finally:
            stop.set()
            try:
                self._sock.close()
            except OSError:
                pass

    def _maybe_crash(self, reply):
        if self.fault_plan is not None:
            fault = self.fault_plan.on_steal(self.name)
            if fault is not None:
                raise WorkerCrash(
                    "injected crash after %d steal(s)" % fault.at)
            benchmark = reply["spec"].get("benchmark")
            if self.fault_plan.poisoned(benchmark):
                raise WorkerCrash(
                    "poison cell %r killed this worker" % benchmark)

    # -- simulation -------------------------------------------------------

    def _simulate_guarded(self, spec):
        """Simulate under the optional watchdog deadline.

        Returns ``(result, None)`` or ``(None, (kind, message,
        traceback))``.  Without ``cell_timeout`` the simulation runs
        inline; with it, a helper thread simulates while this thread
        waits out the wall-clock budget — a hang becomes a ``timeout``
        failure while the heartbeat thread keeps liveness honest.  The
        abandoned helper thread (daemon) cannot be killed, but its late
        result is discarded, never reported.
        """
        fault = (self.fault_plan.on_cell(self.name)
                 if self.fault_plan is not None else None)
        delay = float(fault.arg or 0.0) if fault is not None else 0.0
        if self.cell_timeout is None:
            try:
                if delay:
                    time.sleep(delay)
                result = simulate_cell(spec)
                return result, None, last_cell_diagnostics()
            except Exception as exc:
                return None, ("deterministic",
                              "%s: %s" % (type(exc).__name__, exc),
                              traceback_module.format_exc()), None
        box = {}

        def _target():
            try:
                if delay:
                    time.sleep(delay)
                box["result"] = simulate_cell(spec)
                # Diagnostics are thread-local: read them here, on the
                # thread that simulated, not from the waiting caller.
                box["diagnostics"] = last_cell_diagnostics()
            except BaseException as exc:
                box["error"] = "%s: %s" % (type(exc).__name__, exc)
                box["traceback"] = traceback_module.format_exc()

        thread = threading.Thread(target=_target, daemon=True)
        thread.start()
        thread.join(self.cell_timeout)
        if thread.is_alive():
            self.timeouts += 1
            return None, ("timeout",
                          "cell exceeded the %.1fs wall-clock deadline"
                          % self.cell_timeout, None), None
        if "error" in box:
            return None, ("deterministic", box["error"],
                          box["traceback"]), None
        return box["result"], None, box.get("diagnostics")

    @staticmethod
    def _peak_rss_kb():
        """Process-lifetime peak RSS in KiB (``None`` off POSIX).

        ``ru_maxrss`` is kibibytes on Linux; platforms reporting bytes
        (macOS) inflate the number, which is fine for a monotonic
        per-worker high-water mark.
        """
        if resource is None:  # pragma: no cover - non-POSIX hosts
            return None
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _run_cell(self, reply):
        cell_id = reply["cell_id"]
        spec = spec_from_wire(reply["spec"])
        start = time.perf_counter()
        result, failure, diagnostics = self._simulate_guarded(spec)
        wall = time.perf_counter() - start
        if failure is not None:
            kind, message, trace = failure
            frame = {"kind": "error", "cell_id": cell_id, "error": message,
                     "failure_kind": kind}
            if trace:
                frame["traceback"] = trace
            self._request(frame)
            return
        # Telemetry rides beside the result, never inside it: stored
        # results must stay byte-identical across backends and runs.
        # The memory image travels as the words the cell changed.
        benchmark, _config, _scheme, _kwargs, scale, seed = spec
        program = cached_spec_program(benchmark, scale=scale, seed=seed)
        frame = {"kind": "result", "cell_id": cell_id,
                 "result": result.to_dict(program),
                 "telemetry": cell_telemetry(
                     result, wall, peak_rss_kb=self._peak_rss_kb(),
                     diagnostics=diagnostics)}
        self._request(frame)
        self.cells_completed += 1
        if self.fault_plan is not None:
            self._reported.append((cell_id, frame["result"]))
            if self.fault_plan.on_report(self.name) is not None:
                # Late duplicate: re-send our first result, exactly the
                # race a requeue-then-slow-worker produces.  The
                # coordinator must ack and drop it (first wins).
                dup_id, dup_result = self._reported[0]
                self._request({"kind": "result", "cell_id": dup_id,
                               "result": dup_result})


def run_worker(host, port, **kwargs):
    """Convenience wrapper: build a worker, run it, return cells done."""
    return ClusterWorker(host, port, **kwargs).run()

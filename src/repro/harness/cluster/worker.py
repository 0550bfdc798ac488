"""Cluster worker: pull a cell, simulate it, report, repeat.

:class:`ClusterWorker` is the client side of the protocol in
:mod:`repro.harness.cluster.protocol`.  It funnels every cell through
the same :func:`~repro.harness.parallel.simulate_cell` the serial and
pool backends use (and therefore through the content-addressed program
cache), so a cell simulates bit-identically wherever it runs.

A worker runs one connection.  Any failure of it — connect refused,
socket EOF, a frame that did not arrive or did not decode — ends the
worker; the coordinator sees the same EOF and requeues whatever the
worker held.  An explicit *rejection* (``reject`` frame: protocol or
model version mismatch) also ends it, with ``rejected`` set.  A hung
cell needs no wall-clock deadline here: the kernel's watchdog and
``max_cycles`` raise inside the cell, which reports as an ``error``.

**Fault injection.**  A
:class:`~repro.harness.cluster.faults.FaultPlan` (``fault_plan=``) is
a seeded schedule of crashes, poison cells, frame drops/delays/
corruption, slow cells, and late duplicate results, consulted at
the protocol seam.  A ``crash`` fault makes the worker abandon the
connection after a steal without reporting — exactly what a killed
worker looks like to the coordinator.  Chaos tests use it to prove
the final store is byte-identical to a fault-free serial run.
"""

import socket
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

#: Seconds to wait for the coordinator to accept the connection.
CONNECT_TIMEOUT = 10.0


class WorkerCrash(Exception):
    """Raised internally to simulate an abrupt worker death."""


class CoordinatorRejected(ConnectionError):
    """The coordinator explicitly refused us (version mismatch)."""


class ClusterWorker:
    """One pull/simulate/report loop against a coordinator."""

    def __init__(self, host, port, name, fault_plan=None):
        self.host = host
        self.port = int(port)
        self.name = name
        self.fault_plan = fault_plan
        self.cells_completed = 0
        #: True when the coordinator explicitly refused our hello
        #: (protocol or model version mismatch).
        self.rejected = False
        #: Why the connection ended, when it did not end in a clean
        #: ``done``/``bye`` drain.
        self.last_error = None
        self._sock = None
        self._reported = []  # (cell_id, result_dict) for duplicate faults

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
        else:  # drop_frame: the frame is lost; tear the connection
            try:
                self._sock.close()
            except OSError:
                pass
            raise ConnectionError("injected frame drop")

    def _request(self, message):
        """One request/response exchange."""
        self._send(message)
        reply = recv_frame(self._sock)
        if reply is None:
            raise ConnectionError("coordinator closed the connection")
        if reply["kind"] == "reject":
            raise CoordinatorRejected(
                "coordinator rejected us: %s" % reply.get("error"))
        return reply

    # -- main loop --------------------------------------------------------

    def run(self):
        """Work until the coordinator drains; returns cells completed.

        A failed connection or an explicit rejection ends the worker
        (``last_error`` says why); so does an injected crash.
        """
        try:
            return self._session()
        except WorkerCrash:
            # Die like a killed process: no bye, no report, just a
            # vanished connection for the coordinator to detect.
            pass
        except CoordinatorRejected as exc:
            self.rejected = True
            self.last_error = str(exc)
        except (OSError, ProtocolError) as exc:
            self.last_error = str(exc)
        return self.cells_completed

    def _session(self):
        """One connect/hello/steal-loop lifetime against the coordinator."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT)
        self._sock.settimeout(None)
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
            while True:
                reply = self._request({"kind": "steal"})
                kind = reply["kind"]
                if kind == "done":
                    try:
                        self._request({"kind": "bye"})
                    except OSError:
                        pass
                    return self.cells_completed
                if kind == "wait":
                    time.sleep(float(reply.get("seconds", 0.05)))
                    continue
                # kind == "cell"
                self._maybe_crash(reply)
                self._run_cell(reply)
        finally:
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

    def _simulate(self, spec):
        """``(result, None, diagnostics)``, or ``(None, (message,
        traceback), None)`` when the simulation raised."""
        fault = (self.fault_plan.on_cell(self.name)
                 if self.fault_plan is not None else None)
        try:
            if fault is not None:
                time.sleep(float(fault.arg or 0.0))
            result = simulate_cell(spec)
            return result, None, last_cell_diagnostics()
        except Exception as exc:
            return None, ("%s: %s" % (type(exc).__name__, exc),
                          traceback_module.format_exc()), None

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
        result, failure, diagnostics = self._simulate(spec)
        wall = time.perf_counter() - start
        if failure is not None:
            message, trace = failure
            self._request({"kind": "error", "cell_id": cell_id,
                           "error": message, "traceback": trace})
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

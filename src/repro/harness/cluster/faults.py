"""Seeded chaos: deterministic fault schedules for the cluster.

:class:`FaultPlan` is a schedule of injected failures, consulted at
the protocol seam (the worker's send path, its cell loop, and the
coordinator's result path).  A plan is *data*: an explicit list
of :class:`Fault` entries, or a random-but-seeded schedule from
:meth:`FaultPlan.random` — the same seed always produces the same
schedule, so a chaos run that exposes a bug is replayable verbatim.

Fault kinds and where they fire:

``crash``
    The worker raises :class:`~repro.harness.cluster.worker.WorkerCrash`
    after its *at*-th steal — a killed worker: no report, no ``bye``,
    just a vanished connection for the coordinator to requeue against.
``poison_cell``
    Every worker that steals the benchmark named by ``arg`` crashes
    (*not* one-shot): the deterministic worker-killer the coordinator's
    quarantine exists for.
``drop_frame``
    The worker's *at*-th substantive frame (steal/result/error) is not
    sent and the connection is torn down: the worker ends, and the
    coordinator requeues any cell it held.
``delay_frame``
    The frame is sent ``arg`` seconds late (default 0.1).
``corrupt_frame``
    The frame's payload bytes are garbled (length prefix intact); the
    coordinator's framing layer rejects it and drops the worker, which
    ends; any cell it held is requeued.
``slow_cell``
    The worker's *at*-th simulation sleeps ``arg`` seconds first.
``duplicate_result``
    After its *at*-th completed cell the worker re-sends its first
    result frame — the late-duplicate race the coordinator's
    first-result-wins rule must absorb.
``kill_coordinator``
    The coordinator closes abruptly once its *at*-th result is
    persisted (its ``on_result`` returned): the crash that re-running
    the campaign against the same store recovers from.

Determinism contract: the *schedule* is deterministic, the
*interleaving* is not (work stealing races by design) — so chaos tests
assert on the final :class:`~repro.harness.store.ResultStore` being
byte-identical to a fault-free serial run, never on which worker did
what.
"""

import random
import threading

from repro.harness.cluster.protocol import _LENGTH, frame_payload

#: Every fault kind a plan may schedule.
FAULT_KINDS = (
    "crash",
    "poison_cell",
    "drop_frame",
    "delay_frame",
    "corrupt_frame",
    "slow_cell",
    "duplicate_result",
    "kill_coordinator",
)

#: Frame kinds that advance a worker's frame counter (faulting a
#: ``hello`` or ``bye`` proves nothing about a cell).
_COUNTED_FRAMES = ("steal", "result", "error")


class Fault:
    """One scheduled fault: *kind* fires at the *at*-th event of *worker*.

    ``worker=None`` matches any worker (first to reach the count wins);
    ``at`` counts steals for ``crash``, substantive sent frames for the
    frame kinds, started simulations for ``slow_cell``, completed
    reports for ``duplicate_result``, and persisted results for
    ``kill_coordinator``.  ``arg`` is kind-specific (seconds, benchmark
    name).  All faults are one-shot except ``poison_cell``.
    """

    __slots__ = ("kind", "worker", "at", "arg")

    def __init__(self, kind, worker=None, at=1, arg=None):
        if kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (choose from %s)"
                % (kind, ", ".join(FAULT_KINDS))
            )
        self.kind = kind
        self.worker = worker
        self.at = int(at)
        self.arg = arg

    def __repr__(self):
        return "Fault(%r, worker=%r, at=%d, arg=%r)" % (
            self.kind, self.worker, self.at, self.arg)


class FaultPlan:
    """A deterministic schedule of :class:`Fault` entries.

    Thread-safe: workers on many threads consult one shared plan; each
    (worker, counter-domain) pair advances independently, and a fault
    fires exactly once (``poison_cell`` excepted).
    """

    def __init__(self, faults=()):
        self.faults = list(faults)
        self._lock = threading.Lock()
        self._counts = {}  # (worker, domain) -> events seen
        self._fired = set()  # indices of one-shot faults already fired
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise TypeError("FaultPlan takes Fault entries, got %r"
                                % (fault,))

    # -- construction -----------------------------------------------------

    @classmethod
    def random(cls, seed, workers, cells, crashes=1, frame_faults=1,
               slow_cells=1, duplicates=0, coordinator_kills=0,
               slow_seconds=0.2):
        """A random-but-seeded plan over ``workers`` and ``cells`` cells.

        The same ``(seed, workers, cells, ...)`` arguments always build
        the same schedule.  Positions are drawn uniformly over the
        first ``cells`` events of each counter, so every fault can
        actually fire on a grid of that size.
        """
        rng = random.Random(seed)
        workers = list(workers)
        span = max(1, int(cells))
        faults = []
        for _ in range(crashes):
            faults.append(Fault("crash", worker=rng.choice(workers),
                                at=rng.randint(1, span)))
        for _ in range(frame_faults):
            kind = rng.choice(("drop_frame", "delay_frame",
                               "corrupt_frame"))
            faults.append(Fault(kind, worker=rng.choice(workers),
                                at=rng.randint(1, span),
                                arg=0.05 if kind == "delay_frame" else None))
        for _ in range(slow_cells):
            faults.append(Fault("slow_cell", worker=rng.choice(workers),
                                at=rng.randint(1, span), arg=slow_seconds))
        for _ in range(duplicates):
            faults.append(Fault("duplicate_result",
                                worker=rng.choice(workers),
                                at=rng.randint(1, span)))
        for _ in range(coordinator_kills):
            faults.append(Fault("kill_coordinator",
                                at=rng.randint(1, span)))
        return cls(faults)

    def add(self, fault):
        """Append one fault (before the plan is in use)."""
        self.faults.append(fault)
        return self

    def describe(self):
        """One line per scheduled fault, stable order."""
        return "\n".join(repr(fault) for fault in self.faults)

    # -- matching machinery -----------------------------------------------

    def _bump(self, worker, domain):
        key = (worker, domain)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            return self._counts[key]

    def _match(self, kinds, worker, count):
        with self._lock:
            for index, fault in enumerate(self.faults):
                if index in self._fired or fault.kind not in kinds:
                    continue
                if fault.worker is not None and fault.worker != worker:
                    continue
                if fault.at != count:
                    continue
                self._fired.add(index)
                return fault
        return None

    def fired(self):
        """Faults that have fired so far (for test assertions)."""
        with self._lock:
            return [self.faults[i] for i in sorted(self._fired)]

    # -- worker seams -----------------------------------------------------

    def on_steal(self, worker):
        """Crash fault due at this worker's Nth steal, or None."""
        return self._match(("crash",), worker, self._bump(worker, "steal"))

    def poisoned(self, benchmark):
        """True when stealing ``benchmark`` must crash any worker."""
        return any(fault.kind == "poison_cell" and fault.arg == benchmark
                   for fault in self.faults)

    def on_frame(self, worker, kind):
        """Frame fault due for this outgoing frame, or None."""
        if kind not in _COUNTED_FRAMES:
            return None
        count = self._bump(worker, "frame")
        return self._match(("drop_frame", "delay_frame", "corrupt_frame"),
                           worker, count)

    def on_cell(self, worker):
        """Slow-cell fault due for this worker's Nth simulation, or None."""
        return self._match(("slow_cell",), worker,
                           self._bump(worker, "cell"))

    def on_report(self, worker):
        """Duplicate-result fault due after this worker's Nth report."""
        return self._match(("duplicate_result",), worker,
                           self._bump(worker, "report"))

    # -- coordinator seam -------------------------------------------------

    def on_result_recorded(self, persisted):
        """True when the coordinator must die once this many results
        are persisted (their ``on_result`` callbacks have returned)."""
        return self._match(("kill_coordinator",), "coordinator",
                           persisted) is not None


def send_corrupted(sock, message):
    """Send ``message`` as a frame whose payload bytes are garbled.

    The length prefix is correct, so the receiver reads the full
    payload and fails *decoding* it (invalid UTF-8) — a clean
    :class:`~repro.harness.cluster.protocol.ProtocolError`, exactly
    what bit-rot in flight looks like above TCP.
    """
    payload = bytearray(frame_payload(message))
    payload[0] = 0xFF  # invalid UTF-8 start byte: undecodable
    sock.sendall(_LENGTH.pack(len(payload)) + bytes(payload))

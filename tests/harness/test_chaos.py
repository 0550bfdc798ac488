"""Seeded chaos: deterministic fault schedules, store equivalence.

The determinism contract under test: the fault *schedule* is seeded
and replayable, the interleaving is not — so every chaos campaign must
end with a :class:`~repro.harness.store.ResultStore` logically
identical to a fault-free serial run — every cell's stored envelope
(key, model version, meta, full result payload) byte-for-byte equal
once canonicalised — whatever crashed, hung, or got eaten by the
network along the way.  (The database's pages depend on the order
rows were written, which depends on the interleaving, so equivalence
is asserted at the envelope level, where the store contract actually
lives.)  The pool
backend's chaos case, a worker process that dies, lives here too.
"""

import json
import os
import pathlib
import socket
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.harness.cluster import (
    PROTOCOL_VERSION,
    ClusterCoordinator,
    ClusterExecutor,
    ClusterWorker,
    Fault,
    FaultPlan,
    recv_frame,
    send_frame,
    spec_from_wire,
)
from repro.harness.executor import PoolExecutor
from repro.harness.runner import CampaignRunner
from repro.harness.store import MODEL_VERSION, ResultStore
from repro.isa.registers import NUM_ARCH_REGS
from repro.pipeline.config import SMALL
from repro.pipeline.core import SimulationResult
from repro.pipeline.stats import SimStats

SUBSET = ("503.bwaves", "548.exchange2")
SCALE = 0.05


def store_bytes(root):
    """``{key: canonical envelope bytes}`` of every cell in a store."""
    store = ResultStore(root)
    return {key: json.dumps(store.load_envelope(key),
                            sort_keys=True).encode("utf-8")
            for key in store.keys()}


def serial_store(tmp_path):
    """A fault-free serial campaign; returns its store's bytes."""
    root = tmp_path / "serial"
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(root))
    summary = runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"))
    assert summary["simulated"] == 4 and summary["failed"] == 0
    return store_bytes(root)


# ----------------------------------------------------------------------
# FaultPlan: seeded schedules are data.
# ----------------------------------------------------------------------

def test_fault_plan_random_is_deterministic():
    build = lambda seed: FaultPlan.random(
        seed, workers=("w1", "w2", "w3"), cells=8, crashes=2,
        frame_faults=2, slow_cells=1, duplicates=1, coordinator_kills=1)
    assert build(7).describe() == build(7).describe()
    assert build(7).describe() != build(8).describe()
    plan = build(7)
    assert len(plan.faults) == 7
    kinds = {fault.kind for fault in plan.faults}
    assert "crash" in kinds and "slow_cell" in kinds
    assert "duplicate_result" in kinds and "kill_coordinator" in kinds


def test_fault_plan_counters_and_one_shot():
    plan = FaultPlan([Fault("crash", worker="w1", at=2),
                      Fault("drop_frame", at=1),
                      Fault("poison_cell", arg="503.bwaves")])
    # Counters are per (worker, domain): w2's steals never advance w1's.
    assert plan.on_steal("w2") is None
    assert plan.on_steal("w1") is None  # w1's 1st steal; fault is at 2
    fault = plan.on_steal("w1")
    assert fault is not None and fault.kind == "crash"
    assert plan.on_steal("w1") is None  # one-shot: never fires again
    # Frame faults only count substantive frames.
    assert plan.on_frame("w1", "bye") is None
    assert plan.on_frame("w1", "steal").kind == "drop_frame"
    # poison_cell is a predicate, not a counter: it always applies.
    assert plan.poisoned("503.bwaves") and plan.poisoned("503.bwaves")
    assert not plan.poisoned("548.exchange2")
    assert {fault.kind for fault in plan.fired()} == {"crash", "drop_frame"}


def test_fault_plan_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Fault("gremlins")
    with pytest.raises(TypeError):
        FaultPlan(["not-a-fault"])


# ----------------------------------------------------------------------
# Chaos equivalence: faults may cost time, never results.
# ----------------------------------------------------------------------

def test_chaos_smoke_store_equivalence(tmp_path):
    """CI's chaos canary: 1 worker crash, 1 slow cell, 1 dropped frame
    under a fixed seed — the chaotic store must be byte-identical to
    the fault-free serial one."""
    expected = serial_store(tmp_path)

    workers = ("local-1", "local-2", "local-3")
    plan = FaultPlan.random(2017, workers=workers, cells=4,
                            crashes=1, frame_faults=1, slow_cells=1,
                            slow_seconds=0.2)
    # Pin the frame fault to a drop (the seeded draw may pick delay or
    # corrupt; the smoke test wants the harshest one deterministically).
    plan.faults[1] = Fault("drop_frame", worker=plan.faults[1].worker,
                           at=plan.faults[1].at)
    chaos_root = tmp_path / "chaos"
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(chaos_root))
    executor = ClusterExecutor(local_workers=3, wait_timeout=120,
                               fault_plan=plan)
    summary = runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                              executor=executor)
    assert summary["simulated"] == 4 and summary["failed"] == 0
    assert store_bytes(chaos_root) == expected
    assert ResultStore(chaos_root).failures() == []


def test_chaos_with_duplicates_and_corruption(tmp_path):
    expected = serial_store(tmp_path)

    plan = FaultPlan([
        Fault("crash", worker="local-1", at=1),
        Fault("corrupt_frame", worker="local-2", at=3),
        Fault("delay_frame", worker="local-3", at=2, arg=0.05),
        Fault("duplicate_result", worker="local-2", at=1),
        Fault("slow_cell", worker="local-3", at=1, arg=0.1),
    ])
    chaos_root = tmp_path / "chaos"
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(chaos_root))
    executor = ClusterExecutor(local_workers=3, wait_timeout=120,
                               fault_plan=plan)
    summary = runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                              executor=executor)
    assert summary["failed"] == 0
    assert store_bytes(chaos_root) == expected


def test_coordinator_kill_and_resume_completes_campaign(tmp_path):
    """The big one: the coordinator dies mid-campaign (injected kill
    after the 2nd persisted result), and running the same grid again
    against the same store finishes the job — the store is all the
    resume state there is.  The final store is byte-identical to a
    fault-free serial run."""
    expected = serial_store(tmp_path)

    chaos_root = tmp_path / "chaos"
    plan = FaultPlan([Fault("kill_coordinator", at=2)])
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(chaos_root))
    executor = ClusterExecutor(local_workers=2, wait_timeout=120,
                               fault_plan=plan)
    with pytest.raises(RuntimeError, match="incomplete|timed out"):
        runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                        executor=executor)
    assert plan.fired()
    partial = store_bytes(chaos_root)
    assert len(partial) >= 2  # streamed results survived the crash

    # The same grid again on the same store: the runner loads what the
    # store holds and simulates only the rest.
    rerun = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                           store=ResultStore(chaos_root))
    summary = rerun.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                             executor=ClusterExecutor(local_workers=2,
                                                      wait_timeout=120))
    assert summary["failed"] == 0
    # A result in flight at the kill may still have streamed into the
    # store after our snapshot, so >=; either way nothing re-simulates
    # what the store already holds and every cell ends up settled.
    assert summary["from_store"] >= len(partial)
    assert summary["from_store"] + summary["simulated"] == 4
    assert store_bytes(chaos_root) == expected


def test_healthy_pool_store_equals_serial(tmp_path):
    """Pool workers send each result as the record the store holds; the
    parent decodes it against its own copy of the program and stores
    it again, to the bytes a serial campaign stores."""
    expected = serial_store(tmp_path)
    root = tmp_path / "pool"
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(root))
    summary = runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                              executor=PoolExecutor(jobs=2))
    assert summary["simulated"] == 4 and summary["failed"] == 0
    assert store_bytes(root) == expected


#: Runs a 4-cell grid on a 2-process pool into the store at argv[1],
#: with the last cell killing its worker process.
_DYING_POOL_SCRIPT = textwrap.dedent("""
    import os
    import sys
    from concurrent.futures.process import BrokenProcessPool

    from repro.harness import parallel
    from repro.harness.executor import PoolExecutor
    from repro.harness.runner import CampaignRunner
    from repro.harness.store import ResultStore
    from repro.pipeline.config import SMALL

    simulate = parallel.simulate_cell

    def dying(spec):
        if spec[0] == "548.exchange2" and spec[2] == "nda":
            os._exit(3)
        return simulate(spec)

    parallel.simulate_cell = dying
    runner = CampaignRunner(scale=%r, benchmarks=%r,
                            store=ResultStore(sys.argv[1]))
    try:
        runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                        executor=PoolExecutor(jobs=2))
    except BrokenProcessPool:
        sys.exit(0)
    sys.exit("the grid survived a dead pool worker")
""" % (SCALE, SUBSET))


def test_dead_pool_worker_raises_and_rerun_completes(tmp_path):
    """A pool worker process that dies must end the campaign with
    ``BrokenProcessPool``, not leave it waiting forever for the lost
    cell; re-running the grid serially on the same store then loads
    what streamed in and simulates only the rest."""
    expected = serial_store(tmp_path)

    root = tmp_path / "pool"
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _DYING_POOL_SCRIPT, str(root)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=30)
    assert completed.returncode == 0, completed.stderr[-4000:]

    streamed = len(ResultStore(root))
    assert streamed < 4  # the dying cell never reached the store
    rerun = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                           store=ResultStore(root))
    summary = rerun.run_grid(configs=(SMALL,), schemes=("baseline", "nda"))
    assert summary["from_store"] == streamed
    assert summary["simulated"] == 4 - streamed
    assert store_bytes(root) == expected


def _specs():
    return [(benchmark, SMALL, scheme, (), SCALE, 2017)
            for scheme in ("baseline", "nda") for benchmark in SUBSET]


def test_kill_waits_for_results_still_being_persisted():
    """The kill counts results whose ``on_result`` returned: a result
    recorded first but still being written when a second one lands is
    in the store before the coordinator dies."""
    persisted = {}
    calls = []
    second = threading.Event()
    lock = threading.Lock()

    def on_result(cell_id, result):
        with lock:
            calls.append(cell_id)
            first = len(calls) == 1
        if first:
            # The slow store write: still running when the next result
            # is recorded and persisted.
            second.wait(timeout=60)
            time.sleep(0.5)
        else:
            second.set()
        persisted[cell_id] = result

    plan = FaultPlan([Fault("kill_coordinator", at=2)])
    coordinator = ClusterCoordinator(_specs(), on_result=on_result,
                                     fault_plan=plan).start()
    threads = []
    try:
        host, port = coordinator.address
        for index in range(2):
            worker = ClusterWorker(host, port, name="local-%d" % index)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            threads.append(thread)
        assert coordinator.wait(timeout=120)
        assert plan.fired()
        assert len(persisted) >= 2
    finally:
        coordinator.close()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()


def test_closed_coordinator_takes_late_result_and_drop(monkeypatch):
    """After ``close`` a serve thread may still settle a late result
    or drop its worker: neither may raise."""
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    coordinator = ClusterCoordinator(_specs()).start()
    conn = socket.create_connection(coordinator.address, timeout=5)
    try:
        send_frame(conn, {"kind": "hello", "worker": "late",
                          "protocol": PROTOCOL_VERSION,
                          "model_version": MODEL_VERSION})
        assert recv_frame(conn)["kind"] == "welcome"
        send_frame(conn, {"kind": "steal"})
        cell = recv_frame(conn)
        assert cell["kind"] == "cell"

        coordinator.close()  # cuts the socket: its serve thread drops
        spec = spec_from_wire(cell["spec"])
        late = SimulationResult(
            program_name=spec[0], scheme_name=spec[2],
            config_name=spec[1].name, stats=SimStats(),
            regs=[0] * NUM_ARCH_REGS, memory={}, halted=True)
        coordinator._complete("late", cell["cell_id"], late.to_dict())
        for thread in coordinator._threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        conn.close()
    assert raised == []


def test_persisted_count_is_exact_under_concurrent_results():
    """Many connections persisting at once: the kill due at the last
    result fires only if no increment of the persisted count was lost."""
    specs = [(benchmark, SMALL, "baseline", (), SCALE, seed)
             for seed in range(20) for benchmark in SUBSET]
    plan = FaultPlan([Fault("kill_coordinator", at=len(specs))])
    coordinator = ClusterCoordinator(specs, fault_plan=plan).start()

    def fake_worker(name):
        # Steals and reports at once: no simulation, so results from
        # every connection contend for the coordinator.
        conn = socket.create_connection(coordinator.address, timeout=30)
        try:
            send_frame(conn, {"kind": "hello", "worker": name,
                              "protocol": PROTOCOL_VERSION,
                              "model_version": MODEL_VERSION})
            recv_frame(conn)
            while True:
                send_frame(conn, {"kind": "steal"})
                reply = recv_frame(conn)
                if reply is None or reply["kind"] != "cell":
                    break
                spec = spec_from_wire(reply["spec"])
                result = SimulationResult(
                    program_name=spec[0], scheme_name=spec[2],
                    config_name=spec[1].name, stats=SimStats(),
                    regs=[0] * NUM_ARCH_REGS, memory={}, halted=True)
                send_frame(conn, {"kind": "result",
                                  "cell_id": reply["cell_id"],
                                  "result": result.to_dict()})
                recv_frame(conn)
        except OSError:
            pass  # the kill cut the connection
        finally:
            conn.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=fake_worker, args=("fake-%d" % i,))
               for i in range(6)]
    try:
        for thread in threads:
            thread.start()
        assert coordinator.wait(timeout=60)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        coordinator.close()
    assert coordinator.stats()["completed"] == len(specs)
    assert plan.fired()

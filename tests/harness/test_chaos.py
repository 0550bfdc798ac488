"""Failure smoke: dead workers and store equivalence.

The contract under test: whichever backend simulates a campaign, and
however it was interrupted and resumed, it must end with a
:class:`~repro.harness.store.ResultStore` logically identical to a
serial run — every cell's stored envelope (key, model version, meta,
full result payload) byte-for-byte equal once canonicalised.  (The
database's pages depend on the order rows were written, which depends
on thread and process interleaving, so equivalence is asserted at the
envelope level, where the store contract actually lives.)  A worker
that dies — a cluster worker thread or a pool worker process — must
end the campaign with an error instead of a hang, and running the
campaign again against the same store must complete it.
"""

import json
import os
import pathlib
import socket
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.harness.cluster import (
    ClusterCoordinator,
    ClusterExecutor,
    recv_frame,
    send_frame,
    spec_from_wire,
)
from repro.harness.cluster import worker
from repro.harness.executor import PoolExecutor
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.isa.registers import NUM_ARCH_REGS
from repro.pipeline.config import SMALL
from repro.pipeline.core import SimulationResult
from repro.pipeline.stats import SimStats
from tests.conftest import bounded

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


def grid(root, executor=None):
    """The 4-cell grid into the store at ``root``; returns its summary."""
    runner = CampaignRunner(scale=SCALE, benchmarks=SUBSET,
                            store=ResultStore(root))
    return bounded(lambda: runner.run_grid(
        configs=(SMALL,), schemes=("baseline", "nda"), executor=executor))


# ----------------------------------------------------------------------
# Cluster: three workers, or one that dies, end where serial does.
# ----------------------------------------------------------------------

def test_three_local_workers_store_equals_serial(tmp_path):
    """Three worker threads stealing from one queue leave the store a
    serial campaign leaves."""
    expected = serial_store(tmp_path)
    root = tmp_path / "cluster"
    summary = grid(root, ClusterExecutor(local_workers=3))
    assert summary["simulated"] == 4 and summary["failed"] == 0
    assert store_bytes(root) == expected
    assert ResultStore(root).failures() == []


class WorkerDeath(BaseException):
    """Escapes the worker's per-cell error handling, as a crash would."""


def test_dead_worker_thread_aborts_and_rerun_completes(tmp_path,
                                                       monkeypatch):
    """A worker thread that dies mid-campaign makes ``run`` raise,
    naming it; the cells that streamed into the store stay, and the
    same grid again simulates only the rest."""
    expected = serial_store(tmp_path)
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    simulate = worker.simulate_cell

    def dying(spec):
        if spec[0] == "548.exchange2" and spec[2] == "nda":
            raise WorkerDeath()
        return simulate(spec)

    monkeypatch.setattr(worker, "simulate_cell", dying)
    root = tmp_path / "cluster"
    with pytest.raises(RuntimeError, match=r"worker local-[12] ended"
                                           r" holding cell 3 \(548.exchange2"
                                           r"/small/nda\)"):
        grid(root, ClusterExecutor(local_workers=2))
    assert [type(args.exc_value) for args in died] == [WorkerDeath]
    streamed = len(ResultStore(root))
    assert 1 <= streamed < 4  # the dying cell never reached the store
    assert ResultStore(root).failures() == []

    monkeypatch.setattr(worker, "simulate_cell", simulate)
    summary = grid(root, ClusterExecutor(local_workers=2))
    assert summary["from_store"] == streamed
    assert summary["simulated"] == 4 - streamed
    assert summary["failed"] == 0
    assert store_bytes(root) == expected


def test_raising_cell_settles_deterministic_and_rerun_clears_it(
        tmp_path, monkeypatch):
    """A cell whose simulation raises costs that cell: it settles as a
    ``deterministic`` failure record in the store, the rest of the grid
    completes, and a later campaign retries it and clears the
    record."""
    expected = serial_store(tmp_path)
    simulate = worker.simulate_cell

    def raising(spec):
        if spec[0] == "503.bwaves" and spec[2] == "nda":
            raise ValueError("model bug")
        return simulate(spec)

    monkeypatch.setattr(worker, "simulate_cell", raising)
    root = tmp_path / "cluster"
    summary = grid(root, ClusterExecutor(local_workers=2))
    assert summary["simulated"] == 3 and summary["failed"] == 1
    (failure,) = ResultStore(root).failures()
    assert failure.kind == "deterministic"
    assert (failure.benchmark, failure.scheme_name) == ("503.bwaves", "nda")
    assert failure.error == "ValueError: model bug"
    assert "model bug" in failure.traceback

    monkeypatch.setattr(worker, "simulate_cell", simulate)
    summary = grid(root, ClusterExecutor(local_workers=2))
    assert summary["from_store"] == 3 and summary["simulated"] == 1
    assert ResultStore(root).failures() == []
    assert store_bytes(root) == expected


# ----------------------------------------------------------------------
# Pool: the same contract across processes.
# ----------------------------------------------------------------------

def test_healthy_pool_store_equals_serial(tmp_path):
    """Pool workers send each result as the record the store holds; the
    parent decodes it against its own copy of the program and stores
    it again, to the bytes a serial campaign stores."""
    expected = serial_store(tmp_path)
    root = tmp_path / "pool"
    summary = grid(root, PoolExecutor(jobs=2))
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


def test_persisted_count_is_exact_under_concurrent_results():
    """Many connections settling at once: the campaign completes, and
    does so only once every result's ``on_result`` returned.  A lost
    update of the settled count would leave ``wait`` blocked, or end
    the campaign before a cell was persisted."""
    specs = [(benchmark, SMALL, "baseline", (), SCALE, seed)
             for seed in range(20) for benchmark in SUBSET]
    persisted = []
    lock = threading.Lock()

    def on_result(cell_id, result):
        with lock:
            persisted.append(cell_id)

    coordinator = ClusterCoordinator(specs, on_result=on_result)

    def fake_worker(sock):
        # Steals and reports at once: no simulation, so results from
        # every connection contend for the coordinator.
        try:
            send_frame(sock, {"kind": "steal"})
            reply = recv_frame(sock)
            while reply["kind"] == "cell":
                spec = spec_from_wire(reply["spec"])
                result = SimulationResult(
                    program_name=spec[0], scheme_name=spec[2],
                    config_name=spec[1].name, stats=SimStats(),
                    regs=[0] * NUM_ARCH_REGS, memory={}, halted=True)
                send_frame(sock, {"kind": "result",
                                  "result": result.to_dict()})
                reply = recv_frame(sock)
        finally:
            sock.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads, served = [], []
    try:
        for index in range(6):
            ours, theirs = socket.socketpair()
            theirs.settimeout(60)
            served.append(ours)
            threads.append(threading.Thread(
                target=coordinator.serve, args=(ours, "fake-%d" % index)))
            threads.append(threading.Thread(target=fake_worker,
                                            args=(theirs,)))
        for thread in threads:
            thread.start()
        assert coordinator.wait(timeout=60)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        for sock in served:
            sock.close()
    results = coordinator.results()
    assert sorted(persisted) == list(range(len(specs)))
    assert all(result is not None for result in results)

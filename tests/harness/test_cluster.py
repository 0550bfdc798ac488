"""Cluster backend tests: protocol, loopback equivalence, fault injection.

Everything runs in-process on 127.0.0.1 — a coordinator plus worker
threads — so the full socket path (framing, stealing, requeue) is
exercised without any external orchestration.
"""

import socket
import threading
import time

import pytest

from repro.harness.cluster import (
    ClusterCoordinator,
    ClusterExecutor,
    ClusterWorker,
    Fault,
    FaultPlan,
    PROTOCOL_VERSION,
    ProtocolError,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.harness.executor import PoolExecutor, SerialExecutor
from repro.harness.progress import ProgressReporter
from repro.harness.runner import CampaignRunner
from repro.harness.store import MODEL_VERSION, ResultStore
from repro.pipeline.config import MEDIUM, SMALL

SUBSET = ("503.bwaves", "548.exchange2")


def small_specs(schemes=("baseline", "nda"), configs=(SMALL,)):
    return [
        (benchmark, config, scheme, (), 0.05, 2017)
        for config in configs
        for scheme in schemes
        for benchmark in SUBSET
    ]


def start_worker(host, port, **kwargs):
    worker = ClusterWorker(host, port, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


# ----------------------------------------------------------------------
# Protocol: framing and wire specs.
# ----------------------------------------------------------------------

def test_frame_round_trip():
    a, b = socket.socketpair()
    try:
        message = {"kind": "cell", "cell_id": 7, "spec": {"nested": [1, 2]}}
        send_frame(a, message)
        assert recv_frame(b) == message
        a.close()
        assert recv_frame(b) is None  # clean EOF
    finally:
        b.close()


def test_frame_rejects_oversized_and_garbage():
    a, b = socket.socketpair()
    try:
        # A bogus length prefix claiming 1 GiB must be rejected before
        # any allocation of that size.
        a.sendall((1 << 30).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(b)
        a2, b2 = socket.socketpair()
        try:
            a2.sendall(len(b"not json").to_bytes(4, "big") + b"not json")
            with pytest.raises(ProtocolError):
                recv_frame(b2)
        finally:
            a2.close()
            b2.close()
    finally:
        a.close()
        b.close()


def test_truncated_header_is_protocol_error_not_struct_error():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\x00\x00")  # half a length prefix, then EOF
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_spec_wire_round_trip():
    spec = ("548.exchange2", MEDIUM.scaled(rob_entries=48), "stt-rename",
            (("split_store_taints", True),), 0.25, 99)
    rebuilt = spec_from_wire(spec_to_wire(spec))
    assert rebuilt[0] == spec[0]
    # The config travels by value: full fingerprint equality, not name.
    assert rebuilt[1] == spec[1]
    assert rebuilt[1].fingerprint() == spec[1].fingerprint()
    assert rebuilt[2:] == spec[2:]


# ----------------------------------------------------------------------
# Loopback: cluster results are bit-identical to the serial backend.
# ----------------------------------------------------------------------

def test_loopback_cluster_matches_serial():
    specs = small_specs(configs=(SMALL, MEDIUM))
    serial = SerialExecutor().run(specs)

    executor = ClusterExecutor(local_workers=2, wait_timeout=120)
    progress = ProgressReporter(label="test").begin(len(specs))
    clustered = executor.run(specs, progress=progress)

    assert len(clustered) == len(serial)
    for mine, theirs in zip(serial, clustered):
        assert mine.stats.to_dict() == theirs.stats.to_dict()
        assert mine.regs == theirs.regs
        assert mine.memory == theirs.memory
    stats = executor.last_stats
    assert stats["completed"] == len(specs)
    assert stats["failed"] == 0
    # Both workers participated and attribution adds up.
    assert sum(stats["workers"].values()) == len(specs)
    assert progress.done == len(specs)
    assert sum(progress.per_worker.values()) == len(specs)


def test_cluster_runner_batch_streams_into_store(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    executor = ClusterExecutor(local_workers=2, wait_timeout=120)
    summary = runner.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                              executor=executor)
    assert summary["simulated"] == 4
    assert len(store) == 4  # streamed via on_result, not post-hoc

    # A fresh runner over the same store simulates nothing.
    warm = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                          store=ResultStore(tmp_path))
    again = warm.run_grid(configs=(SMALL,), schemes=("baseline", "nda"),
                          executor=ClusterExecutor(local_workers=2,
                                                   wait_timeout=120))
    assert again["simulated"] == 0
    assert again["from_store"] == 4


# ----------------------------------------------------------------------
# Fault injection: dead workers must not lose cells.
# ----------------------------------------------------------------------

def test_crashed_worker_cells_are_requeued():
    specs = small_specs()
    serial = SerialExecutor().run(specs)

    coordinator = ClusterCoordinator(specs)
    coordinator.start()
    try:
        host, port = coordinator.address
        # The crasher steals one cell and dies without reporting it.
        crasher, crasher_thread = start_worker(
            host, port, name="crasher",
            fault_plan=FaultPlan([Fault("crash", worker="crasher", at=1)]))
        crasher_thread.join(timeout=30)
        assert not crasher_thread.is_alive()
        assert crasher.cells_completed == 0

        survivor, survivor_thread = start_worker(host, port, name="survivor")
        assert coordinator.wait(timeout=120)
        results = coordinator.results()
        stats = coordinator.stats()
        survivor_thread.join(timeout=10)
    finally:
        coordinator.close()

    assert stats["requeues"] >= 1
    assert stats["completed"] == len(specs)
    assert stats["workers"] == {"survivor": len(specs)}
    for mine, theirs in zip(serial, results):
        assert mine.stats.to_dict() == theirs.stats.to_dict()


def test_deterministic_worker_error_records_and_continues():
    # Default: a deterministic failure settles the cell as a
    # CellFailure, yields None at its index, and the rest of the grid
    # still completes (graceful degradation).
    bad = ("no.such.benchmark", SMALL, "baseline", (), 0.05, 2017)
    good = ("503.bwaves", SMALL, "baseline", (), 0.05, 2017)
    executor = ClusterExecutor(local_workers=1, wait_timeout=60)
    failures = {}
    results = executor.run([bad, good],
                           on_failure=lambda i, f: failures.__setitem__(i, f))
    assert results[0] is None
    assert results[1] is not None
    assert list(failures) == [0]
    assert failures[0].kind == "deterministic"
    assert "no.such.benchmark" in failures[0].error
    assert failures[0].traceback  # wire carries the remote traceback
    stats = executor.last_stats
    assert stats["failed"] == 1 and stats["quarantined"] == 0
    assert 0 in executor.last_failures


def test_deterministic_worker_error_fails_fast_when_asked():
    specs = [("no.such.benchmark", SMALL, "baseline", (), 0.05, 2017)]
    executor = ClusterExecutor(local_workers=1, wait_timeout=60,
                               fail_fast=True)
    with pytest.raises(RuntimeError, match="no.such.benchmark|errored"):
        executor.run(specs)


def test_late_duplicate_error_does_not_end_campaign():
    specs = small_specs(schemes=("baseline",))
    coordinator = ClusterCoordinator(specs)
    coordinator.start()
    try:
        host, port = coordinator.address
        # A real worker completes the whole grid first.
        _worker, thread = start_worker(host, port, name="winner")
        assert coordinator.wait(timeout=120)
        thread.join(timeout=10)
        # A straggler now reports an error for an already-done cell:
        # it must be ack'd and ignored, not recorded as a failure.
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "hello", "worker": "straggler",
                          "protocol": PROTOCOL_VERSION,
                          "model_version": MODEL_VERSION})
        recv_frame(conn)
        send_frame(conn, {"kind": "error", "cell_id": 0,
                          "error": "MemoryError: host-specific"})
        assert recv_frame(conn)["kind"] == "ack"
        conn.close()
        assert coordinator.stats()["failed"] == 0
        assert len(coordinator.results()) == len(specs)  # does not raise
    finally:
        coordinator.close()


def test_poison_cell_is_quarantined_and_grid_completes():
    # One cell crashes every worker that steals it; after
    # max_cell_attempts deaths it is quarantined and the rest of the
    # grid still completes — one poisoned cell costs one cell, not the
    # campaign.
    from repro.harness.cluster import Fault, FaultPlan

    specs = small_specs(schemes=("baseline",))  # 2 cells, 2 benchmarks
    poison = specs[0][0]
    plan = FaultPlan([Fault("poison_cell", arg=poison)])
    executor = ClusterExecutor(local_workers=3, wait_timeout=120,
                               max_cell_attempts=2, fault_plan=plan)
    failures = {}
    results = executor.run(
        specs, on_failure=lambda i, f: failures.__setitem__(i, f))
    assert results[0] is None  # the poisoned cell
    assert results[1] is not None  # the healthy one completed
    assert failures[0].kind == "poisoned"
    assert failures[0].attempts == 2
    assert "died" in failures[0].error
    stats = executor.last_stats
    assert stats["quarantined"] == 1 and stats["failed"] == 0
    assert stats["requeues"] >= 1  # the first death requeued it once


def test_campaign_raises_once_every_local_worker_exits():
    # Only the local threads can simulate cells: when the only one
    # crashes, the campaign raises promptly instead of waiting for a
    # worker that cannot come.  (wait_timeout only bounds a regression.)
    specs = small_specs(schemes=("baseline",))
    plan = FaultPlan([Fault("crash", worker="local-1", at=1)])
    executor = ClusterExecutor(local_workers=1, wait_timeout=30,
                               fault_plan=plan)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="every local worker exited"):
        executor.run(specs)
    assert time.monotonic() - start < 10
    assert executor.last_stats["requeues"] == 1
    assert executor.last_stats["completed"] == 0


def test_last_worker_death_that_settles_the_grid_is_not_a_stall():
    # The only worker dies holding the only cell, and that death
    # quarantines the cell: the grid is settled, not stalled, however
    # the worker thread's exit races the coordinator's drop.
    spec = ("503.bwaves", SMALL, "baseline", (), 0.05, 2017)
    plan = FaultPlan([Fault("poison_cell", arg=spec[0])])
    executor = ClusterExecutor(local_workers=1, wait_timeout=30,
                               max_cell_attempts=1, fault_plan=plan)
    failures = {}
    results = executor.run(
        [spec], on_failure=lambda i, f: failures.__setitem__(i, f))
    assert results == [None]
    assert failures[0].kind == "poisoned"


def test_cluster_executor_needs_a_local_worker():
    with pytest.raises(ValueError, match="at least one local worker"):
        ClusterExecutor(local_workers=0)


def test_late_result_clears_quarantine_first_result_wins():
    # A cell is quarantined (its worker presumed dead), then the
    # presumed-dead worker's result arrives after all: determinism says
    # it is the result any rerun would produce, so it wins and the
    # quarantine dissolves.
    spec = ("503.bwaves", SMALL, "baseline", (), 0.05, 2017)
    serial = SerialExecutor().run([spec])[0]

    cleared = []
    progress = ProgressReporter(label="test").begin(1)
    coordinator = ClusterCoordinator([spec], max_cell_attempts=1,
                                     progress=progress)
    coordinator.start()
    try:
        host, port = coordinator.address
        # Steal the cell, then vanish: with max_cell_attempts=1 the
        # death quarantines the cell immediately.
        doomed = socket.create_connection((host, port), timeout=5)
        send_frame(doomed, {"kind": "hello", "worker": "doomed",
                            "protocol": PROTOCOL_VERSION,
                            "model_version": MODEL_VERSION})
        assert recv_frame(doomed)["kind"] == "welcome"
        send_frame(doomed, {"kind": "steal"})
        assert recv_frame(doomed)["kind"] == "cell"
        doomed.close()

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if coordinator.stats()["quarantined"] == 1:
                break
            time.sleep(0.02)
        assert coordinator.stats()["quarantined"] == 1
        assert coordinator.wait(timeout=5)  # settled (by quarantine)
        assert progress.quarantined == 1
        assert coordinator.results() == [None]

        # The "dead" worker was merely slow: its result lands late.
        straggler = socket.create_connection((host, port), timeout=5)
        send_frame(straggler, {"kind": "hello", "worker": "doomed",
                               "protocol": PROTOCOL_VERSION,
                               "model_version": MODEL_VERSION})
        assert recv_frame(straggler)["kind"] == "welcome"
        send_frame(straggler, {"kind": "result", "cell_id": 0,
                               "result": serial.to_dict()})
        assert recv_frame(straggler)["kind"] == "ack"
        straggler.close()

        stats = coordinator.stats()
        assert stats["quarantined"] == 0 and stats["completed"] == 1
        assert progress.quarantined == 0 and progress.done == 1
        results = coordinator.results()
        assert results[0].stats.to_dict() == serial.stats.to_dict()
        assert coordinator.failures() == {}
    finally:
        coordinator.close()


def test_undecodable_result_drops_its_worker_and_requeues_the_cell(
        monkeypatch):
    # A result frame the coordinator cannot decode (a malformed memory
    # image, or a delta against another program's image) is the
    # worker's fault: the worker is dropped and its cell requeued, as
    # for a corrupt frame.  No serve thread dies, and the cell still
    # completes with the serial result.
    from repro.workloads.program_cache import cached_spec_program

    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    spec = ("503.bwaves", SMALL, "baseline", (), 0.05, 2017)
    serial = SerialExecutor().run([spec])[0]
    malformed = serial.to_dict()
    malformed["memory"] = 5
    foreign = serial.to_dict(
        cached_spec_program("503.bwaves", scale=0.05, seed=2017))
    foreign["memory_base"] = cached_spec_program(
        "548.exchange2", scale=0.05, seed=2017).image_digest

    coordinator = ClusterCoordinator([spec])
    coordinator.start()
    try:
        host, port = coordinator.address
        for bad in (malformed, foreign):
            conn = socket.create_connection((host, port), timeout=5)
            try:
                send_frame(conn, {"kind": "hello", "worker": "garbled",
                                  "protocol": PROTOCOL_VERSION,
                                  "model_version": MODEL_VERSION})
                assert recv_frame(conn)["kind"] == "welcome"
                send_frame(conn, {"kind": "steal"})
                assert recv_frame(conn)["cell_id"] == 0
                send_frame(conn, {"kind": "result", "cell_id": 0,
                                  "result": bad})
                assert recv_frame(conn) is None  # dropped, never ack'd
            finally:
                conn.close()
        assert coordinator.stats()["requeues"] == 2

        _worker, thread = start_worker(host, port, name="honest")
        assert coordinator.wait(timeout=60)
        thread.join(timeout=30)
        (result,) = coordinator.results()
        assert result.to_dict() == serial.to_dict()
    finally:
        coordinator.close()
        for thread in coordinator._threads:
            thread.join(timeout=30)
    assert raised == []


def test_protocol_version_mismatch_is_rejected():
    coordinator = ClusterCoordinator(small_specs())
    coordinator.start()
    try:
        host, port = coordinator.address
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "hello", "worker": "new",
                          "protocol": PROTOCOL_VERSION + 1})
        assert recv_frame(conn)["kind"] == "reject"
        conn.close()
        # A generation-2 worker (dict-form memory images) is refused,
        # and the reason names both versions.
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "hello", "worker": "old", "protocol": 2,
                          "model_version": MODEL_VERSION})
        reply = recv_frame(conn)
        assert reply["kind"] == "reject"
        assert reply["error"] == (
            "protocol version mismatch: coordinator v%d, worker v2"
            % PROTOCOL_VERSION)
        conn.close()
        # A full ClusterWorker against the same mismatch surfaces the
        # rejection instead of pretending a clean drain.
        rejected = ClusterWorker(host, port, name="newer")
        rejected_run = {}
        orig = PROTOCOL_VERSION

        def run_with_wrong_version():
            import repro.harness.cluster.worker as worker_module

            worker_module.PROTOCOL_VERSION = orig + 1
            try:
                rejected_run["count"] = rejected.run()
            finally:
                worker_module.PROTOCOL_VERSION = orig

        run_with_wrong_version()
        assert rejected_run["count"] == 0
        assert rejected.rejected
        assert "rejected" in rejected.last_error
        # Stealing without hello is rejected too.
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "steal"})
        assert recv_frame(conn)["kind"] == "reject"
        conn.close()
    finally:
        coordinator.close()


def test_model_version_mismatch_is_rejected():
    """A worker running another model must be refused at hello: the
    coordinator stores each result under a key hashed with its own
    model version, which would vouch for the other model's results."""
    coordinator = ClusterCoordinator(small_specs())
    coordinator.start()
    try:
        host, port = coordinator.address

        # Another model version -> reject naming both.
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "hello", "worker": "stale",
                          "protocol": PROTOCOL_VERSION,
                          "model_version": "0.0.0-stale"})
        reply = recv_frame(conn)
        assert reply["kind"] == "reject"
        assert reply["error"] == (
            "model version mismatch: coordinator %s, worker 0.0.0-stale"
            % MODEL_VERSION)
        conn.close()

        # No model version at all -> reject.
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "hello", "worker": "unstamped",
                          "protocol": PROTOCOL_VERSION})
        reply = recv_frame(conn)
        assert reply["kind"] == "reject"
        assert "model version mismatch" in reply["error"]
        conn.close()

        # The coordinator's own version is welcomed.
        conn = socket.create_connection((host, port), timeout=5)
        send_frame(conn, {"kind": "hello", "worker": "current",
                          "protocol": PROTOCOL_VERSION,
                          "model_version": MODEL_VERSION})
        assert recv_frame(conn)["kind"] == "welcome"
        conn.close()
    finally:
        coordinator.close()


def test_cluster_worker_surfaces_model_version_rejection(monkeypatch):
    """A full ClusterWorker built from another model reports the
    rejection instead of simulating cells into this model's keys."""
    import repro.harness.cluster.worker as worker_module

    coordinator = ClusterCoordinator(small_specs())
    coordinator.start()
    try:
        host, port = coordinator.address
        monkeypatch.setattr(worker_module, "MODEL_VERSION", "0.0.0-stale")
        worker = ClusterWorker(host, port, name="stale-build")
        assert worker.run() == 0
        assert worker.rejected
        assert "model version mismatch" in worker.last_error
        assert coordinator.stats()["completed"] == 0
    finally:
        coordinator.close()


# ----------------------------------------------------------------------
# Executor protocol: one seam, three backends.
# ----------------------------------------------------------------------

def test_serial_and_pool_report_progress_and_stream_results():
    specs = small_specs(schemes=("baseline",))
    for executor in (SerialExecutor(), PoolExecutor(jobs=2)):
        progress = ProgressReporter(label="test").begin(len(specs))
        streamed = {}
        results = executor.run(
            specs, progress=progress,
            on_result=lambda i, r: streamed.__setitem__(i, r))
        assert progress.done == len(specs)
        assert sorted(streamed) == list(range(len(specs)))
        for index, result in enumerate(results):
            assert streamed[index].stats.to_dict() == result.stats.to_dict()


def test_progress_reporter_counters_and_render():
    progress = ProgressReporter(label="grid").begin(4)
    for _ in range(3):
        progress.cell_done(worker="w1")
    progress.cell_done(worker="w2")
    snap = progress.snapshot()
    assert snap["done"] == 4 and snap["total"] == 4
    assert snap["per_worker"] == {"w1": 3, "w2": 1}
    assert snap["cells_per_second"] > 0
    line = progress.render()
    assert "4/4" in line and "w1:3" in line and "w2:1" in line
    # A clean campaign's line carries no failure noise.
    assert "failed" not in line and "quarantined" not in line


def test_progress_reporter_failure_counters():
    progress = ProgressReporter(label="grid").begin(4)
    progress.cell_done(worker="w1")
    progress.cell_failed(worker="w1", kind="deterministic")
    progress.cell_failed(worker="w2", kind="poisoned")
    progress.requeued()
    progress.requeued()
    snap = progress.snapshot()
    assert snap["failed"] == 1 and snap["quarantined"] == 1
    assert snap["requeues"] == 2
    # Failures settle cells: 1 done + 2 failed of 4 -> 1 remaining.
    line = progress.render()
    assert "1/4" in line
    assert "1 failed" in line and "1 quarantined" in line
    assert "2 requeued" in line
    # A late first result un-settles the matching failure class.
    progress.failure_cleared("poisoned")
    progress.cell_done(worker="w2")
    snap = progress.snapshot()
    assert snap["quarantined"] == 0 and snap["failed"] == 1

"""Cluster backend tests: framing, loopback equivalence, failure rule.

Everything runs in-process: a coordinator serve thread and a worker
thread per ``socket.socketpair()``, so the full socket path (framing,
stealing, settling, aborting) is exercised without any external
orchestration.  Every wait is bounded, so a regression to a hang
fails the test instead of blocking it.
"""

import socket
import threading

import pytest

from repro.harness.cluster import (
    ClusterCoordinator,
    ClusterExecutor,
    ProtocolError,
    recv_frame,
    send_frame,
    spec_from_wire,
    spec_to_wire,
)
from repro.harness.cluster import worker
from repro.harness.executor import PoolExecutor, SerialExecutor
from repro.harness.progress import ProgressReporter
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import MEDIUM, SMALL
from tests.conftest import bounded

SUBSET = ("503.bwaves", "548.exchange2")


def small_specs(schemes=("baseline", "nda"), configs=(SMALL,)):
    return [
        (benchmark, config, scheme, (), 0.05, 2017)
        for config in configs
        for scheme in schemes
        for benchmark in SUBSET
    ]


# ----------------------------------------------------------------------
# Protocol: framing and wire specs.
# ----------------------------------------------------------------------

def test_frame_round_trip():
    a, b = socket.socketpair()
    try:
        message = {"kind": "cell", "spec": {"nested": [1, 2]}}
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

    progress = ProgressReporter(label="test").begin(len(specs))
    clustered = bounded(lambda: ClusterExecutor(local_workers=2).run(
        specs, progress=progress))

    assert len(clustered) == len(serial)
    for mine, theirs in zip(serial, clustered):
        assert mine.stats.to_dict() == theirs.stats.to_dict()
        assert mine.regs == theirs.regs
        assert mine.memory == theirs.memory
    # Attribution adds up, and names only the local workers.
    assert progress.done == len(specs) and progress.failed == 0
    assert sum(progress.per_worker.values()) == len(specs)
    assert set(progress.per_worker) <= {"local-1", "local-2"}


def test_cluster_runner_batch_streams_into_store(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    summary = bounded(lambda: runner.run_grid(
        configs=(SMALL,), schemes=("baseline", "nda"),
        executor=ClusterExecutor(local_workers=2)))
    assert summary["simulated"] == 4
    assert len(store) == 4  # streamed via on_result, not post-hoc

    # A fresh runner over the same store simulates nothing.
    warm = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                          store=ResultStore(tmp_path))
    again = bounded(lambda: warm.run_grid(
        configs=(SMALL,), schemes=("baseline", "nda"),
        executor=ClusterExecutor(local_workers=2)))
    assert again["simulated"] == 0
    assert again["from_store"] == 4


# ----------------------------------------------------------------------
# The failure rule: an error frame settles, any other end aborts.
# ----------------------------------------------------------------------

def test_deterministic_worker_error_records_and_continues():
    # A cell whose simulation raises settles as a CellFailure, yields
    # None at its index, and the rest of the grid still completes.
    bad = ("no.such.benchmark", SMALL, "baseline", (), 0.05, 2017)
    good = ("503.bwaves", SMALL, "baseline", (), 0.05, 2017)
    failures = {}
    progress = ProgressReporter(label="test").begin(2)
    results = bounded(lambda: ClusterExecutor(local_workers=1).run(
        [bad, good], progress=progress,
        on_failure=lambda i, f: failures.__setitem__(i, f)))
    assert results[0] is None
    assert results[1] is not None
    assert list(failures) == [0]
    assert failures[0].kind == "deterministic"
    assert failures[0].worker == "local-1"
    assert "no.such.benchmark" in failures[0].error
    assert failures[0].traceback  # the frame carries the traceback
    assert progress.failed == 1 and progress.done == 1


def test_cluster_executor_needs_a_local_worker():
    with pytest.raises(ValueError, match="at least one local worker"):
        ClusterExecutor(local_workers=0)


def test_campaign_raises_once_every_local_worker_exits(monkeypatch):
    # The only worker thread dies holding its first cell: run raises
    # naming it, once its threads have ended, instead of waiting for a
    # result that cannot come.
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)

    def dying(spec):
        raise SystemExit("worker thread ends")

    monkeypatch.setattr(worker, "simulate_cell", dying)
    settled = []
    with pytest.raises(RuntimeError) as info:
        bounded(lambda: ClusterExecutor(local_workers=1).run(
            small_specs(schemes=("baseline",)),
            on_result=lambda i, r: settled.append(i),
            on_failure=lambda i, f: settled.append(i)), seconds=30)
    assert ("worker local-1 ended holding cell 0 (503.bwaves/small/"
            "baseline)") in str(info.value)
    assert settled == []
    assert [type(args.exc_value) for args in died] == [SystemExit]


def test_undecodable_result_aborts_the_campaign(monkeypatch):
    # A result frame the coordinator cannot decode — a malformed memory
    # image, or a delta against another program's image — aborts the
    # campaign, naming the worker and its cell; no serve thread dies.
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

    for bad, reason in ((malformed, "undecodable result: "),
                        (foreign, "delta against image")):
        coordinator = ClusterCoordinator([spec])
        ours, theirs = socket.socketpair()
        theirs.settimeout(30)
        serve = threading.Thread(target=coordinator.serve,
                                 args=(ours, "garbled"), daemon=True)
        serve.start()
        try:
            send_frame(theirs, {"kind": "steal"})
            assert recv_frame(theirs)["kind"] == "cell"
            send_frame(theirs, {"kind": "result", "result": bad})
            assert recv_frame(theirs) is None  # ended, never answered
            serve.join(30)
            assert not serve.is_alive()
        finally:
            ours.close()
            theirs.close()
        assert coordinator.wait(0)
        with pytest.raises(RuntimeError) as info:
            coordinator.results()
        message = str(info.value)
        assert "worker garbled ended holding cell 0" in message
        assert reason in message
    assert raised == []

    # The same through the executor: run raises instead of hanging.
    send = worker.send_frame

    def garbling(sock, message):
        if message["kind"] == "result":
            message = dict(message, result=malformed)
        send(sock, message)

    monkeypatch.setattr(worker, "send_frame", garbling)
    with pytest.raises(RuntimeError, match="worker local-[12] ended"
                                           " holding cell .*undecodable"):
        bounded(lambda: ClusterExecutor(local_workers=2).run(small_specs()),
                seconds=60)
    assert raised == []


def test_on_result_that_raises_aborts_the_campaign():
    # A store write that fails must not leave the campaign waiting or
    # finish it without the cell: run raises, naming the worker, and
    # chains the callback's exception.
    calls = []

    def on_result(index, result):
        calls.append(index)
        if len(calls) == 2:
            raise OSError("disk full")

    with pytest.raises(RuntimeError, match=r"worker local-1 ended holding"
                                           r" cell \d \(.*disk full") as info:
        bounded(lambda: ClusterExecutor(local_workers=1).run(
            small_specs(), on_result=on_result), seconds=60)
    assert isinstance(info.value.__cause__, OSError)
    # No cell is handed out after the abort.
    assert len(calls) == 2


def test_out_of_protocol_frame_aborts_the_campaign():
    # A worker that reports before it stole, or steals while it holds a
    # cell, is out of protocol: the campaign aborts.
    for frames in ([{"kind": "result", "result": {}}],
                   [{"kind": "steal"}, {"kind": "steal"}]):
        coordinator = ClusterCoordinator(small_specs())
        ours, theirs = socket.socketpair()
        theirs.settimeout(30)
        serve = threading.Thread(target=coordinator.serve,
                                 args=(ours, "confused"), daemon=True)
        serve.start()
        try:
            for frame in frames:
                send_frame(theirs, frame)
            serve.join(30)
            assert not serve.is_alive()
        finally:
            ours.close()
            theirs.close()
        with pytest.raises(RuntimeError, match="unexpected 'steal'|"
                                               "unexpected 'result'"):
            coordinator.results()


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
    assert "failed" not in line


def test_progress_reporter_failure_counters():
    progress = ProgressReporter(label="grid").begin(4)
    progress.cell_done(worker="w1")
    progress.cell_failed(worker="w1")
    progress.cell_failed(worker="w2")
    snap = progress.snapshot()
    assert snap["failed"] == 2 and snap["done"] == 1
    # Failures settle cells: 1 done + 2 failed of 4 -> 1 remaining.
    line = progress.render()
    assert "1/4" in line and "2 failed" in line
    progress.cell_done(worker="w2")
    line = progress.render()
    assert "2/4" in line and "done in" in line

"""CLI-level tests for ``python -m repro`` (the new subcommands)."""

import json

import pytest

from repro.__main__ import main, parse_hostport
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import SMALL

BENCH = "503.bwaves"


def test_parse_hostport():
    assert parse_hostport("example.org:9000") == ("example.org", 9000)
    assert parse_hostport("example.org") == ("example.org", 2017)
    assert parse_hostport(":9000") == ("127.0.0.1", 9000)


def test_cli_grid_serial_and_store(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 cells" in out and "1 simulated" in out
    assert len(ResultStore(tmp_path)) == 1


def test_cli_grid_cluster_executor(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline", "nda",
                 "--executor", "cluster", "--local-workers", "2",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cluster coordinator serving on" in out
    assert "2 simulated" in out
    assert len(ResultStore(tmp_path)) == 2


def test_cli_store_verify_and_gc(tmp_path, capsys):
    from repro.harness.segments import SEGMENT_DIR

    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    # One off-grid cell whose record gets damaged, then one healthy
    # in-grid cell (default scale 1.0 for gc, so save one at scale 1.0
    # identity), both in the same segment.
    result = runner.run(BENCH, SMALL, "baseline")
    store.save("e" * 64, result)
    grid_runner = CampaignRunner(scale=1.0, benchmarks=(BENCH,))
    key = grid_runner.cell_key(BENCH, SMALL, "baseline")
    store.save(key, result)
    store.close()
    (segment,) = (tmp_path / SEGMENT_DIR).glob("*.seg")
    blob = bytearray(segment.read_bytes())
    blob[16:20] = b"\xff\xff\xff\xff"  # inside the first record
    segment.write_bytes(bytes(blob))

    assert main(["store", "verify", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 scanned" in out and "1 corrupt set aside" in out

    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--benchmarks", BENCH]) == 0
    out = capsys.readouterr().out
    assert "1 kept, 0 dropped" in out

    # gc for a different scale keeps nothing.
    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--scale", "0.25", "--benchmarks", BENCH]) == 0
    out = capsys.readouterr().out
    assert "0 kept, 1 dropped" in out
    assert len(ResultStore(tmp_path)) == 0


def test_cli_store_failures(tmp_path, capsys):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    # A clean store exits 0 and says so.
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 0
    assert "0 recorded" in capsys.readouterr().out

    store.save_failure(CellFailure(
        key="a" * 64, benchmark=BENCH, config_name="small",
        scheme_name="baseline", kind="timeout", attempts=2, worker="w9",
        error="cell exceeded the 5.0s wall-clock deadline"))
    # Any recorded failure makes the action exit nonzero (scriptable in
    # CI as a campaign-health check).
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 recorded" in out
    assert BENCH in out and "timeout" in out and "x2" in out
    assert "wall-clock" in out


def test_cli_serve_writes_journal_and_resumes(tmp_path, capsys):
    from repro.harness.journal import CampaignJournal, journal_path

    args = ["serve", "--scale", "0.05", "--benchmarks", BENCH,
            "--configs", "small", "--schemes", "baseline",
            "--host", "127.0.0.1", "--port", "0", "--local-workers", "2",
            "--store-dir", str(tmp_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "campaign drained" in out and "1 simulated" in out
    state = CampaignJournal.load(journal_path(tmp_path))
    assert state is not None and len(state.done) == 1

    # Simulate a coordinator crash that lost the store cells: --resume
    # replays the journal, re-simulates the missing cell, and the
    # journal gains a session marker.
    from repro.harness.store import ResultStore

    ResultStore(tmp_path).clear()
    assert main(args + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "1 simulated" in out
    resumed = CampaignJournal.load(journal_path(tmp_path))
    assert resumed.sessions == 2 and len(resumed.done) == 1


def test_cli_bench_record(tmp_path, capsys):
    record = tmp_path / "BENCH_TEST.json"
    code = main(["bench", "--scale", "0.02", "--repeats", "1",
                 "--record", str(record)])
    assert code == 0
    report = json.loads(record.read_text())
    assert report["benchmark"] == "simulator_throughput"
    assert report["aggregate"]["cycles"] > 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["aggregate"] == report["aggregate"]


def test_cli_accepts_underscore_scheme_aliases(tmp_path, capsys):
    """Registry aliases (stt_rename) must survive argparse choices."""
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "stt_rename",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    assert "1 simulated" in capsys.readouterr().out


def test_cli_restores_program_cache_configuration(tmp_path):
    """main() must not leak one run's disk-cache dir into the process."""
    from repro.workloads.program_cache import disk_cache_dir

    before = disk_cache_dir()
    assert main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)]) == 0
    assert disk_cache_dir() == before


def test_cli_schemes_lists_registry(capsys):
    from repro.core.registry import iter_specs

    assert main(["schemes", "--verbose"]) == 0
    out = capsys.readouterr().out
    for spec in iter_specs():
        assert spec.name in out
    assert "split_store_taints" in out  # kwargs schema printed


def test_cli_bench_multi_scheme(tmp_path, capsys):
    record = tmp_path / "BENCH_MULTI.json"
    code = main(["bench", "--scale", "0.02", "--repeats", "1",
                 "--schemes", "baseline", "nda",
                 "--record", str(record)])
    assert code == 0
    report = json.loads(record.read_text())
    assert set(report["schemes"]) == {"baseline", "nda"}
    for section in report["schemes"].values():
        assert section["aggregate"]["cycles"] > 0
    assert report["aggregate"]["cycles"] == sum(
        s["aggregate"]["cycles"] for s in report["schemes"].values())


def test_cli_bench_compare(tmp_path, capsys):
    old = tmp_path / "OLD.json"
    new = tmp_path / "NEW.json"
    assert main(["bench", "--scale", "0.02", "--repeats", "1",
                 "--schemes", "baseline", "--record", str(old)]) == 0
    capsys.readouterr()
    # Doctor the "new" report: +10% cycles/s everywhere, foreign host.
    report = json.loads(old.read_text())
    for section in report["schemes"].values():
        for row in section["workloads"] + [section["aggregate"]]:
            row["cycles_per_second"] = round(
                row["cycles_per_second"] * 1.1, 1)
    report["aggregate"]["cycles_per_second"] = round(
        report["aggregate"]["cycles_per_second"] * 1.1, 1)
    report["host"] = dict(report["host"], platform="other-box")
    new.write_text(json.dumps(report))

    assert main(["bench", "--compare", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "scheme: baseline" in out
    assert "+10.0%" in out
    assert "1.100x" in out
    assert "different hosts" in out
    assert "platform" in out

    # Same report on both sides: clean table, no warning.
    assert main(["bench", "--compare", str(old), str(old)]) == 0
    out = capsys.readouterr().out
    assert "different hosts" not in out
    assert "1.000x" in out


def test_compare_bench_reports_shapes():
    """Single-scheme and multi-scheme report shapes are comparable,
    and one-sided schemes/workloads surface instead of vanishing."""
    from repro.harness.bench import compare_bench_reports

    host = {"python": "3", "implementation": "C", "platform": "p",
            "cpu_count": 1}
    single = {
        "scheme": "baseline", "config": "mega", "scale": 1.0,
        "host": host,
        "workloads": [{"workload": "mixed", "cycles_per_second": 100.0}],
        "aggregate": {"cycles_per_second": 100.0},
    }
    multi = {
        "config": "mega", "scale": 1.0, "host": host,
        "schemes": {
            "baseline": {
                "workloads": [{"workload": "mixed",
                               "cycles_per_second": 150.0}],
                "aggregate": {"cycles_per_second": 150.0},
            },
            "nda": {"workloads": [], "aggregate": {}},
        },
        "aggregate": {"cycles_per_second": 150.0},
    }
    comparison = compare_bench_reports(single, multi)
    assert comparison["host_mismatches"] == []
    assert comparison["only_new"] == ["nda"]
    row = comparison["schemes"]["baseline"]["workloads"][0]
    assert row["speedup"] == 1.5 and row["delta_pct"] == 50.0
    assert comparison["aggregate"]["speedup"] == 1.5


def test_cli_grid_populates_program_disk_cache(tmp_path, capsys):
    """make_runner points the program cache at <store>/programs."""
    from repro.workloads.program_cache import clear_cache, configure_disk_cache

    previous = configure_disk_cache(None)
    clear_cache()  # the disk layer persists at generation time
    try:
        code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                     "--configs", "small", "--schemes", "baseline",
                     "--store-dir", str(tmp_path)])
        assert code == 0
        assert list((tmp_path / "programs").glob("*.json"))
    finally:
        configure_disk_cache(previous)


def test_cli_run_unknown_experiment(capsys):
    assert main(["run", "definitely-not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_work_refuses_bad_coordinator(capsys):
    # Nothing listens: the reconnect loop (disabled here to keep the
    # test instant) exhausts and the worker reports the loss, exit 1.
    code = main(["work", "--connect", "127.0.0.1:1",
                 "--max-reconnects", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "lost its coordinator" in err and "0 reconnect(s)" in err


def test_cli_pipeview_writes_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.out"
    code = main(["pipeview", "streaming-warm", "--config", "small",
                 "--scale", "0.02", "--limit", "64",
                 "--output", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("O3PipeView:fetch:")
    assert "O3PipeView:retire:" in text
    err = capsys.readouterr().err
    assert "uop record(s)" in err and "traced streaming-warm" in err


def test_cli_pipeview_stdout(capsys):
    assert main(["pipeview", "streaming-warm", "--config", "small",
                 "--scale", "0.02", "--limit", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("O3PipeView:fetch:")


def test_cli_metrics_reports_stall_breakdown(tmp_path, capsys):
    # Empty store: exit 1 with a pointer to populate it.
    assert main(["metrics", str(tmp_path)]) == 1
    assert "no cycle-accounted results" in capsys.readouterr().err

    assert main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline", "fence",
                 "--store-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "fence" in out
    assert "conservation: ok" in out
    assert "VIOLATED" not in out


def test_cli_profile_json(capsys):
    code = main(["profile", "--scale", "0.02", "--json",
                 "--sort", "tottime", "--top", "5",
                 "--benchmark", "streaming-warm", "--config", "small"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sort"] == "tottime"
    assert report["benchmark"] == "streaming-warm"
    assert 0 < len(report["functions"]) <= 5
    times = [row["tottime"] for row in report["functions"]]
    assert times == sorted(times, reverse=True)
    assert report["host"]["python"]
    assert report["simulated_cycles"] > 0


def test_cli_grid_progress_json(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--progress", "json", "--store-dir", str(tmp_path)])
    assert code == 0
    err_lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
    assert err_lines, "no JSONL progress emitted"
    snap = json.loads(err_lines[-1])
    assert snap["done"] == snap["total"] == 1


def test_cli_bench_reports_host_metadata(tmp_path):
    record = tmp_path / "BENCH_HOST.json"
    assert main(["bench", "--scale", "0.02", "--repeats", "1",
                 "--record", str(record)]) == 0
    host = json.loads(record.read_text())["host"]
    assert host["python"] and host["platform"]
    assert host["cpu_count"] >= 1

"""CLI-level tests for ``python -m repro`` (the new subcommands)."""

import json

import pytest

from repro.__main__ import main
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import SMALL

BENCH = "503.bwaves"


def test_cli_grid_serial_and_store(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 cells" in out and "1 simulated" in out
    assert len(ResultStore(tmp_path)) == 1


def test_cli_run_prepopulates_needed_cells(tmp_path, capsys, monkeypatch):
    from repro.workloads import program_cache

    # The run points the program disk cache into its store; undo that.
    monkeypatch.setattr(program_cache, "_DISK_DIR",
                        program_cache.disk_cache_dir())
    argv = ["run", "table1", "figure6",
            "--scale", "0.05", "--benchmarks", "503.bwaves", "548.exchange2",
            "--store-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()
    assert first[0].startswith(
        "grid pre-populated: 18 cells — 18 simulated, 0 from store")
    assert main(argv) == 0
    second = capsys.readouterr().out.splitlines()
    assert second[0].startswith(
        "grid pre-populated: 18 cells — 0 simulated, 18 from store")
    assert second[1:] == first[1:]


def test_cli_grid_cluster_executor(tmp_path, capsys):
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline", "nda",
                 "--executor", "cluster", "--local-workers", "2",
                 "--store-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 simulated" in out
    assert len(ResultStore(tmp_path)) == 2


def test_cli_cluster_needs_a_local_worker(tmp_path, capsys):
    # With no local worker thread nothing could simulate a cell: a
    # usage error, not a campaign that waits forever.
    with pytest.raises(SystemExit) as exit_info:
        main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
              "--configs", "small", "--schemes", "baseline",
              "--executor", "cluster", "--local-workers", "0",
              "--store-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--local-workers" in capsys.readouterr().err


def test_cli_store_of_another_format_is_one_line_not_a_traceback(
        tmp_path, capsys):
    from tests.harness.test_store_segments import (
        snapshot,
        write_segments_v1_store,
    )

    write_segments_v1_store(tmp_path)
    before = snapshot(tmp_path)
    code = main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)])
    assert code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "Traceback" not in captured.err
    assert "'segments-v1'" in line and "'sqlite-v1'" in line
    assert str(tmp_path) in line
    assert snapshot(tmp_path) == before


def test_cli_store_verify_and_gc(tmp_path, capsys):
    import sqlite3

    from repro.harness.store import MANIFEST_NAME

    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    # One off-grid cell whose record gets damaged, then one healthy
    # in-grid cell (default scale 1.0 for gc, so save one at scale 1.0
    # identity).
    result = runner.run(BENCH, SMALL, "baseline")
    store.save("e" * 64, result)
    grid_runner = CampaignRunner(scale=1.0, benchmarks=(BENCH,))
    key = grid_runner.cell_key(BENCH, SMALL, "baseline")
    store.save(key, result)
    store.close()
    conn = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    with conn:
        conn.execute("UPDATE cells SET record=? WHERE key=?",
                     (b"\xff" * 16, "e" * 64))
    conn.close()

    assert main(["store", "verify", "--store-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 scanned" in out and "1 corrupt dropped" in out

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


def test_cli_store_gc_rejects_misspelled_benchmark(tmp_path, capsys):
    """A misspelled ``--benchmarks`` name is a usage error, not a kept
    grid that matches nothing: gc must not evict the store."""
    assert main(["grid", "--scale", "0.05", "--benchmarks", BENCH,
                 "--configs", "small", "--schemes", "baseline",
                 "--store-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["store", "gc", "--store-dir", str(tmp_path),
              "--scale", "0.05", "--benchmarks", "503.bwavez"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "503.bwavez" in err
    assert BENCH in err  # names the valid benchmarks
    assert len(ResultStore(tmp_path)) == 1

    # Spelled right, the same gc keeps the cell.
    assert main(["store", "gc", "--store-dir", str(tmp_path),
                 "--scale", "0.05", "--benchmarks", BENCH]) == 0
    assert "1 kept, 0 dropped" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["grid", "--benchmarks", "nope"],
    ["run", "table1", "--benchmarks", "nope"],
    ["profile", "--benchmark", "nope"],
    ["pipeview", "nope"],
], ids=lambda argv: argv[0])
def test_cli_unknown_benchmark_is_a_usage_error(tmp_path, monkeypatch,
                                                capsys, argv):
    monkeypatch.chdir(tmp_path)  # where a default store would appear
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "nope" in err
    assert not any(tmp_path.iterdir())


def test_cli_store_failures(tmp_path, capsys):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    # A clean store exits 0 and says so.
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 0
    assert "0 recorded" in capsys.readouterr().out

    store.save_failure(CellFailure(
        key="a" * 64, benchmark=BENCH, config_name="small",
        scheme_name="baseline", kind="poisoned", attempts=2, worker="w9",
        error="worker died 2 time(s) holding this cell (last: w9)"))
    # Any recorded failure makes the action exit nonzero (scriptable in
    # CI as a campaign-health check).
    assert main(["store", "failures", "--store-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 recorded" in out
    assert BENCH in out and "poisoned" in out and "x2" in out
    assert "worker died" in out


def test_cli_store_reports_unreadable_failure_records(tmp_path, capsys):
    """A failure file that holds no readable record is named by both
    ``store failures`` and ``store stats``, never silently skipped."""
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    valid = store.save_failure(CellFailure(
        key="a" * 64, benchmark=BENCH, config_name="small",
        scheme_name="baseline", kind="deterministic", error="boom"))
    record = json.loads(valid.read_text())
    # A kind this release no longer knows, and a truncated file.
    stale = valid.with_name("stale__%s.json" % ("b" * 12))
    stale.write_text(json.dumps(dict(record, key="b" * 64, kind="timeout")))
    truncated = valid.with_name("cut__%s.json" % ("c" * 12))
    truncated.write_text(valid.read_text()[:40])

    argv = ["--store-dir", str(tmp_path)]
    assert main(["store", "failures"] + argv) == 1
    out = capsys.readouterr().out
    assert "1 recorded, 2 unreadable" in out
    assert stale.name in out and truncated.name in out
    assert main(["store", "stats"] + argv) == 0
    out = capsys.readouterr().out
    assert ("failures recorded: 1, 2 unreadable (%s, %s)"
            % (truncated.name, stale.name)) in out

    # Unreadable records alone still fail the health check.
    valid.unlink()
    assert main(["store", "failures"] + argv) == 1
    assert "0 recorded, 2 unreadable" in capsys.readouterr().out


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


def test_cli_run_all_prints_each_report_once(capsys):
    # figure1 and table3 share one experiment; `run all` renders it once.
    assert main(["run", "all", "--scale", "0.02", "--benchmarks",
                 "548.exchange2", "--no-store"]) == 0
    out = capsys.readouterr().out
    assert out.count("Table 3 / Figure 1 — performance\n") == 1
    assert main(["run", "figure1", "--scale", "0.02", "--benchmarks",
                 "548.exchange2", "--no-store"]) == 0
    assert "Table 3 / Figure 1 — performance\n" in capsys.readouterr().out


def test_cli_run_unknown_experiment(capsys):
    assert main(["run", "definitely-not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


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

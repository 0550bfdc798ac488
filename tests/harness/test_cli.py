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


def test_cli_serve_takes_no_jobs(capsys):
    # serve's cells run on its cluster workers: --jobs would be ignored,
    # so an otherwise runnable serve naming it is a usage error.
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--jobs", "2", "--host", "127.0.0.1", "--port", "0",
              "--local-workers", "1", "--scale", "0.05", "--benchmarks",
              BENCH, "--configs", "small", "--schemes", "baseline",
              "--no-store"])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


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

"""Table 5: IPC loss on BOOM configurations vs gem5-proxy configs."""

from repro.harness.experiments import experiment_table5

from benchmarks.conftest import record_report


def test_table5_boom_vs_gem5(benchmark, runner, results_dir):
    report = benchmark.pedantic(
        experiment_table5, args=(runner,), rounds=1, iterations=1,
    )
    record_report(report, results_dir)
    data = report.data
    # BOOM rows: loss grows with configuration size for each scheme.
    for scheme in ("stt-rename", "stt-issue", "nda"):
        assert data["boom-mega"][scheme] >= data["boom-medium"][scheme] - 0.02
    # gem5 rows exist with plausible baselines (the STT-paper config is
    # a wide, idealised core; the NDA-paper config a mid-size one).
    assert data["gem5-stt"]["baseline_ipc"] > data["gem5-nda"]["baseline_ipc"] * 0.8
    assert "stt-rename" in data["gem5-stt"]
    assert "nda" in data["gem5-nda"]

"""Tests for the experiment harness and gem5 proxy (fast scales)."""

import pytest

from repro.harness.experiments import (
    ExperimentReport,
    experiment_exchange2,
    experiment_figure9,
    experiment_ids,
    experiment_table1,
    run_experiment,
)
from repro.harness.runner import CampaignRunner
from repro.pipeline.config import MEDIUM, MEGA


@pytest.fixture(scope="module")
def runner():
    """A small shared campaign for harness tests."""
    return CampaignRunner(scale=0.1, benchmarks=(
        "503.bwaves", "548.exchange2", "541.leela",
    ))


def test_runner_caches_results(runner):
    first = runner.run("503.bwaves", MEGA, "baseline")
    second = runner.run("503.bwaves", MEGA, "baseline")
    assert first is second


def test_suite_results_ordered(runner):
    results = runner.suite_results(MEGA, "baseline")
    assert [r.program_name for r in results] == list(runner.benchmarks)


def test_experiment_registry_complete():
    ids = experiment_ids()
    for expected in ("table1", "table3", "table4", "table5", "figure6",
                     "figure7", "figure8", "figure9", "figure10",
                     "exchange2", "ablation-store-taints",
                     "ablation-l1-latency"):
        assert expected in ids


def test_unknown_experiment_rejected(runner):
    with pytest.raises(KeyError):
        run_experiment("table99", runner)


def test_table1_report(runner):
    report = experiment_table1(runner)
    assert isinstance(report, ExperimentReport)
    assert "small" in report.text and "mega" in report.text
    assert set(report.data) == {"small", "medium", "large", "mega"}
    assert report.data["mega"] > report.data["small"]


def test_figure9_needs_no_simulation():
    report = experiment_figure9()
    assert "baseline" in report.text
    for config in ("small", "medium", "large", "mega"):
        assert config in report.data
        assert report.data[config]["stt-rename"]["mhz"] > 0


def test_exchange2_report(runner):
    report = experiment_exchange2(runner)
    assert "stt-rename" in report.data
    assert report.data["stt-rename"]["ipc"] > 0
    # NDA makes no forwarding errors here: no ratio against zero.
    errors = report.data["stt-rename"]["stl_forward_errors"]
    assert report.data["nda"]["stl_forward_errors"] == 0 < errors
    assert report.data["error_ratio_vs_nda"] is None
    assert "incurs %d forwarding errors, NDA none" % errors in report.text


def test_exchange2_report_states_a_reversed_ratio():
    from types import SimpleNamespace

    from repro.pipeline.stats import SimStats

    errors = {"stt-rename": 2, "nda": 4}

    class FixedRunner:
        def run(self, benchmark, config, scheme):
            return SimpleNamespace(stats=SimStats(
                stl_forward_errors=errors.get(scheme, 0)))

    report = experiment_exchange2(FixedRunner())
    assert report.data["error_ratio_vs_nda"] == 0.5
    assert "incurs 0.5x the forwarding errors of NDA" in report.text


def test_report_str_renders():
    report = experiment_figure9()
    text = str(report)
    assert report.title in text


def test_gem5_configs():
    from repro.gem5 import GEM5_NDA_CONFIG, GEM5_STT_CONFIG, gem5_config

    assert gem5_config("stt") is GEM5_STT_CONFIG
    assert gem5_config("nda") is GEM5_NDA_CONFIG
    # The Section 9.5 complaint: a 1-cycle L1 in the STT-paper config.
    assert GEM5_STT_CONFIG.mem.l1_latency == 1
    assert GEM5_STT_CONFIG.mem.l1_latency < MEGA.mem.l1_latency
    with pytest.raises(ValueError):
        gem5_config("esp")


def _record_direct_builds(monkeypatch):
    """Record every core table5 and the ablations build off the runner."""
    from repro.harness import experiments

    built = []
    simulate = experiments._simulate_direct

    def recording(runner, benchmark, config, scheme_name, **kwargs):
        built.append((benchmark, config.name, scheme_name))
        return simulate(runner, benchmark, config, scheme_name, **kwargs)

    monkeypatch.setattr(experiments, "_simulate_direct", recording)
    return built


def test_gem5_model_excludes_paper_benchmarks(monkeypatch):
    from repro.gem5 import GEM5_EXCLUDED
    from repro.harness.experiments import experiment_table5

    assert GEM5_EXCLUDED == ("508.namd", "510.parest", "511.povray")
    built = _record_direct_builds(monkeypatch)
    experiment_table5(CampaignRunner(
        scale=0.05, benchmarks=("508.namd", "548.exchange2")))
    # The gem5 rows never simulate a benchmark the paper excluded.
    assert [name for name, _config, _scheme in built] == [
        "548.exchange2"] * 4


def test_gem5_loss_computation():
    from repro.harness.experiments import experiment_table5

    report = experiment_table5(
        CampaignRunner(scale=0.05, benchmarks=("548.exchange2",)))
    for which, scheme in (("stt", "stt-rename"), ("nda", "nda")):
        row = report.data["gem5-" + which]
        assert row["baseline_ipc"] > 0
        assert -0.2 <= row[scheme] <= 1.0


def test_table5_gem5_rows_follow_runner_benchmarks(monkeypatch):
    # Each gem5 row averages the same suite as the BOOM rows it is
    # compared with: the runner's benchmarks minus the exclusions.
    from repro.harness.experiments import experiment_table5

    built = _record_direct_builds(monkeypatch)
    pair = ("503.bwaves", "548.exchange2")
    report = experiment_table5(CampaignRunner(scale=0.05, benchmarks=pair))
    assert built == [
        (name, config, scheme)
        for config, row_scheme in (("gem5-stt", "stt-rename"),
                                   ("gem5-nda", "nda"))
        for scheme in ("baseline", row_scheme)
        for name in pair
    ]
    assert report.data["gem5-nda"]["baseline_ipc"] > 0

"""Cluster telemetry and the metrics pipeline, end to end.

Unit layer: frame stamping (:func:`repro.obs.cell_telemetry`), the
per-worker / per-scheme rollup (:class:`repro.obs.TelemetryAggregate`),
and the JSONL progress mode.  Integration layer: a
real local-workers cluster campaign must surface telemetry through
``executor.last_stats``, and ``cycle_account_breakdown`` over the
resulting store must reproduce a conserved per-scheme stall breakdown
— the ``python -m repro metrics`` contract.
"""

import io
import json

from repro.analysis import cycle_account_breakdown, format_stall_report
from repro.harness.cluster import ClusterExecutor
from repro.harness.progress import ProgressReporter
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.obs import TelemetryAggregate, cell_telemetry
from repro.pipeline.config import SMALL

SUBSET = ("503.bwaves", "548.exchange2")


def simulate_one():
    runner = CampaignRunner(scale=0.05, benchmarks=(SUBSET[0],))
    return runner.run(SUBSET[0], SMALL, "baseline")


# ----------------------------------------------------------------------
# Frame stamping.
# ----------------------------------------------------------------------

def test_cell_telemetry_stamps_frame():
    result = simulate_one()
    frame = cell_telemetry(result, 1.25, peak_rss_kb=4096,
                           diagnostics={"ff_skipped_cycles": 17,
                                        "wall_seconds": 99.0})
    assert frame["wall_seconds"] == 1.25  # diagnostics never override
    assert frame["simulated_cycles"] == result.cycles
    assert frame["committed_instructions"] == \
        result.stats.committed_instructions
    assert frame["peak_rss_kb"] == 4096
    assert frame["ff_skipped_cycles"] == 17
    # Frames must be wire-safe as-is.
    assert json.loads(json.dumps(frame)) == frame


def test_cell_telemetry_optional_fields_absent():
    frame = cell_telemetry(simulate_one(), 0.5)
    assert "peak_rss_kb" not in frame


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------

def _frame(wall, cycles, rss):
    return {"wall_seconds": wall, "simulated_cycles": cycles,
            "committed_instructions": cycles, "replayed_uops": 3,
            "peak_rss_kb": rss}


def test_aggregate_rollup_per_worker_and_scheme():
    agg = TelemetryAggregate()
    agg.add("w1", "baseline", _frame(1.0, 100, 2000))
    agg.add("w1", "nda", _frame(2.0, 300, 5000))
    agg.add("w2", "nda", _frame(0.5, 200, 3000))
    agg.add("w2", "nda", None)  # absent frame: tolerated, not counted

    rollup = agg.rollup()
    assert rollup["cells"] == 3
    assert rollup["wall_seconds"] == 3.5
    assert rollup["per_worker"]["w1"]["cells"] == 2
    # peak RSS aggregates as a max, not a sum.
    assert rollup["per_worker"]["w1"]["peak_rss_kb"] == 5000
    nda = rollup["per_scheme"]["nda"]
    assert nda["cells"] == 2
    assert nda["simulated_cycles"] == 500
    assert nda["replayed_uops"] == 6


def test_empty_rollup():
    agg = TelemetryAggregate()
    assert agg.rollup() == {}


# ----------------------------------------------------------------------
# JSONL progress mode.
# ----------------------------------------------------------------------

def test_progress_json_mode_emits_parseable_snapshots():
    stream = io.StringIO()
    reporter = ProgressReporter(label="grid", stream=stream,
                                min_interval=0.0, mode="json")
    reporter.begin(2)
    reporter.cell_done(worker="w1")
    reporter.cell_done(worker="w2")
    reporter.finish()

    lines = [line for line in stream.getvalue().splitlines() if line]
    assert lines, "json mode emitted nothing"
    for line in lines:
        snap = json.loads(line)
        assert snap["label"] == "grid"
        assert snap["total"] == 2
    final = json.loads(lines[-1])
    assert final["done"] == 2
    assert final["per_worker"] == {"w1": 1, "w2": 1}


def test_progress_mode_validated():
    import pytest
    with pytest.raises(ValueError, match="unknown progress mode"):
        ProgressReporter(mode="yaml")


# ----------------------------------------------------------------------
# Cluster integration + metrics over the persisted store.
# ----------------------------------------------------------------------

def test_cluster_campaign_surfaces_telemetry_and_metrics(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    executor = ClusterExecutor(local_workers=2, wait_timeout=120)
    summary = runner.run_grid(configs=(SMALL,),
                              schemes=("baseline", "fence"),
                              executor=executor)
    assert summary["simulated"] == 4

    rollup = executor.last_stats["telemetry"]
    assert rollup["cells"] == 4
    assert rollup["wall_seconds"] > 0
    assert sum(b["cells"] for b in rollup["per_worker"].values()) == 4
    assert set(rollup["per_scheme"]) == {"baseline", "fence"}
    for bucket in rollup["per_worker"].values():
        assert bucket.get("peak_rss_kb", 0) > 0

    # The persisted cells carry their cycle accounts; the metrics
    # breakdown over them must reproduce a conserved per-scheme view.
    breakdown = cycle_account_breakdown(store.iter_results())
    assert set(breakdown) == {"baseline", "fence"}
    for scheme, bucket in breakdown.items():
        assert bucket["cells"] == 2
        assert bucket["conserved"], "%s failed conservation" % scheme
        assert bucket["slots"] == sum(bucket["leaves"].values()) + \
            bucket["committed"]
    assert "scheme_delayed" not in breakdown["baseline"]["leaves"]

    report = format_stall_report(breakdown)
    assert "baseline" in report and "fence" in report
    assert "conservation: ok" in report
    assert "conservation: VIOLATED" not in report

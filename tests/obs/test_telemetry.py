"""Campaign progress and the metrics pipeline, end to end.

Unit layer: the JSONL progress mode.  Integration layer: a real
local-workers cluster campaign persists its cells' cycle accounts,
and ``cycle_account_breakdown`` over the resulting store must
reproduce a conserved per-scheme stall breakdown — the ``python -m
repro metrics`` contract.
"""

import io
import json

import pytest

from repro.analysis import cycle_account_breakdown, format_stall_report
from repro.harness.cluster import ClusterExecutor
from repro.harness.progress import ProgressReporter
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import SMALL
from tests.conftest import bounded

SUBSET = ("503.bwaves", "548.exchange2")


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
        assert sorted(snap) == [
            "cells_per_second", "done", "elapsed_seconds", "eta_seconds",
            "failed", "label", "per_worker", "total"]
        assert snap["label"] == "grid"
        assert snap["total"] == 2
    final = json.loads(lines[-1])
    assert final["done"] == 2 and final["failed"] == 0
    assert final["per_worker"] == {"w1": 1, "w2": 1}


def test_progress_mode_validated():
    with pytest.raises(ValueError, match="unknown progress mode"):
        ProgressReporter(mode="yaml")


# ----------------------------------------------------------------------
# Cluster campaign + metrics over the persisted store.
# ----------------------------------------------------------------------

def test_cluster_campaign_surfaces_metrics(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    summary = bounded(lambda: runner.run_grid(
        configs=(SMALL,), schemes=("baseline", "fence"),
        executor=ClusterExecutor(local_workers=2)))
    assert summary["simulated"] == 4

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

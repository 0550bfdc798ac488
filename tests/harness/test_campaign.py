"""Campaign-engine tests: cache keys, store round-trips, parallelism."""

import pytest

from repro.harness.parallel import run_cells
from repro.harness.runner import CampaignRunner, shared_runner
from repro.harness.store import ResultStore, simulation_key
from repro.pipeline.config import CoreConfig, MEDIUM, MEGA, SMALL
from repro.pipeline.stats import SimStats

BENCH = "503.bwaves"
SUBSET = ("503.bwaves", "548.exchange2")


# ----------------------------------------------------------------------
# Cache-key collisions (the root bug).
# ----------------------------------------------------------------------

def test_run_simulates_through_simulate_cell(monkeypatch):
    # run() takes the cell path every executor takes: one simulate_cell
    # call with the spec _cell_spec builds, and the same result.
    from repro.harness import parallel
    from repro.harness import runner as runner_module

    calls = []

    def counting(spec):
        calls.append(spec)
        return parallel.simulate_cell(spec)

    monkeypatch.setattr(runner_module, "simulate_cell", counting)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    result = runner.run(BENCH, SMALL, "stt-rename", split_store_taints=True)
    spec = runner._cell_spec(BENCH, SMALL, "stt-rename",
                             {"split_store_taints": True})
    assert calls == [spec]
    assert result.to_dict() == parallel.simulate_cell(spec).to_dict()
    assert runner.run(BENCH, SMALL, "stt-rename",
                      split_store_taints=True) is result
    assert len(calls) == 1


def test_same_name_different_params_distinct_cells():
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    narrow = MEGA.scaled(name="custom", width=1, issue_width=1, mem_width=1)
    wide = MEGA.scaled(name="custom")
    assert narrow.name == wide.name

    first = runner.run(BENCH, narrow, "baseline")
    second = runner.run(BENCH, wide, "baseline")
    assert first is not second
    assert first.stats.cycles != second.stats.cycles
    # Both cells stay cached independently.
    assert runner.run(BENCH, narrow, "baseline") is first
    assert runner.run(BENCH, wide, "baseline") is second


def test_simulation_key_sensitivity():
    base = simulation_key(BENCH, MEGA, "baseline")
    assert base == simulation_key(BENCH, MEGA, "baseline")
    assert base != simulation_key(BENCH, MEGA.scaled(rob_entries=64),
                                  "baseline")
    assert base != simulation_key(
        BENCH, MEGA.scaled(mem=MEGA.mem.__class__(l1_latency=1)), "baseline"
    )
    assert base != simulation_key(BENCH, MEGA, "nda")
    assert base != simulation_key(BENCH, MEGA, "baseline", scale=0.5)
    assert base != simulation_key(BENCH, MEGA, "baseline", seed=1)
    assert base != simulation_key(BENCH, MEGA, "baseline",
                                  model_version="other")
    assert base != simulation_key(
        BENCH, MEGA, "baseline", scheme_kwargs={"split_store_taints": True}
    )
    # Display names carry no identity: renaming a parameter-identical
    # config must hit the same cell.
    assert base == simulation_key(BENCH, MEGA.scaled(name="renamed"),
                                  "baseline")


def test_config_fingerprint_tracks_params_not_name():
    a = CoreConfig(name="custom", width=2, num_phys_regs=80)
    b = CoreConfig(name="custom", width=3, num_phys_regs=80)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == CoreConfig(name="custom", width=2,
                                         num_phys_regs=80).fingerprint()
    assert a.fingerprint() == a.scaled(name="renamed").fingerprint()


# ----------------------------------------------------------------------
# Store round-trips.
# ----------------------------------------------------------------------

def test_store_round_trip(tmp_path):
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    result = runner.run(BENCH, MEDIUM, "nda")
    key = runner.cell_key(BENCH, MEDIUM, "nda")

    store = ResultStore(tmp_path)
    store.save(key, result, meta={"benchmark": BENCH})
    assert key in store
    assert len(store) == 1
    assert store.keys() == [key]

    loaded = store.load(key)
    assert loaded is not None
    assert loaded.program_name == result.program_name
    assert loaded.scheme_name == result.scheme_name
    assert loaded.config_name == result.config_name
    assert loaded.halted == result.halted
    assert loaded.cycles == result.cycles
    assert loaded.regs == result.regs
    assert loaded.memory == result.memory
    assert loaded.stats.to_dict() == result.stats.to_dict()


def test_store_missing_and_clear(tmp_path):
    store = ResultStore(tmp_path)
    assert store.load("0" * 64) is None
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    store.save(key, runner.run(BENCH, SMALL, "baseline"))
    assert len(store) == 1
    store.clear()
    assert len(store) == 0
    assert store.load(key) is None


def test_store_load_many_bulk(tmp_path):
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET)
    store = ResultStore(tmp_path)
    keys = []
    for bench in SUBSET:
        key = runner.cell_key(bench, SMALL, "baseline")
        store.save(key, runner.run(bench, SMALL, "baseline"))
        keys.append(key)
    missing = "0" * 64
    loaded = store.load_many(keys + [missing, keys[0]])  # dup + miss
    assert set(loaded) == set(keys)
    for key in keys:
        assert loaded[key].stats.to_dict() == store.load(key).stats.to_dict()
    assert store.load_many([missing]) == {}


def test_runner_preload_from_store(tmp_path):
    writer = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                            store=ResultStore(tmp_path))
    expected = writer.run(BENCH, SMALL, "baseline")

    reader = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                            store=ResultStore(tmp_path))
    assert reader.preload_from_store([(BENCH, SMALL, "baseline")]) == 1
    key = reader.cell_key(BENCH, SMALL, "baseline")
    assert key in reader._cache
    # suite_results is served from the preloaded cache, not a fresh
    # simulation (identity check: run() returns the cached object).
    results = reader.suite_results(SMALL, "baseline")
    assert results[0] is reader._cache[key]
    assert results[0].stats.to_dict() == expected.stats.to_dict()
    # Second preload is a no-op (everything already cached).
    assert reader.preload_from_store([(BENCH, SMALL, "baseline")]) == 0


def test_store_verify_drops_corrupt_and_stale(tmp_path):
    import json

    from repro.harness.segments import SEGMENT_DIR

    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    result = runner.run(BENCH, SMALL, "baseline")
    # One segment: a record to damage, the healthy cell, a stale stamp.
    store.save("c" * 64, result)
    store.save(key, result)
    stale_data = dict(store.load_envelope(key))
    stale_data["model_version"] = "0.0.0-ancient"
    stale_data["key"] = "d" * 64
    store._append_envelope(stale_data)
    store.close()
    (segment,) = (tmp_path / SEGMENT_DIR).glob("*.seg")
    blob = bytearray(segment.read_bytes())
    blob[16:20] = b"\xff\xff\xff\xff"  # inside the first record
    segment.write_bytes(bytes(blob))

    # JSON files in the root, readable or not, are input for migrate
    # only: verify judges segment records and leaves them untouched.
    corrupt = tmp_path / ("corrupt__x__y__%s.json" % ("b" * 12))
    corrupt.write_text("{not json")
    legacy = tmp_path / ("stale__x__y__%s.json" % ("d" * 12))
    legacy.write_text(json.dumps(stale_data, sort_keys=True))
    before = {path.name: path.read_bytes()
              for path in tmp_path.glob("*.json")}

    summary = store.verify()
    assert summary == {"scanned": 3, "kept": 1, "corrupt": 1, "stale": 1}
    # The damaged segment is set aside (forensics), the healthy cell
    # salvaged, the stale row dropped.
    assert segment.with_name(segment.name + ".corrupt").exists()
    assert store.load(key) is not None
    assert len(store) == 1
    assert store.verify() == {"scanned": 1, "kept": 1, "corrupt": 0,
                              "stale": 0}
    assert {path.name: path.read_bytes()
            for path in tmp_path.glob("*.json")} == before
    assert store.stats()["legacy_cells"] == 2

    # migrate takes the readable file (stamp preserved) and leaves the
    # unreadable one where it was.
    assert store.migrate() == {"migrated": 1, "skipped": 1}
    assert corrupt.exists() and not legacy.exists()
    assert store.load_envelope("d" * 64) == stale_data


def test_store_failure_records_round_trip(tmp_path):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    assert store.failures() == []  # no failures/ dir yet: empty, no error
    failure = CellFailure(key="f" * 64, benchmark="503.bwaves",
                          config_name="small", scheme_name="baseline",
                          kind="poisoned", attempts=3, worker="w1",
                          error="worker died 3 time(s)", traceback=None)
    store.save_failure(failure)
    loaded = store.load_failure("f" * 64)
    assert loaded.to_dict() == failure.to_dict()
    records = store.failures()
    assert len(records) == 1 and records[0].key == "f" * 64
    # Failure records live under failures/ and are invisible to the
    # result index and to verify().
    assert len(store) == 0
    assert store.verify()["scanned"] == 0
    # A late first result clears the record (first-result-wins).
    assert store.clear_failure("f" * 64)
    assert not store.clear_failure("f" * 64)  # idempotent
    assert store.load_failure("f" * 64) is None
    assert store.failures() == []


def test_cell_failure_rejects_unknown_kind():
    from repro.harness.store import CellFailure

    with pytest.raises(ValueError):
        CellFailure(key="0" * 64, benchmark="b", config_name="c",
                    scheme_name="s", kind="cosmic-rays")


def test_store_gc_keeps_only_requested_keys(tmp_path):
    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET)
    keep_key = runner.cell_key(SUBSET[0], SMALL, "baseline")
    drop_key = runner.cell_key(SUBSET[1], SMALL, "nda")
    store.save(keep_key, runner.run(SUBSET[0], SMALL, "baseline"))
    store.save(drop_key, runner.run(SUBSET[1], SMALL, "nda"))

    summary = store.gc([keep_key])
    assert summary["scanned"] == 2
    assert summary["kept"] == 1
    assert summary["dropped"] == 1
    assert summary["bytes_reclaimed"] > 0  # dead bytes compacted away
    assert store.load(keep_key) is not None
    assert store.load(drop_key) is None


def test_stats_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        SimStats.from_dict({"cycles": 1, "bogus_counter": 2})


def test_stats_as_dict_namespaces_extra():
    stats = SimStats(cycles=10, committed_instructions=5,
                     extra={"cycles": 999, "ipc": 999, "l1_hits": 3})
    data = stats.as_dict()
    assert data["cycles"] == 10
    assert data["ipc"] == 0.5
    assert data["extra.cycles"] == 999
    assert data["extra.ipc"] == 999
    assert data["extra.l1_hits"] == 3


# ----------------------------------------------------------------------
# Runner + store + parallel integration.
# ----------------------------------------------------------------------

def test_parallel_grid_matches_serial(tmp_path):
    configs = (MEDIUM, MEGA)
    schemes = ("baseline", "nda")

    serial = CampaignRunner(scale=0.05, benchmarks=SUBSET)
    serial.run_grid(configs=configs, schemes=schemes, jobs=1)

    store = ResultStore(tmp_path)
    parallel = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    summary = parallel.run_grid(configs=configs, schemes=schemes, jobs=4)
    assert summary["total"] == 8
    assert summary["simulated"] == 8

    for config in configs:
        for scheme in schemes:
            for bench in SUBSET:
                a = serial.run(bench, config, scheme)
                b = parallel.run(bench, config, scheme)
                assert a.stats.to_dict() == b.stats.to_dict(), (
                    bench, config.name, scheme)
                assert a.regs == b.regs
                assert a.memory == b.memory


def test_second_grid_run_served_from_store(tmp_path):
    store = ResultStore(tmp_path)
    first = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    cold = first.run_grid(configs=(MEDIUM,), schemes=("baseline", "nda"),
                          jobs=2)
    assert cold["simulated"] == 4

    # Fresh process-equivalent: new runner, same store directory.
    second = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                            store=ResultStore(tmp_path))
    warm = second.run_grid(configs=(MEDIUM,), schemes=("baseline", "nda"),
                           jobs=2)
    assert warm["simulated"] == 0
    assert warm["from_store"] == 4

    # And run() itself consults the store before simulating.
    third = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                           store=ResultStore(tmp_path))
    result = third.run(SUBSET[0], MEDIUM, "baseline")
    assert result.stats.to_dict() == first.run(
        SUBSET[0], MEDIUM, "baseline").stats.to_dict()


def test_cell_batch_dedups_duplicates():
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    cell = (BENCH, SMALL, "baseline")
    summary = runner.run_cell_batch([cell, cell, cell], jobs=1)
    assert summary["total"] == 1
    assert summary["simulated"] == 1


def test_store_sees_external_writer(tmp_path):
    reader = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    assert reader.load(key) is None  # indexes the (empty) directory
    ResultStore(tmp_path).save(key, runner.run(BENCH, SMALL, "baseline"))
    assert reader.load(key) is not None  # mtime gate triggers a refresh


def test_run_cells_serial_fallback():
    spec = (BENCH, SMALL, "baseline", (), 0.05, 2017)
    results = run_cells([spec], jobs=1)
    assert len(results) == 1
    assert results[0].program_name == BENCH
    assert run_cells([], jobs=4) == []


def test_run_cells_propagates_worker_errors():
    bad = ("no.such.benchmark", SMALL, "baseline", (), 0.05, 2017)
    good = (BENCH, SMALL, "baseline", (), 0.05, 2017)
    # Two specs keep jobs=2 after the min(jobs, len(specs)) clamp, so
    # this genuinely exercises the pool path (exception pickled out of
    # a worker and re-raised by pool.map), not the serial fallback.
    with pytest.raises(KeyError):
        run_cells([good, bad], jobs=2)
    with pytest.raises(KeyError):
        run_cells([bad], jobs=1)


def test_experiment_grid_needs():
    from repro.harness.experiments import (
        experiment_grid_needs,
        experiment_ids,
    )

    assert experiment_grid_needs("figure9") is None
    assert experiment_grid_needs("ablation-l1-latency") is None
    configs, schemes, benchmarks = experiment_grid_needs("table1")
    assert schemes == ("baseline",)
    assert benchmarks is None
    assert len(configs) == 4
    configs, schemes, benchmarks = experiment_grid_needs("exchange2")
    assert [c.name for c in configs] == ["mega"]
    assert benchmarks == ("548.exchange2",)
    # table5 only reads the gem5-comparable subset; pre-population must
    # not pay for the excluded benchmarks.
    from repro.gem5.model import GEM5_EXCLUDED

    _configs, _schemes, benchmarks = experiment_grid_needs("table5")
    assert benchmarks is not None
    assert not set(benchmarks) & set(GEM5_EXCLUDED)
    assert len(benchmarks) == 19
    # Every registered experiment either declares needs or is known
    # cache-free.
    cache_free = {"figure9", "ablation-store-taints", "ablation-l1-latency"}
    for experiment_id in experiment_ids():
        needs = experiment_grid_needs(experiment_id)
        assert (needs is None) == (experiment_id in cache_free), experiment_id
    # The needs declaration lives *in* the registry entry, next to the
    # callable it describes — no parallel table to drift.
    from repro.harness.experiments import EXPERIMENTS

    for experiment_id, entry in EXPERIMENTS.items():
        assert callable(entry.func), experiment_id
        assert entry.needs is None or callable(entry.needs), experiment_id
    assert experiment_grid_needs("unknown-experiment") is None


# ----------------------------------------------------------------------
# Satellite regressions.
# ----------------------------------------------------------------------

def test_result_is_idempotent():
    from repro.pipeline.core import OoOCore
    from repro.workloads.kernels import streaming_kernel

    core = OoOCore(streaming_kernel(iterations=30), config=MEDIUM,
                   scheme="nda", warm_caches=True)
    first = core.run()
    again = core.result()
    assert first.stats.extra == again.stats.extra
    assert first.stats.to_dict() == again.stats.to_dict()
    # The live counters never absorbed the merged extras.
    assert "accesses" not in core.stats.extra


def test_shared_runner_keys_on_benchmarks():
    full = shared_runner(scale=0.07)
    subset = shared_runner(scale=0.07, benchmarks=SUBSET)
    assert subset is not full
    assert subset.benchmarks == SUBSET
    assert len(full.benchmarks) > len(SUBSET)
    assert shared_runner(scale=0.07, benchmarks=SUBSET) is subset


def test_figure7_headers_follow_configs():
    from repro.harness.experiments import experiment_figure7

    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    custom = MEGA.scaled(name="mega-variant", rob_entries=64)
    report = experiment_figure7(runner, configs=(SMALL, custom))
    assert "mega-variant" in report.text
    assert "medium" not in report.text
    for scheme_data in report.data.values():
        assert set(scheme_data) == {"small", "mega-variant"}

"""Campaign-engine tests: cache keys, store round-trips, parallelism."""

import copy
import dataclasses
import pickle

import pytest

from repro.harness.executor import PoolExecutor, SerialExecutor
from repro.harness.progress import ProgressReporter
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore, simulation_key
from repro.pipeline.config import (
    CoreConfig,
    MEDIUM,
    MEGA,
    SMALL,
    config_from_dict,
)
from repro.pipeline.stats import SimStats

BENCH = "503.bwaves"
SUBSET = ("503.bwaves", "548.exchange2")


# ----------------------------------------------------------------------
# Cache-key collisions (the root bug).
# ----------------------------------------------------------------------

def test_run_simulates_through_simulate_cell(monkeypatch):
    # run() takes the cell path every executor takes: one simulate_cell
    # call with the spec _cell_spec builds, and the same result.
    from repro.harness import executor as executor_module
    from repro.harness import parallel

    calls = []

    def counting(spec):
        calls.append(spec)
        return parallel.simulate_cell(spec)

    monkeypatch.setattr(executor_module, "simulate_cell", counting)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    result = runner.run(BENCH, SMALL, "stt-rename", split_store_taints=True)
    spec = runner._cell_spec(BENCH, SMALL, "stt-rename",
                             {"split_store_taints": True})
    assert calls == [spec]
    assert result.to_dict() == parallel.simulate_cell(spec).to_dict()
    assert runner.run(BENCH, SMALL, "stt-rename",
                      split_store_taints=True) is result
    assert len(calls) == 1


def test_scheme_aliases_share_one_cell(monkeypatch):
    # The registry accepts underscored spellings everywhere; a runner
    # asked for both spellings must simulate (and cache) one cell.
    from repro.harness import executor as executor_module
    from repro.harness import parallel

    calls = []

    def counting(spec):
        calls.append(spec)
        return parallel.simulate_cell(spec)

    monkeypatch.setattr(executor_module, "simulate_cell", counting)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    result = runner.run(BENCH, SMALL, "stt-rename")
    assert runner.run(BENCH, SMALL, "stt_rename") is result
    assert len(calls) == 1
    assert len(runner._cache) == 1


def test_runner_keys_each_cell_once(monkeypatch, tmp_path):
    # Every runner entry point reads the grid through cell_key; after
    # the first ask, each cell's key is a memo lookup.
    from repro.harness import runner as runner_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:3])
        return simulation_key(*args, **kwargs)

    monkeypatch.setattr(runner_module, "simulation_key", counting)
    runner = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                            store=ResultStore(tmp_path))
    cells = [(bench, SMALL, "stt-rename") for bench in SUBSET]
    first = runner.suite_results(SMALL, "stt-rename")
    assert runner.suite_results(SMALL, "stt-rename") == first
    assert runner.run(BENCH, SMALL, "stt-rename") is first[0]
    # The memo is keyed on the fingerprint: a renamed, parameter-
    # identical config is the same cell.
    assert runner.run(BENCH, SMALL.scaled(name="renamed"),
                      "stt-rename") is first[0]
    assert runner.run_cell_batch(cells) == {
        "total": len(SUBSET), "cached": len(SUBSET), "from_store": 0,
        "simulated": 0, "failed": 0}
    assert len(calls) == len(SUBSET)

    # Scheme kwargs are part of the identity: a cell of its own.
    split = runner.run(BENCH, SMALL, "stt-rename", split_store_taints=True)
    assert split is not first[0]
    assert len(calls) == len(SUBSET) + 1
    assert runner.cell_key(BENCH, SMALL, "stt-rename",
                           {"split_store_taints": True}) == simulation_key(
        BENCH, SMALL, "stt-rename", {"split_store_taints": True},
        scale=0.05, seed=runner.seed)


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
    # Scheme aliases name one cell: the key hashes the canonical name.
    rename = simulation_key(BENCH, MEGA, "stt-rename")
    assert rename == simulation_key(BENCH, MEGA, "stt_rename")
    assert rename == simulation_key(BENCH, MEGA, "STT_Rename")
    # Display names carry no identity: renaming a parameter-identical
    # config must hit the same cell.
    assert base == simulation_key(BENCH, MEGA.scaled(name="renamed"),
                                  "baseline")


def test_config_fingerprint_tracks_params_not_name():
    def fresh(width=2):
        return CoreConfig(name="custom", width=width, num_phys_regs=80)

    a = fresh()
    b = fresh(width=3)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == fresh().fingerprint()
    assert a.fingerprint() == a.scaled(name="renamed").fingerprint()
    # The digest memoised on ``a`` never leaks: a derived config hashes
    # its own fields, and the wire form, equality, hash, repr and copies
    # see dataclass fields only.
    assert a.scaled(width=3).fingerprint() == fresh(width=3).fingerprint()
    assert set(a.to_dict()) == {f.name for f in dataclasses.fields(a)}
    assert config_from_dict(a.to_dict()) == a
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert copied == a
        assert copied.fingerprint() == a.fingerprint()
    assert hash(a) == hash(fresh())
    assert repr(a) == repr(fresh())


def test_config_fingerprint_hashes_once_per_instance(monkeypatch):
    calls = []
    to_dict = CoreConfig.to_dict

    def counting(self):
        calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(CoreConfig, "to_dict", counting)
    config = CoreConfig(name="custom", width=2, num_phys_regs=80)
    digest = config.fingerprint()
    assert config.fingerprint() == digest
    assert len(calls) == 1


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


def test_runner_preload_from_store(tmp_path, monkeypatch):
    # A runner over a filled store reads a batch in one bulk read and
    # simulates nothing; run() and suite_results() take the same path.
    from repro.harness import executor as executor_module

    writer = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                            store=ResultStore(tmp_path))
    expected = writer.run(BENCH, SMALL, "baseline")

    def refuse(spec):
        raise AssertionError("a stored cell was simulated")

    monkeypatch.setattr(executor_module, "simulate_cell", refuse)
    reader = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                            store=ResultStore(tmp_path))
    summary = reader.run_cell_batch([(BENCH, SMALL, "baseline")])
    assert (summary["from_store"], summary["simulated"]) == (1, 0)
    key = reader.cell_key(BENCH, SMALL, "baseline")
    assert key in reader._cache
    # suite_results is served from the cache the batch filled, not a
    # fresh simulation (identity check: run() returns the cached object).
    results = reader.suite_results(SMALL, "baseline")
    assert results[0] is reader._cache[key]
    assert results[0].stats.to_dict() == expected.stats.to_dict()
    # A second batch is served from the in-process cache.
    assert reader.run_cell_batch([(BENCH, SMALL, "baseline")])["cached"] == 1
    # A fresh runner's suite_results and run() read the store alike.
    fresh = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                           store=ResultStore(tmp_path))
    (suite,) = fresh.suite_results(SMALL, "baseline")
    assert suite.stats.to_dict() == expected.stats.to_dict()
    other = CampaignRunner(scale=0.05, benchmarks=(BENCH,),
                           store=ResultStore(tmp_path))
    assert other.run(BENCH, SMALL, "baseline").stats.to_dict() \
        == expected.stats.to_dict()


def test_run_result_deletes_the_cells_failure_record(tmp_path):
    # Every runner path persists through ResultStore.save, which drops
    # the cell's failure record with the INSERT: a cell is never both.
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,), store=store)
    key = runner.cell_key(BENCH, SMALL, "baseline")
    store.save_failure(CellFailure(
        key=key, benchmark=BENCH, config_name="small",
        scheme_name="baseline", kind="deterministic", error="boom"))
    assert store.load_failure(key) is not None
    runner.run(BENCH, SMALL, "baseline")
    assert key in store
    assert store.failures() == []
    assert store.stats()["failures"] == 0


def test_store_verify_drops_corrupt_and_stale(tmp_path):
    import sqlite3

    from repro.harness.store import MANIFEST_NAME

    store = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,), store=store)
    cells = [(BENCH, SMALL, "baseline"), (BENCH, SMALL, "nda")]
    runner.run_cell_batch(cells)
    key, damaged = (runner.cell_key(*cell) for cell in cells)
    # A stale stamp beside the two grid cells.
    stale_data = store.load_envelope(key)
    stale_data["model_version"] = "0.0.0-ancient"
    stale_data["key"] = "d" * 64
    stats = SimStats.from_dict(stale_data["result"].pop("stats"))
    store._insert_envelope(stale_data, stats)
    # Damage one row's record in place.
    conn = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    (record,) = conn.execute("SELECT record FROM cells WHERE key=?",
                             (damaged,)).fetchone()
    with conn:
        conn.execute("UPDATE cells SET record=? WHERE key=?",
                     (record[:10] + b"\xff" * 4 + record[14:], damaged))
    conn.close()

    assert store.load(damaged) is None
    with pytest.raises(ValueError, match="store verify"):
        store.load_many([damaged])[damaged].regs
    summary = store.verify()
    assert summary == {"scanned": 3, "kept": 1, "corrupt": 1, "stale": 1}
    assert store.keys() == [key]
    assert store.verify() == {"scanned": 1, "kept": 1, "corrupt": 0,
                              "stale": 0}
    # The next campaign simulates exactly the dropped cell.
    rerun = CampaignRunner(scale=0.05, benchmarks=(BENCH,), store=store)
    summary = rerun.run_cell_batch(cells)
    assert (summary["from_store"], summary["simulated"]) == (1, 1)
    assert store.load(damaged) is not None


def test_store_failure_records_round_trip(tmp_path):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    assert store.failures() == []  # no database yet: empty, no error
    failure = CellFailure(key="f" * 64, benchmark="503.bwaves",
                          config_name="small", scheme_name="baseline",
                          kind="poisoned", attempts=3, worker="w1",
                          error="worker died 3 time(s)", traceback=None)
    store.save_failure(failure)
    store.save_failure(failure)  # re-recorded: still one row
    assert store.load_failure("f" * 64) == failure
    assert store.failures() == [failure]
    assert store.stats()["failures"] == 1
    # Failure records are rows of their own table, invisible to the
    # result index and to verify().
    assert len(store) == 0
    assert store.verify()["scanned"] == 0
    # A late first result clears the record (first-result-wins).
    assert store.clear_failure("f" * 64)
    assert not store.clear_failure("f" * 64)  # idempotent
    assert store.load_failure("f" * 64) is None
    assert store.failures() == []


def test_clear_drops_failure_records_with_the_cells(tmp_path):
    from repro.harness.store import CellFailure

    store = ResultStore(tmp_path)
    store.save_failure(CellFailure(
        key="f" * 64, benchmark=BENCH, config_name="small",
        scheme_name="baseline", kind="deterministic", error="boom"))
    store.clear()
    assert store.failures() == []
    assert not any(tmp_path.iterdir())


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
    assert summary["bytes_reclaimed"] > 0  # VACUUM shrank the file
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
    serial.run_grid(configs=configs, schemes=schemes)

    store = ResultStore(tmp_path)
    parallel = CampaignRunner(scale=0.05, benchmarks=SUBSET, store=store)
    summary = parallel.run_grid(configs=configs, schemes=schemes,
                                executor=PoolExecutor(jobs=4))
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
                          executor=PoolExecutor(jobs=2))
    assert cold["simulated"] == 4

    # Fresh process-equivalent: new runner, same store directory.
    second = CampaignRunner(scale=0.05, benchmarks=SUBSET,
                            store=ResultStore(tmp_path))
    warm = second.run_grid(configs=(MEDIUM,), schemes=("baseline", "nda"),
                           executor=PoolExecutor(jobs=2))
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
    summary = runner.run_cell_batch([cell, cell, cell])
    assert summary["total"] == 1
    assert summary["simulated"] == 1


def test_store_sees_external_writer(tmp_path):
    reader = ResultStore(tmp_path)
    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    key = runner.cell_key(BENCH, SMALL, "baseline")
    assert reader.load(key) is None  # indexes the (empty) directory
    ResultStore(tmp_path).save(key, runner.run(BENCH, SMALL, "baseline"))
    assert reader.load(key) is not None  # mtime gate triggers a refresh


def test_pool_executor_serial_fallback():
    spec = (BENCH, SMALL, "baseline", (), 0.05, 2017)
    progress = ProgressReporter(label="test").begin(1)
    results = PoolExecutor(jobs=1).run([spec], progress=progress)
    assert len(results) == 1
    assert results[0].program_name == BENCH
    # One job runs in-process: no pool worker is ever forked.
    assert progress.per_worker == {"serial": 1}
    assert PoolExecutor(jobs=4).run([]) == []


def test_executors_propagate_worker_errors():
    bad = ("no.such.benchmark", SMALL, "baseline", (), 0.05, 2017)
    good = (BENCH, SMALL, "baseline", (), 0.05, 2017)
    # Two specs keep jobs=2 after the min(jobs, len(specs)) clamp, so
    # this genuinely exercises the pool path (exception pickled out of
    # a worker and re-raised by the pool), not the serial fallback.
    with pytest.raises(KeyError):
        PoolExecutor(jobs=2).run([good, bad])
    with pytest.raises(KeyError):
        SerialExecutor().run([bad])


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
    from repro.gem5 import GEM5_EXCLUDED

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


def test_figure7_headers_follow_configs():
    from repro.harness.experiments import experiment_figure7
    from repro.pipeline.config import named_configs

    runner = CampaignRunner(scale=0.05, benchmarks=(BENCH,))
    report = experiment_figure7(runner)
    names = [config.name for config in named_configs()]
    # One table per scheme; its columns and data are the configs it
    # iterated, in order.
    sections = report.text.split("\n\n")
    assert len(sections) == len(report.data)
    for section in sections:
        assert section.splitlines()[1].split() == ["Benchmark"] + names
    for scheme_data in report.data.values():
        assert list(scheme_data) == names

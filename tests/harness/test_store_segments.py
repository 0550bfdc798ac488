"""Segment-backed ResultStore: format, concurrency, and recovery.

Complements the API-contract tests in ``test_campaign.py`` with the
format-level guarantees the segment store introduces: full-key
indexing (no digest-prefix ambiguity), O(index) key listing,
writer/reader interleaving, torn-record crash recovery, corrupt
segment quarantine, migrating JSON-per-cell stores from earlier
releases, which no read path serves until then, and campaign cells
whose memory is stored as the words they changed.
"""

import json
import shutil
import sqlite3
import threading

import pytest

from repro.harness import store as store_module
from repro.harness.segments import (
    MANIFEST_NAME,
    SEGMENT_DIR,
    SEGMENT_SUFFIX,
    Manifest,
)
from repro.harness.store import (
    MODEL_VERSION,
    ResultStore,
    _StoredResult,
    cell_filename,
)
from repro.harness.storebench import synthetic_key, synthetic_result
from repro.pipeline.core import SimulationResult


def populate(root, count, start=0):
    store = ResultStore(root)
    keys = []
    for index in range(start, start + count):
        key = synthetic_key(index)
        store.save(key, synthetic_result(index), {"index": index})
        keys.append(key)
    store.close()
    return keys


def segment_files(root):
    return sorted((root / SEGMENT_DIR).glob("*" + SEGMENT_SUFFIX))


# ----------------------------------------------------------------------
# Indexing: full keys, zero file opens, no prefix ambiguity.
# ----------------------------------------------------------------------

def test_digest_prefix_collisions_are_not_ambiguous(tmp_path):
    # Two keys sharing the legacy 12-hex filename prefix: the legacy
    # index could only hold one; the manifest keys on the full digest.
    key_a = "ab" * 6 + "0" * 52
    key_b = "ab" * 6 + "f" * 52
    store = ResultStore(tmp_path)
    store.save(key_a, synthetic_result(1))
    store.save(key_b, synthetic_result(2))
    assert len(store) == 2
    assert sorted(store.keys()) == sorted([key_a, key_b])
    assert store.load(key_a).to_dict() == synthetic_result(1).to_dict()
    assert store.load(key_b).to_dict() == synthetic_result(2).to_dict()
    loaded = store.load_many([key_a, key_b])
    assert loaded[key_a].stats.cycles == synthetic_result(1).stats.cycles
    assert loaded[key_b].stats.cycles == synthetic_result(2).stats.cycles


def test_keys_and_len_never_open_segment_files(tmp_path):
    keys = populate(tmp_path, 25)
    store = ResultStore(tmp_path)
    # Deleting every segment file cannot hide cells from the index:
    # keys()/len()/contains answer from the manifest alone.
    shutil.rmtree(tmp_path / SEGMENT_DIR)
    assert sorted(store.keys()) == sorted(keys)
    assert len(store) == 25
    assert keys[0] in store
    # Nor a statistics-only scan (the metrics pass): iter_results
    # serves every cell's statistics from the manifest.
    assert (sorted(row.stats.cycles for row in store.iter_results())
            == sorted(synthetic_result(i).stats.cycles for i in range(25)))


def test_save_load_round_trip_bit_identical(tmp_path):
    store = ResultStore(tmp_path)
    result = synthetic_result(7)
    key = synthetic_key(7)
    store.save(key, result, {"benchmark": result.program_name})
    assert store.load(key).to_dict() == result.to_dict()
    # Both bulk reads return lazily-decoded results that decode to the
    # identical dict.
    assert store.load_many([key])[key].to_dict() == result.to_dict()
    (row,) = store.iter_results()
    assert isinstance(row, _StoredResult)
    assert row.stats.to_dict() == result.stats.to_dict()
    assert row.to_dict() == result.to_dict()


def test_dict_form_memory_from_1_1_0_envelopes_still_loads(tmp_path):
    # Stores written by 1.1.0 before the packed memory form hold
    # {"address": value} objects under the same model version; every
    # read path decodes them to the image from_dict gives.
    result = synthetic_result(3)
    key = synthetic_key(3)
    data = result.to_dict()
    data["memory"] = {str(addr): value
                      for addr, value in result.memory.items()}
    store = ResultStore(tmp_path)
    store._append_envelope({"key": key, "model_version": MODEL_VERSION,
                            "meta": {}, "result": data})
    want = SimulationResult.from_dict(data).memory
    assert want == result.memory
    assert ResultStore(tmp_path).load(key).memory == want
    lazy = ResultStore(tmp_path).load_many([key])[key]
    assert isinstance(lazy, _StoredResult)
    assert lazy.memory == want
    assert lazy.to_dict() == result.to_dict()


# ----------------------------------------------------------------------
# Concurrency: a streaming writer interleaved with a reader.
# ----------------------------------------------------------------------

def test_concurrent_writer_and_reader(tmp_path):
    count = 120
    keys = [synthetic_key(i) for i in range(count)]
    errors = []
    done = threading.Event()

    def writer():
        try:
            store = ResultStore(tmp_path)
            for index in range(count):
                store.save(keys[index], synthetic_result(index))
            store.close()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                store = ResultStore(tmp_path)
                loaded = store.load_many(keys)
                # Every hit must already be fully readable (no torn
                # reads): records flush before their index row lands.
                for result in loaded.values():
                    assert result.stats.cycles > 0
                len(store), store.keys()
                store.close()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer),
               threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    final = ResultStore(tmp_path)
    loaded = final.load_many(keys)
    assert len(loaded) == count
    for index, key in enumerate(keys):
        assert loaded[key].to_dict() == synthetic_result(index).to_dict()


def test_external_writer_instance_is_visible_immediately(tmp_path):
    # Two instances, interleaved writes: each appends to its own
    # segment, both land in the shared manifest.
    a, b = ResultStore(tmp_path), ResultStore(tmp_path)
    a.save(synthetic_key(1), synthetic_result(1))
    b.save(synthetic_key(2), synthetic_result(2))
    a.save(synthetic_key(3), synthetic_result(3))
    assert len(segment_files(tmp_path)) == 2
    reader = ResultStore(tmp_path)
    assert len(reader) == 3
    assert reader.load(synthetic_key(2)) is not None


# ----------------------------------------------------------------------
# Crash recovery: torn appends, corrupt records, quarantine.
# ----------------------------------------------------------------------

def test_torn_tail_append_is_invisible_and_reclaimed(tmp_path):
    keys = populate(tmp_path, 5)
    (segment,) = segment_files(tmp_path)
    intact = segment.stat().st_size
    # Simulate a crash mid-append: a half-written record at the tail,
    # never indexed (the row only commits after the record flushes).
    with open(segment, "ab") as handle:
        handle.write(b"SBR1\x00\x00\xff\xff\xe5\x8dtorn")
    torn = segment.stat().st_size - intact
    store = ResultStore(tmp_path)
    assert len(store) == 5
    for index, key in enumerate(keys):
        assert store.load(key).to_dict() == synthetic_result(index).to_dict()
    assert store.verify() == {"scanned": 5, "kept": 5, "corrupt": 0,
                              "stale": 0}
    # New writers never append to an existing segment, so the torn
    # tail can never corrupt a later record; compaction drops it.
    store.save(synthetic_key(99), synthetic_result(99))
    assert len(segment_files(tmp_path)) == 2
    summary = store.compact()
    assert summary["cells"] == 6
    assert summary["bytes_after"] == summary["bytes_before"] - torn
    final = ResultStore(tmp_path)
    assert len(final) == 6
    assert final.load(keys[3]).to_dict() == synthetic_result(3).to_dict()


def test_verify_quarantines_corrupt_segment_and_salvages_rest(tmp_path):
    keys = populate(tmp_path, 4)
    (segment,) = segment_files(tmp_path)
    # Flip bytes inside the first record's payload: its CRC dies, the
    # other three records in the same segment stay healthy.
    blob = bytearray(segment.read_bytes())
    blob[16:20] = b"\xff\xff\xff\xff"
    segment.write_bytes(bytes(blob))

    store = ResultStore(tmp_path)
    assert store.load(keys[0]) is None  # corrupt: absent, not wrong
    summary = store.verify()
    assert summary == {"scanned": 4, "kept": 3, "corrupt": 1, "stale": 0}
    # The damaged segment is set aside for post-mortem, not destroyed;
    # healthy records were salvaged into a fresh segment.
    assert not segment.exists()
    assert segment.with_name(segment.name + ".corrupt").exists()
    assert len(store) == 3
    for index in (1, 2, 3):
        assert (store.load(keys[index]).to_dict()
                == synthetic_result(index).to_dict())
    # A second sweep is clean.
    assert store.verify() == {"scanned": 3, "kept": 3, "corrupt": 0,
                              "stale": 0}


def test_verify_drops_stale_model_versions(tmp_path):
    store = ResultStore(tmp_path)
    store.save(synthetic_key(1), synthetic_result(1))
    stale = dict(store.load_envelope(synthetic_key(1)))
    stale["key"] = "e" * 64
    stale["model_version"] = "0.0.0-ancient"
    store._append_envelope(stale)
    assert len(store) == 2
    summary = store.verify()
    assert summary == {"scanned": 2, "kept": 1, "corrupt": 0, "stale": 1}
    assert len(store) == 1
    assert store.load(synthetic_key(1)) is not None


def test_compact_folds_single_cell_segments(tmp_path):
    # One writer instance per cell — the crash-resume worst case —
    # leaves one segment per cell; compact folds them into one.
    for index in range(8):
        store = ResultStore(tmp_path)
        store.save(synthetic_key(index), synthetic_result(index))
        store.close()
    assert len(segment_files(tmp_path)) == 8
    store = ResultStore(tmp_path)
    summary = store.compact()
    assert summary["segments_before"] == 8
    assert summary["segments_after"] == 1
    assert summary["cells"] == 8
    assert len(segment_files(tmp_path)) == 1
    reloaded = ResultStore(tmp_path)
    for index in range(8):
        assert (reloaded.load(synthetic_key(index)).to_dict()
                == synthetic_result(index).to_dict())


def test_segments_roll_at_the_seal_threshold(tmp_path, monkeypatch):
    # A synthetic record is about 2.7 kB compressed: a threshold of a
    # few records makes saving, then compacting, cross it many times.
    monkeypatch.setattr(store_module, "SEGMENT_BYTES", 8 * 1024)
    keys = populate(tmp_path, 20)
    saved = segment_files(tmp_path)
    assert len(saved) >= 3
    assert all(path.stat().st_size <= 8 * 1024 for path in saved)
    store = ResultStore(tmp_path)
    for index, key in enumerate(keys):
        assert store.load(key).to_dict() == synthetic_result(index).to_dict()
    assert store.verify() == {"scanned": 20, "kept": 20, "corrupt": 0,
                              "stale": 0}

    # Compaction packs fuller segments but still rolls at the threshold.
    monkeypatch.setattr(store_module, "SEGMENT_BYTES", 20 * 1024)
    summary = store.compact()
    assert summary["cells"] == 20
    assert 1 < summary["segments_after"] < len(saved)
    compacted = segment_files(tmp_path)
    assert len(compacted) == summary["segments_after"]
    assert all(path.stat().st_size <= 20 * 1024 for path in compacted)
    manifest = Manifest(tmp_path / MANIFEST_NAME)
    assert [row[2] for row in manifest.segments()] == [1] * len(compacted)
    manifest.close()
    reloaded = ResultStore(tmp_path)
    for index, key in enumerate(keys):
        assert (reloaded.load(key).to_dict()
                == synthetic_result(index).to_dict())


def test_gc_reports_bytes_reclaimed(tmp_path):
    keys = populate(tmp_path, 10)
    store = ResultStore(tmp_path)
    summary = store.gc(keys[:3])
    assert summary["scanned"] == 10
    assert summary["kept"] == 3
    assert summary["dropped"] == 7
    assert summary["bytes_reclaimed"] > 0
    assert len(store) == 3
    stats = store.stats()
    assert stats["cells"] == 3 and stats["segments"] == 1


def test_store_stats_accounting(tmp_path):
    populate(tmp_path, 12)
    stats = ResultStore(tmp_path).stats()
    assert stats["format"] == "segments-v1"
    assert stats["cells"] == 12
    assert stats["legacy_cells"] == 0 and not stats["legacy"]
    assert stats["segments"] == 1
    assert stats["segment_bytes"] == stats["live_bytes"]  # no dead bytes
    assert stats["raw_bytes"] > stats["live_bytes"]  # compression won
    assert stats["compression_ratio"] > 1.0
    assert stats["disk_bytes"] >= stats["segment_bytes"]


def test_clear_removes_manifest_and_segments(tmp_path):
    keys = populate(tmp_path, 4)
    store = ResultStore(tmp_path)
    store.clear()
    assert len(store) == 0
    assert store.load(keys[0]) is None
    assert not segment_files(tmp_path)
    # The store stays usable after a clear.
    store.save(keys[0], synthetic_result(0))
    assert len(store) == 1


# ----------------------------------------------------------------------
# Format errors and JSON-per-cell stores from earlier releases.
# ----------------------------------------------------------------------

def test_foreign_manifest_format_names_formats_and_path(tmp_path):
    populate(tmp_path, 1)
    conn = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    conn.execute("UPDATE meta SET v='segments-v0' WHERE k='format'")
    conn.commit()
    conn.close()
    with pytest.raises(RuntimeError) as info:
        len(ResultStore(tmp_path))
    message = str(info.value)
    assert "'segments-v0'" in message and "'segments-v1'" in message
    assert str(tmp_path) in message
    # migrate converts root JSON files only; it cannot rebuild this.
    assert "migrate" not in message


def legacy_populate(root, count):
    """Write ``count`` cells in the JSON-per-cell layout of earlier
    releases: one sorted-key envelope per file in the store root."""
    keys = []
    for index in range(count):
        key = synthetic_key(index)
        result = synthetic_result(index)
        envelope = {"key": key, "model_version": MODEL_VERSION,
                    "meta": {"index": index}, "result": result.to_dict()}
        name = cell_filename(result.program_name, result.config_name,
                             result.scheme_name, key)
        with open(root / name, "w") as handle:
            json.dump(envelope, handle, sort_keys=True)
        keys.append(key)
    return keys


def test_legacy_files_are_invisible_until_migrated(tmp_path):
    keys = legacy_populate(tmp_path, 5)
    store = ResultStore(tmp_path)
    assert len(store) == 0
    assert store.keys() == []
    assert store.load(keys[2]) is None
    assert store.load_many(keys) == {}
    assert keys[0] not in store
    stats = store.stats()
    assert stats["legacy_cells"] == 5 and stats["legacy"]
    assert stats["legacy_bytes"] > 0

    assert store.migrate() == {"migrated": 5, "skipped": 0}
    assert len(store) == 5
    loaded = store.load_many(keys)
    for index, key in enumerate(keys):
        assert store.load(key).to_dict() == synthetic_result(index).to_dict()
        assert loaded[key].to_dict() == synthetic_result(index).to_dict()
    assert store.stats()["legacy_cells"] == 0


def test_migrate_round_trip_preserves_envelopes(tmp_path):
    keys = legacy_populate(tmp_path, 6)
    originals = {}
    for path in tmp_path.glob("*.json"):
        with open(path) as handle:
            data = json.load(handle)
        originals[data["key"]] = data
    assert len(originals) == 6

    store = ResultStore(tmp_path)
    summary = store.migrate()
    assert summary == {"migrated": 6, "skipped": 0}
    assert not list(tmp_path.glob("*.json"))

    reloaded = ResultStore(tmp_path)
    assert len(reloaded) == 6
    for key in keys:
        # The migrated envelope — key, meta, model_version stamp, full
        # result payload — is byte-for-byte the legacy one once both
        # are canonicalised.
        assert (json.dumps(reloaded.load_envelope(key), sort_keys=True)
                == json.dumps(originals[key], sort_keys=True))
        assert reloaded.load(key).to_dict() == originals[key]["result"]
    assert not reloaded.stats()["legacy"]


def test_migrate_skips_unreadable_files(tmp_path):
    legacy_populate(tmp_path, 2)
    bad = tmp_path / ("broken__x__y__%s.json" % ("9" * 12))
    bad.write_text("{not json")
    store = ResultStore(tmp_path)
    summary = store.migrate()
    assert summary == {"migrated": 2, "skipped": 1}
    assert bad.exists()  # left in place for verify to judge
    assert len(store) == 2


def test_lazy_results_survive_compaction(tmp_path):
    keys = populate(tmp_path, 3)
    store = ResultStore(tmp_path)
    loaded = store.load_many(keys)
    # Relocate every record while lazy results are outstanding...
    store.save(synthetic_key(50), synthetic_result(50))
    store.compact()
    # ...then touch their snapshots: the stale locators re-resolve
    # through the manifest instead of failing.
    for index, key in enumerate(keys):
        assert loaded[key].to_dict() == synthetic_result(index).to_dict()


# ----------------------------------------------------------------------
# Campaign cells: memory stored as the words the cell changed.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign_cell(tmp_path_factory):
    """One real campaign cell saved by the runner: ``(store root, key,
    simulated result)``."""
    from repro.harness.runner import CampaignRunner
    from repro.pipeline.config import MEGA

    root = tmp_path_factory.mktemp("campaign")
    store = ResultStore(root)
    runner = CampaignRunner(scale=0.05, benchmarks=("503.bwaves",),
                            store=store)
    result = runner.run("503.bwaves", MEGA, "stt-rename")
    store.close()
    return root, runner.cell_key("503.bwaves", MEGA, "stt-rename"), result


def test_campaign_cell_stores_only_the_words_it_changed(campaign_cell):
    root, key, result = campaign_cell
    store = ResultStore(root)
    # The cell's whole image alone is 116 kB of JSON.
    stats = store.stats()
    assert stats["cells"] == 1 and stats["raw_bytes"] <= 4096
    assert "memory_base" in store.load_envelope(key)["result"]
    assert store.load(key).memory == result.memory
    lazy = store.load_many([key])[key]
    assert isinstance(lazy, _StoredResult)
    assert lazy.memory == result.memory
    assert lazy.to_dict() == result.to_dict()
    assert store.verify() == {"scanned": 1, "kept": 1, "corrupt": 0,
                              "stale": 0}


def test_whole_image_envelope_of_a_campaign_cell_still_loads(
        campaign_cell, tmp_path):
    # Written before deltas: the same meta, the whole image, no base.
    root, key, result = campaign_cell
    envelope = ResultStore(root).load_envelope(key)
    envelope["result"] = result.to_dict()
    assert "memory_base" not in envelope["result"]
    store = ResultStore(tmp_path)
    store._append_envelope(envelope)
    assert store.load(key).memory == result.memory
    assert store.load_many([key])[key].memory == result.memory
    assert store.verify()["kept"] == 1


def test_delta_named_against_another_program_does_not_load(
        campaign_cell, tmp_path):
    root, key, _result = campaign_cell
    envelope = ResultStore(root).load_envelope(key)
    envelope["meta"]["benchmark"] = "505.mcf"
    store = ResultStore(tmp_path)
    store._append_envelope(envelope)
    assert store.load(key) is None  # a miss: the runner re-simulates
    with pytest.raises(ValueError, match="delta against image"):
        store.load_many([key])[key].memory


def test_reading_regs_or_stats_of_a_delta_cell_generates_no_program(
        campaign_cell, monkeypatch):
    root, key, result = campaign_cell
    calls = []
    resolve = store_module.cached_spec_program

    def counting(*args, **kwargs):
        calls.append(args)
        return resolve(*args, **kwargs)

    monkeypatch.setattr(store_module, "cached_spec_program", counting)
    for cell in (ResultStore(root).load_many([key])[key],
                 next(ResultStore(root).iter_results())):
        del calls[:]
        assert cell.stats.to_dict() == result.stats.to_dict()
        assert cell.regs == result.regs
        assert cell.extra == result.extra
        assert calls == []
        # Only the memory image needs the cell's program.
        assert cell.memory == result.memory
        assert calls == [("503.bwaves",)]

"""SQLite ResultStore: format, concurrency, and recovery.

Complements the API-contract tests in ``test_campaign.py`` with the
format-level guarantees of the one-file store: full-key indexing (no
digest-prefix ambiguity), key listing and statistics scans that decode
no record, writer/reader interleaving, damaged records and statistics
found and dropped, stores of another format refused and left
untouched, campaign cells whose memory is stored as the words they
changed, and statistics stored once, beside a record that holds none,
yet read back into every whole envelope.
"""

import json
import pickle
import sqlite3
import struct
import sys
import threading
import zlib

import pytest

from repro.analysis.stalls import store_stall_breakdown
from repro.core.registry import grid_scheme_names
from repro.harness import store as store_module
from repro.harness.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    MODEL_VERSION,
    ResultStore,
    _StoredResult,
)
from repro.harness.storebench import synthetic_key, synthetic_result
from repro.pipeline.core import SimulationResult
from repro.pipeline.stats import SimStats
from repro.workloads.program_cache import cached_spec_program


def populate(root, count, start=0):
    store = ResultStore(root)
    keys = []
    for index in range(start, start + count):
        key = synthetic_key(index)
        store.save(key, synthetic_result(index), {"index": index})
        keys.append(key)
    store.close()
    return keys


def damage(root, key, column="record"):
    """Flip four bytes inside one column of one row, in place."""
    conn = sqlite3.connect(str(root / MANIFEST_NAME))
    (blob,) = conn.execute("SELECT %s FROM cells WHERE key=?" % column,
                           (key,)).fetchone()
    with conn:
        conn.execute("UPDATE cells SET %s=? WHERE key=?" % column,
                     (blob[:10] + b"\xff" * 4 + blob[14:], key))
    conn.close()


def insert_envelope(store, envelope):
    """Store a whole envelope as ``save`` stores one: its statistics in
    the row's statistics column, the rest as the record."""
    data = dict(envelope["result"])
    stats = SimStats.from_dict(data.pop("stats"))
    store._insert_envelope(dict(envelope, result=data), stats)


def canonical(envelope):
    return json.dumps(envelope, sort_keys=True)


def snapshot(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


# ----------------------------------------------------------------------
# Indexing: full keys, no record decoding, no prefix ambiguity.
# ----------------------------------------------------------------------

def test_digest_prefix_collisions_are_not_ambiguous(tmp_path):
    # Two keys sharing the 12-hex prefix that file names carry: the
    # store keys on the full digest.
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


def test_keys_len_and_stats_scan_never_decode_records(tmp_path,
                                                     monkeypatch):
    keys = populate(tmp_path, 25)
    store = ResultStore(tmp_path)

    def refuse(*args):
        raise AssertionError("a record was decoded")

    # keys()/len()/contains answer from the key index alone...
    monkeypatch.setattr(store_module, "decode_envelope", refuse)
    assert sorted(store.keys()) == sorted(keys)
    assert len(store) == 25
    assert keys[0] in store
    # ...and so does a statistics-only scan (the metrics pass):
    # iter_results serves every cell's statistics from its row, and a
    # result keeps them once, not also as the pickled blob.
    rows = list(store.iter_results())
    assert (sorted(row.stats.cycles for row in rows)
            == sorted(synthetic_result(i).stats.cycles for i in range(25)))
    lazy = store.load_many(keys[:3])
    assert all(cell.stats.cycles > 0 for cell in lazy.values())
    for cell in rows + list(lazy.values()):
        assert "_stats_blob" not in cell.__dict__
    assert store.stats()["cells"] == 25


def test_synthetic_cells_roll_up_like_a_campaign(tmp_path):
    """Synthetic cells name real grid schemes and carry accounts that
    conserve, so ``metrics`` over a synthetic store reads ok."""
    schemes = grid_scheme_names()
    populate(tmp_path, 2 * len(schemes))
    breakdown = store_stall_breakdown(ResultStore(tmp_path))
    assert sorted(breakdown) == sorted(schemes)
    for scheme, entry in breakdown.items():
        assert entry["cells"] == 2 and entry["conserved"], scheme


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
    # The record holds no statistics: decoding it first leaves them to
    # the statistics column, which is dropped once they are read.
    lazy = store.load_many([key])[key]
    assert lazy.regs == result.regs
    assert "_stats" not in lazy.__dict__
    assert lazy.stats.to_dict() == result.stats.to_dict()
    assert "_stats_blob" not in lazy.__dict__


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
    insert_envelope(store, {"key": key, "model_version": MODEL_VERSION,
                            "meta": {}, "result": data})
    want = SimulationResult.from_dict(data).memory
    assert want == result.memory
    assert ResultStore(tmp_path).load(key).memory == want
    lazy = ResultStore(tmp_path).load_many([key])[key]
    assert isinstance(lazy, _StoredResult)
    assert lazy.memory == want
    assert lazy.to_dict() == result.to_dict()


# ----------------------------------------------------------------------
# Concurrency: writers and readers, threads and instances, interleaved.
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
                # reads): a save is one INSERT.
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


def test_concurrent_writers_lose_no_cell(tmp_path):
    # Four writer threads race to create one store and fill it: two
    # share an instance (its lock), two own one each (SQLite's).
    per_writer = 25
    shared = ResultStore(tmp_path)
    stores = [shared, shared, ResultStore(tmp_path), ResultStore(tmp_path)]
    errors = []

    def writer(store, first):
        try:
            for index in range(first, first + per_writer):
                store.save(synthetic_key(index), synthetic_result(index))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(store, n * per_writer))
               for n, store in enumerate(stores)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    count = per_writer * len(stores)
    assert sorted(ResultStore(tmp_path).keys()) == sorted(
        synthetic_key(index) for index in range(count))
    assert ResultStore(tmp_path).verify()["kept"] == count


def test_external_writer_instance_is_visible_immediately(tmp_path):
    # Two instances, interleaved writes, one database file.
    a, b = ResultStore(tmp_path), ResultStore(tmp_path)
    a.save(synthetic_key(1), synthetic_result(1))
    b.save(synthetic_key(2), synthetic_result(2))
    a.save(synthetic_key(3), synthetic_result(3))
    assert all(path.name.startswith(MANIFEST_NAME)
               for path in tmp_path.iterdir())
    reader = ResultStore(tmp_path)
    assert len(reader) == 3
    assert reader.load(synthetic_key(2)) is not None


# ----------------------------------------------------------------------
# Recovery: damaged records, stale stamps, eviction.
# ----------------------------------------------------------------------

def test_verify_drops_a_corrupt_row_and_keeps_the_rest(tmp_path):
    keys = populate(tmp_path, 4)
    damage(tmp_path, keys[0])

    store = ResultStore(tmp_path)
    assert store.load(keys[0]) is None  # corrupt: absent, not wrong
    assert store.load_envelope(keys[0]) is None
    lazy = store.load_many(keys)[keys[0]]
    # Statistics come from the row; the snapshot needs the record.
    assert lazy.stats.cycles == synthetic_result(0).stats.cycles
    with pytest.raises(ValueError, match="store verify"):
        lazy.regs
    assert store.verify() == {"scanned": 4, "kept": 3, "corrupt": 1,
                              "stale": 0}
    assert len(store) == 3 and keys[0] not in store
    for index in (1, 2, 3):
        assert (store.load(keys[index]).to_dict()
                == synthetic_result(index).to_dict())
    # A second sweep is clean.
    assert store.verify() == {"scanned": 3, "kept": 3, "corrupt": 0,
                              "stale": 0}


def test_damaged_statistics_are_a_damaged_row(tmp_path):
    # The statistics column is their only copy: a row whose column does
    # not decode is corrupt, never read from anywhere else.
    keys = populate(tmp_path, 3)
    damage(tmp_path, keys[0], column="stats")
    store = ResultStore(tmp_path)
    lazy = store.load_many(keys)[keys[0]]
    with pytest.raises(ValueError, match="store verify"):
        lazy.stats
    with pytest.raises(ValueError, match="store verify"):
        next(row for row in store.iter_results()
             if row._key == keys[0]).stats
    assert lazy.regs == synthetic_result(0).regs  # the record is whole
    assert store.load(keys[0]) is None
    assert store.load_envelope(keys[0]) is None
    assert store.verify() == {"scanned": 3, "kept": 2, "corrupt": 1,
                              "stale": 0}
    assert sorted(store.keys()) == sorted(keys[1:])


def test_verify_drops_stale_model_versions(tmp_path):
    store = ResultStore(tmp_path)
    store.save(synthetic_key(1), synthetic_result(1))
    stale = dict(store.load_envelope(synthetic_key(1)))
    stale["key"] = "e" * 64
    stale["model_version"] = "0.0.0-ancient"
    insert_envelope(store, stale)
    assert len(store) == 2
    summary = store.verify()
    assert summary == {"scanned": 2, "kept": 1, "corrupt": 0, "stale": 1}
    assert len(store) == 1
    assert store.load(synthetic_key(1)) is not None


def test_gc_reports_bytes_reclaimed(tmp_path):
    keys = populate(tmp_path, 10)
    store = ResultStore(tmp_path)
    summary = store.gc(keys[:3])
    assert summary["scanned"] == 10
    assert summary["kept"] == 3
    assert summary["dropped"] == 7
    assert summary["bytes_reclaimed"] > 0
    assert len(store) == 3
    assert store.stats()["cells"] == 3


def test_lazy_results_survive_gc(tmp_path):
    keys = populate(tmp_path, 5)
    store = ResultStore(tmp_path)
    loaded = store.load_many(keys[:3])
    # VACUUM rewrites the file while lazy results are outstanding...
    assert store.gc(keys[:3])["dropped"] == 2
    # ...and they still decode: each reads its record by key.
    for index, key in enumerate(keys[:3]):
        assert loaded[key].to_dict() == synthetic_result(index).to_dict()


def test_store_stats_accounting(tmp_path):
    populate(tmp_path, 12)
    stats = ResultStore(tmp_path).stats()
    assert stats["format"] == FORMAT_VERSION
    assert stats["cells"] == 12
    assert stats["raw_bytes"] > stats["live_bytes"]  # compression won
    assert stats["compression_ratio"] > 1.0
    assert stats["disk_bytes"] >= stats["live_bytes"]
    # Both payload columns count, as stored and before compression.
    conn = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    (live,) = conn.execute("SELECT SUM(LENGTH(stats) + LENGTH(record))"
                           " FROM cells").fetchone()
    conn.close()
    assert stats["live_bytes"] == live
    raw = 0
    for index in range(12):
        result = synthetic_result(index)
        data = result.to_dict()
        del data["stats"]
        record = {"key": synthetic_key(index), "model_version": MODEL_VERSION,
                  "meta": {"index": index}, "result": data}
        raw += len(pickle.dumps(result.stats, protocol=4)) + len(json.dumps(
            record, sort_keys=True, separators=(",", ":")))
    assert stats["raw_bytes"] == raw


def test_a_store_keeps_the_dictionary_it_was_created_with(tmp_path,
                                                        monkeypatch):
    keys = populate(tmp_path, 3)
    conn = sqlite3.connect(str(tmp_path / MANIFEST_NAME))
    assert conn.execute("SELECT v FROM meta WHERE k='dictionary'"
                        ).fetchone() == (store_module.template_dictionary(),)
    conn.close()
    # A later build's template does not change how an existing store
    # reads or writes: every connection reads the store's own row.
    monkeypatch.setattr(store_module, "template_dictionary",
                        lambda: b"another template entirely")
    store = ResultStore(tmp_path)
    store.save(synthetic_key(3), synthetic_result(3))
    keys.append(synthetic_key(3))
    loaded = store.load_many(keys)
    for index, key in enumerate(keys):
        assert store.load(key).to_dict() == synthetic_result(index).to_dict()
        assert loaded[key].to_dict() == synthetic_result(index).to_dict()
    assert store.verify()["kept"] == 4
    # A store created under the new template stores and reads with it.
    fresh = ResultStore(tmp_path / "fresh")
    fresh.save(keys[0], synthetic_result(0))
    assert fresh.load(keys[0]).to_dict() == synthetic_result(0).to_dict()
    conn = sqlite3.connect(str(tmp_path / "fresh" / MANIFEST_NAME))
    assert conn.execute("SELECT v FROM meta WHERE k='dictionary'"
                        ).fetchone() == (b"another template entirely",)
    conn.close()


def test_disk_bytes_are_the_database_at_rest(tmp_path):
    # The connection that reads the totals creates the WAL index
    # (``-shm``, 32 KiB), which holds no cell data: a closed store
    # reports the size its database file has at rest.
    populate(tmp_path, 4)
    at_rest = (tmp_path / MANIFEST_NAME).stat().st_size
    store = ResultStore(tmp_path)
    try:
        assert store.stats()["disk_bytes"] == at_rest
    finally:
        store.close()


def test_clear_removes_the_database(tmp_path):
    keys = populate(tmp_path, 4)
    store = ResultStore(tmp_path)
    store.clear()
    assert len(store) == 0
    assert store.load(keys[0]) is None
    assert not any(tmp_path.iterdir())  # and reads created nothing
    # The store stays usable after a clear.
    store.save(keys[0], synthetic_result(0))
    assert len(store) == 1


# ----------------------------------------------------------------------
# Stores of another format.
# ----------------------------------------------------------------------

def whole_record(key, result):
    """The record formats before ``sqlite-v3`` stored: the whole
    envelope, statistics included, as canonical JSON compressed
    without a dictionary.  Returns ``(record, raw_length)``."""
    raw = json.dumps({"key": key, "model_version": MODEL_VERSION,
                      "meta": {}, "result": result.to_dict()},
                     sort_keys=True, separators=(",", ":")).encode("utf-8")
    return zlib.compress(raw, 1), len(raw)


#: The manifest schema of format ``segments-v1``, which earlier
#: releases wrote beside append-only segment files.
SEGMENTS_V1_SCHEMA = """
CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT NOT NULL);
CREATE TABLE segments (
    id INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT UNIQUE NOT NULL,
    sealed INTEGER NOT NULL DEFAULT 0);
CREATE TABLE cells (
    key TEXT PRIMARY KEY, segment INTEGER NOT NULL, offset INTEGER NOT NULL,
    length INTEGER NOT NULL, raw_length INTEGER NOT NULL, benchmark TEXT,
    config TEXT, scheme TEXT, model_version TEXT, halted INTEGER,
    result_cycles INTEGER, cycles INTEGER, committed INTEGER, stats BLOB);
CREATE INDEX cells_by_segment ON cells(segment, offset);
CREATE INDEX cells_by_scheme ON cells(scheme);
CREATE INDEX cells_by_benchmark ON cells(benchmark);
"""


def write_segments_v1_store(root):
    """One cell in the ``segments-v1`` layout: a WAL-mode manifest
    indexing a record framed as ``"SBR1" | u32 length | u32 CRC32 |
    payload`` in ``segments/seg-000001.seg``."""
    key = synthetic_key(0)
    result = synthetic_result(0)
    payload, raw_length = whole_record(key, result)
    record = struct.pack(">4sII", b"SBR1", len(payload),
                         zlib.crc32(payload)) + payload
    (root / "segments").mkdir()
    (root / "segments" / "seg-000001.seg").write_bytes(record)
    conn = sqlite3.connect(str(root / MANIFEST_NAME), isolation_level=None)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(SEGMENTS_V1_SCHEMA)
    conn.execute("INSERT INTO meta VALUES ('format', 'segments-v1')")
    conn.execute("INSERT INTO segments (name, sealed)"
                 " VALUES ('seg-000001.seg', 1)")
    conn.execute(
        "INSERT INTO cells VALUES (?, 1, 0, ?, ?, ?, ?, ?, ?, 1, ?, ?, ?,"
        " NULL)",
        (key, len(record), raw_length, result.program_name,
         result.config_name, result.scheme_name, MODEL_VERSION,
         result.cycles, result.stats.cycles,
         result.stats.committed_instructions))
    conn.close()


#: The schema of format ``sqlite-v1``, whose stores kept failure
#: records as JSON files under ``failures/`` beside the database.
SQLITE_V1_SCHEMA = """
CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT NOT NULL);
CREATE TABLE cells (
    key TEXT PRIMARY KEY, benchmark TEXT, config TEXT, scheme TEXT,
    halted INTEGER, result_cycles INTEGER, raw_length INTEGER NOT NULL,
    stats BLOB, record BLOB NOT NULL);
"""


def write_sqlite_v1_store(root):
    """One cell and one failure record in the ``sqlite-v1`` layout: a
    WAL-mode database of 1 KiB pages and a ``failures/*.json`` file."""
    key = synthetic_key(0)
    result = synthetic_result(0)
    record, raw_length = whole_record(key, result)
    conn = sqlite3.connect(str(root / MANIFEST_NAME), isolation_level=None)
    conn.execute("PRAGMA page_size=1024")
    conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(SQLITE_V1_SCHEMA)
    conn.execute("INSERT INTO meta VALUES ('format', 'sqlite-v1')")
    conn.execute("INSERT INTO cells VALUES (?, ?, ?, ?, 1, ?, ?, NULL, ?)",
                 (key, result.program_name, result.config_name,
                  result.scheme_name, result.cycles, raw_length, record))
    conn.close()
    failed = synthetic_key(1)
    (root / "failures").mkdir()
    (root / "failures" / ("b__c__s__%s.json" % failed[:12])).write_text(
        json.dumps({"key": failed, "benchmark": "b", "config_name": "c",
                    "scheme_name": "s", "kind": "deterministic",
                    "attempts": 1, "worker": "local-1", "error": "boom",
                    "traceback": None}, sort_keys=True))


#: The schema of format ``sqlite-v2``: today's tables, but a row held
#: its statistics twice, pickled and inside the record.
SQLITE_V2_SCHEMA = """
CREATE TABLE meta (k TEXT PRIMARY KEY, v TEXT NOT NULL) WITHOUT ROWID;
CREATE TABLE cells (
    key TEXT PRIMARY KEY, benchmark TEXT, config TEXT, scheme TEXT,
    halted INTEGER, result_cycles INTEGER, raw_length INTEGER NOT NULL,
    stats BLOB, record BLOB NOT NULL);
CREATE TABLE failures (
    key TEXT PRIMARY KEY, benchmark TEXT, config TEXT, scheme TEXT,
    kind TEXT NOT NULL, attempts INTEGER, worker TEXT, error TEXT,
    traceback TEXT) WITHOUT ROWID;
"""


def write_sqlite_v2_store(root):
    """One cell and one failure row in the ``sqlite-v2`` layout: a
    WAL-mode database of 1 KiB pages whose row holds the statistics
    pickled and the whole envelope as its record."""
    key = synthetic_key(0)
    result = synthetic_result(0)
    record, raw_length = whole_record(key, result)
    conn = sqlite3.connect(str(root / MANIFEST_NAME), isolation_level=None)
    conn.execute("PRAGMA page_size=1024")
    conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(SQLITE_V2_SCHEMA)
    conn.execute("INSERT INTO meta VALUES ('format', 'sqlite-v2')")
    conn.execute("INSERT INTO cells VALUES (?, ?, ?, ?, 1, ?, ?, ?, ?)",
                 (key, result.program_name, result.config_name,
                  result.scheme_name, result.cycles, raw_length,
                  pickle.dumps(result.stats, protocol=4), record))
    conn.execute("INSERT INTO failures VALUES (?, 'b', 'c', 's',"
                 " 'deterministic', 1, 'local-1', 'boom', NULL)",
                 (synthetic_key(1),))
    conn.close()


def test_foreign_manifest_format_names_formats_and_path(tmp_path):
    older = tmp_path / "older-format"
    older.mkdir()
    populate(older, 1)
    conn = sqlite3.connect(str(older / MANIFEST_NAME))
    with conn:
        conn.execute("UPDATE meta SET v='sqlite-v0' WHERE k='format'")
    conn.close()
    previous = tmp_path / "sqlite-v1"
    previous.mkdir()
    write_sqlite_v1_store(previous)
    segments = tmp_path / "segments-v1"
    segments.mkdir()
    write_segments_v1_store(segments)
    last = tmp_path / "sqlite-v2"
    last.mkdir()
    write_sqlite_v2_store(last)

    for root, found in ((older, "sqlite-v0"), (previous, "sqlite-v1"),
                        (segments, "segments-v1"), (last, "sqlite-v2")):
        before = snapshot(root)
        with pytest.raises(RuntimeError) as info:
            len(ResultStore(root))
        message = str(info.value)
        assert "%r" % found in message and "%r" % FORMAT_VERSION in message
        assert str(root) in message
        with pytest.raises(RuntimeError):
            ResultStore(root).save(synthetic_key(1), synthetic_result(1))
        with pytest.raises(RuntimeError):
            ResultStore(root).failures()
        # Refused before anything is written: the store is left as it
        # was, to be moved aside or read by the build that wrote it.
        assert snapshot(root) == before


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


@pytest.mark.parametrize("cell", ["campaign", "synthetic"])
def test_envelopes_are_whole_though_statistics_are_stored_once(
        cell, campaign_cell, tmp_path):
    if cell == "campaign":
        root, key, result = campaign_cell
        meta = {"benchmark": "503.bwaves", "config": "mega",
                "scheme": "stt-rename", "scheme_kwargs": {}, "scale": 0.05,
                "seed": 2017}
        program = cached_spec_program("503.bwaves", scale=0.05, seed=2017)
    else:
        root, key, result = tmp_path, synthetic_key(5), synthetic_result(5)
        meta, program = {"index": 5}, None
        ResultStore(root).save(key, result, meta)
    saved = {"key": key, "model_version": MODEL_VERSION, "meta": meta,
             "result": result.to_dict(program)}
    assert ("memory_base" in saved["result"]) == (cell == "campaign")
    store = ResultStore(root)
    assert canonical(store.load_envelope(key)) == canonical(saved)
    assert store.load_many([key])[key].stats == result.stats
    assert next(store.iter_results()).stats == result.stats
    # One copy: the record holds no statistics.
    conn = sqlite3.connect(str(root / MANIFEST_NAME))
    (record,) = conn.execute("SELECT record FROM cells WHERE key=?",
                             (key,)).fetchone()
    conn.close()
    assert b"committed_instructions" not in zlib.decompressobj(
        zdict=store._zdict).decompress(record)


def test_whole_image_envelope_of_a_campaign_cell_still_loads(
        campaign_cell, tmp_path):
    # Written before deltas: the same meta, the whole image, no base.
    root, key, result = campaign_cell
    envelope = ResultStore(root).load_envelope(key)
    envelope["result"] = result.to_dict()
    assert "memory_base" not in envelope["result"]
    store = ResultStore(tmp_path)
    insert_envelope(store, envelope)
    assert store.load(key).memory == result.memory
    assert store.load_many([key])[key].memory == result.memory
    assert store.verify()["kept"] == 1


def test_delta_named_against_another_program_does_not_load(
        campaign_cell, tmp_path):
    root, key, _result = campaign_cell
    envelope = ResultStore(root).load_envelope(key)
    envelope["meta"]["benchmark"] = "505.mcf"
    store = ResultStore(tmp_path)
    insert_envelope(store, envelope)
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

"""Segment files + SQLite manifest: the ResultStore's on-disk format.

The segment-backed store (format ``segments-v1``) replaces one JSON
file per cell with two cooperating structures under the store root:

``segments/seg-NNNNNN.seg``
    Append-only **segment files**.  Each record is::

        +--------+-------------+------------+------------------------+
        | magic  | payload len | CRC32      | payload                |
        | "SBR1" | u32 big-end | u32 big-end| zlib(canonical JSON)   |
        +--------+-------------+------------+------------------------+

    The payload is the same envelope the JSON-per-cell format stored
    (``{"key", "model_version", "meta", "result"}``), serialised as
    canonical JSON (sorted keys, compact separators) and
    zlib-compressed.  Records are the single source of truth: every
    manifest column below can be rebuilt from them.  A writer appends
    a record and flushes *before* indexing it, so a crash can only
    leave an unindexed orphan tail — never an indexed cell without
    bytes.  Each :class:`~repro.harness.store.ResultStore` instance
    appends to its own segment (allocated through the manifest, so
    concurrent writers never interleave) and seals it when it grows
    past :data:`SEGMENT_BYTES`.

``manifest.db``
    A stdlib :mod:`sqlite3` **manifest + key index**.  The ``cells``
    table maps every *full* 64-hex key (no 12-character prefix
    ambiguity) to its segment/offset/length, and additionally carries
    the cross-cell query columns (benchmark, config, scheme, model
    version), the hot counters (``cycles``, ``committed``), and a
    pickled :class:`~repro.pipeline.stats.SimStats` blob, which lets
    analysis read per-cell statistics without touching (or
    decompressing) any segment payload.  The ``segments`` table
    allocates segment ids and tracks sealing.  WAL
    journaling keeps one writer and any number of readers (threads or
    processes) live on the same store.

Compaction (:meth:`ResultStore.compact`) rewrites the live records of
all segments into fresh sealed ones — folding the one-record segments
that crash-resumed or many-instance campaigns leave behind, and
reclaiming dead bytes from overwritten, evicted, or orphaned records.
Records are copied verbatim (CRC-checked, never re-encoded), so
compaction can never alter a stored result.
"""

import json
import pathlib
import sqlite3
import struct
import threading
import zlib

#: Manifest filename under the store root.
MANIFEST_NAME = "manifest.db"

#: Directory (under the store root) holding segment files.
SEGMENT_DIR = "segments"

#: Segment file suffix; quarantined segments gain ``.corrupt`` on top.
SEGMENT_SUFFIX = ".seg"

#: Record header: magic, payload length, CRC32 of the payload.
RECORD_MAGIC = b"SBR1"
_HEADER = struct.Struct(">4sII")
RECORD_HEADER_BYTES = _HEADER.size

#: Manifest format generation (``meta`` table, key ``format``).
FORMAT_VERSION = "segments-v1"

#: Seal threshold: a writer rolls to a fresh segment past this size.
SEGMENT_BYTES = 8 * 1024 * 1024

#: zlib level for record payloads: decompression speed over ratio —
#: bulk reads decompress every record they touch.
COMPRESS_LEVEL = 1


class CorruptRecord(ValueError):
    """A segment record failed its magic/length/CRC/JSON validation."""


def encode_envelope(envelope):
    """Canonical JSON + zlib: the record payload for one envelope.

    Returns ``(payload, raw_length)`` — the compressed bytes and the
    pre-compression size (kept in the manifest for compression-ratio
    accounting).
    """
    raw = json.dumps(envelope, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return zlib.compress(raw, COMPRESS_LEVEL), len(raw)


def decode_envelope(payload):
    """Inverse of :func:`encode_envelope`; raises on undecodable data."""
    return json.loads(zlib.decompress(payload).decode("utf-8"))


def pack_record(payload):
    """Frame one payload as a segment record (header + payload)."""
    return _HEADER.pack(RECORD_MAGIC, len(payload),
                        zlib.crc32(payload) & 0xFFFFFFFF) + payload


def unpack_record(record):
    """Validate one framed record; returns the payload bytes.

    Raises :class:`CorruptRecord` on a bad magic, a length that does
    not match the frame, or a CRC mismatch (torn or bit-rotted write).
    """
    if len(record) < RECORD_HEADER_BYTES:
        raise CorruptRecord("record shorter than its header")
    magic, length, crc = _HEADER.unpack_from(record)
    if magic != RECORD_MAGIC:
        raise CorruptRecord("bad record magic %r" % magic)
    payload = record[RECORD_HEADER_BYTES:]
    if len(payload) != length:
        raise CorruptRecord("record length mismatch (%d != %d)"
                            % (len(payload), length))
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptRecord("record CRC mismatch (torn or corrupt write)")
    return payload


def segment_name(segment_id):
    """Canonical filename for a segment id."""
    return "seg-%06d%s" % (segment_id, SEGMENT_SUFFIX)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS segments (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT UNIQUE NOT NULL,
    sealed INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS cells (
    key TEXT PRIMARY KEY,
    segment INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    raw_length INTEGER NOT NULL,
    benchmark TEXT,
    config TEXT,
    scheme TEXT,
    model_version TEXT,
    halted INTEGER,
    result_cycles INTEGER,
    cycles INTEGER,
    committed INTEGER,
    stats BLOB
);
CREATE INDEX IF NOT EXISTS cells_by_segment ON cells(segment, offset);
CREATE INDEX IF NOT EXISTS cells_by_scheme ON cells(scheme);
CREATE INDEX IF NOT EXISTS cells_by_benchmark ON cells(benchmark);
"""

#: Column list for one cell row, in INSERT order.
_CELL_COLUMNS = ("key", "segment", "offset", "length", "raw_length",
                 "benchmark", "config", "scheme", "model_version",
                 "halted", "result_cycles", "cycles", "committed", "stats")

_INSERT_CELL = ("INSERT OR REPLACE INTO cells (%s) VALUES (%s)"
                % (", ".join(_CELL_COLUMNS),
                   ", ".join("?" * len(_CELL_COLUMNS))))

#: Cell columns + the owning segment's filename, as every reader wants.
_SELECT_CELL = ("SELECT c.*, s.name AS segment_name"
                " FROM cells c JOIN segments s ON s.id = c.segment")

#: SQLite limits ``IN (...)`` parameter lists; chunk batched lookups.
_IN_CHUNK = 500


class Manifest:
    """Thread-safe wrapper around the store's SQLite manifest."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._conn = None
        self._lock = threading.RLock()

    # -- connection -------------------------------------------------------

    def _db(self):
        if self._conn is None:
            conn = sqlite3.connect(str(self.path), timeout=30.0,
                                   check_same_thread=False,
                                   isolation_level=None)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA busy_timeout=30000")
            try:
                conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.DatabaseError:
                pass  # WAL unsupported (exotic fs): default journal works
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            row = conn.execute("SELECT v FROM meta WHERE k='format'"
                               ).fetchone()
            if row is None:
                conn.execute("INSERT OR IGNORE INTO meta VALUES ('format',?)",
                             (FORMAT_VERSION,))
            elif row["v"] != FORMAT_VERSION:
                conn.close()
                raise RuntimeError(
                    "store manifest %s was written in store format %r;"
                    " this build reads only %r.  Move the store"
                    " directory %s aside (its cells will be simulated"
                    " again) or read it with the build that wrote it"
                    % (self.path, row["v"], FORMAT_VERSION,
                       self.path.parent))
            self._conn = conn
        return self._conn

    def close(self):
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    # -- segments ---------------------------------------------------------

    def add_segment(self):
        """Allocate a fresh segment id + name; returns ``(id, name)``."""
        with self._lock:
            db = self._db()
            cur = db.execute(
                "INSERT INTO segments (name) VALUES ('pending')")
            segment_id = cur.lastrowid
            name = segment_name(segment_id)
            db.execute("UPDATE segments SET name=? WHERE id=?",
                       (name, segment_id))
            return segment_id, name

    def seal_segment(self, segment_id):
        with self._lock:
            self._db().execute("UPDATE segments SET sealed=1 WHERE id=?",
                               (segment_id,))

    def segments(self):
        with self._lock:
            return self._db().execute(
                "SELECT id, name, sealed FROM segments ORDER BY id"
            ).fetchall()

    def delete_segment(self, segment_id):
        with self._lock:
            self._db().execute("DELETE FROM segments WHERE id=?",
                               (segment_id,))

    # -- cells ------------------------------------------------------------

    def upsert_cell(self, row):
        """Insert or replace one cell row (a dict over _CELL_COLUMNS)."""
        with self._lock:
            self._db().execute(_INSERT_CELL,
                               tuple(row[c] for c in _CELL_COLUMNS))

    def cell(self, key):
        with self._lock:
            return self._db().execute(
                _SELECT_CELL + " WHERE c.key=?", (key,)).fetchone()

    def cells_for(self, keys):
        """Batched lookup: ``{key: row}`` for every hit."""
        keys = list(keys)
        found = {}
        with self._lock:
            db = self._db()
            for start in range(0, len(keys), _IN_CHUNK):
                chunk = keys[start:start + _IN_CHUNK]
                query = (_SELECT_CELL + " WHERE c.key IN (%s)"
                         % ",".join("?" * len(chunk)))
                for row in db.execute(query, chunk):
                    found[row["key"]] = row
        return found

    def iter_cells(self, with_stats=True):
        """Every cell row in (segment, offset) order, fetched in chunks.

        ``with_stats=False`` skips the stats blob column — the full
        bulk-decode path reads payloads anyway and should not drag
        every pickled blob through memory as well.
        """
        columns = ("c.*" if with_stats else
                   ", ".join("c.%s" % c for c in _CELL_COLUMNS
                             if c != "stats"))
        query = ("SELECT %s, s.name AS segment_name FROM cells c"
                 " JOIN segments s ON s.id = c.segment"
                 " ORDER BY c.segment, c.offset" % columns)
        with self._lock:
            cursor = self._db().execute(query)
            while True:
                rows = cursor.fetchmany(1024)
                if not rows:
                    return
                for row in rows:
                    yield row

    def keys(self):
        with self._lock:
            return [row[0] for row in
                    self._db().execute("SELECT key FROM cells")]

    def count(self):
        with self._lock:
            return self._db().execute(
                "SELECT COUNT(*) FROM cells").fetchone()[0]

    def has_key(self, key):
        with self._lock:
            return self._db().execute(
                "SELECT 1 FROM cells WHERE key=?", (key,)
            ).fetchone() is not None

    def delete_cells(self, keys):
        keys = list(keys)
        with self._lock:
            db = self._db()
            for start in range(0, len(keys), _IN_CHUNK):
                chunk = keys[start:start + _IN_CHUNK]
                db.execute("DELETE FROM cells WHERE key IN (%s)"
                           % ",".join("?" * len(chunk)), chunk)

    def relocate_cells(self, moves):
        """Batched relocation: ``moves`` is ``(segment_id, offset, key)``
        triples, applied in one transaction."""
        if not moves:
            return
        with self._lock:
            db = self._db()
            db.execute("BEGIN")
            try:
                db.executemany(
                    "UPDATE cells SET segment=?, offset=? WHERE key=?",
                    moves)
                db.execute("COMMIT")
            except sqlite3.Error:
                db.execute("ROLLBACK")
                raise

    def totals(self):
        """``(live_record_bytes, raw_payload_bytes)`` over all cells."""
        with self._lock:
            row = self._db().execute(
                "SELECT COALESCE(SUM(length),0),"
                " COALESCE(SUM(raw_length),0) FROM cells").fetchone()
            return row[0], row[1]

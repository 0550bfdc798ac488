"""Persistent, content-addressed store for simulation results.

Every cell of the campaign grid is identified by
:func:`simulation_key`: a SHA-256 over the canonical JSON of the
*complete* simulation identity —

- the full :class:`~repro.pipeline.config.CoreConfig` parameter record
  (every field, including the nested ``MemConfig``), not just its
  display name;
- the canonical scheme name (so an alias such as ``stt_rename`` keys
  the same cell as ``stt-rename``) plus any scheme constructor kwargs;
- the workload ``scale`` and ``seed``;
- a model version stamp (:data:`MODEL_VERSION`).

Keying on content rather than names fixes the classic collision: two
distinct configurations that happen to share a name (two ad-hoc
``CoreConfig(...)`` both called ``"custom"``) can never alias each
other's results.  Bumping the package version invalidates every stored
cell at once, because the stamp participates in the hash.

On disk the store is one SQLite database (format ``sqlite-v1``)::

    results/store/
        manifest.db            one ``cells`` row per cell
        failures/*.json        CellFailure records

A ``cells`` row holds the cell's full 64-hex key, its
benchmark/config/scheme names, halted flag and cycle count, its
pickled statistics, the size of its record before compression and,
as the last column, the record: the envelope ``{"key",
"model_version", "meta", "result"}`` as canonical JSON (sorted keys,
compact separators), zlib-compressed.  ``keys()``/``__len__`` read
only the key index, and ``load_many``/``iter_results`` return
lazily-decoded results whose statistics come from the row — a pass
that reads only statistics never decompresses a record.  A save is
one INSERT, so a cell is stored whole or not at all, and WAL
journaling lets any number of readers and writers, threads or
processes, share one store.

A campaign cell's record stores its final memory image as the few
words that differ from its program's initial image (see
:meth:`~repro.pipeline.core.SimulationResult.to_dict`), about 2 KiB
instead of up to 116 kB.  Finding those words costs O(words the cell
wrote), not O(image): a result from a core, from the process pool or
from such a record holds its memory as a
:class:`~repro.pipeline.core.MemoryImage` over its program's image,
and :meth:`save` codes it against the very program object the program
cache holds.  Any other result, such as one built by hand, is scanned
whole, to the same bytes.  The ``benchmark``/``scale``/``seed`` meta
the runner writes beside each result names that program, so every read
path decodes the record to a view over the image of
:func:`~repro.workloads.program_cache.cached_spec_program`, which it
shares rather than copies — lazily, when ``memory`` is read.  Records
whose meta names no SPEC proxy, and those written before deltas, hold
the whole image and load unchanged.

A directory written in another store format, such as the segment
files and manifest of format ``segments-v1``, is refused when the
store first opens it, before anything is written there: its cells are
simulated again, as after a model-version bump.

Failures are first-class: a cell the campaign could not complete — its
simulation raised — persists as a :class:`CellFailure` record under
``failures/`` beside the results, each file written atomically.  A
later successful result for the cell clears its failure record, and
``python -m repro store failures`` lists whatever remains.
"""

import hashlib
import io
import json
import os
import pathlib
import pickle
import re
import sqlite3
import tempfile
import threading
import zlib

from repro import __version__
from repro.core.registry import canonical_name
from repro.pipeline.core import SimulationResult, decode_memory
from repro.pipeline.stats import SimStats
from repro.workloads.program_cache import cached_spec_program

#: Stamp hashed into every key; results computed by a different model
#: version are invisible (their keys differ), never silently reused.
MODEL_VERSION = __version__

#: Default on-disk location, overridable via the environment.
DEFAULT_STORE_DIR = os.environ.get("REPRO_STORE_DIR", "results/store")

#: The store's database file under its root.
MANIFEST_NAME = "manifest.db"

#: Store format generation (``meta`` table, key ``format``).
FORMAT_VERSION = "sqlite-v1"

#: Database page size, set before the file's first write.  A row is
#: about 2.3 KiB, most of it in overflow pages, and the last page of
#: each row's chain is partly empty, so smaller pages waste less.
#: Measured on perfbench's campaign-cluster and rerun-warm stores
#: (SQLite 3.40): 2,405 and 2,341 B/cell on disk with 1 KiB pages;
#: 3,041 and 2,870 with SQLite's default 4 KiB, which is 18% more than
#: the 2,442 the segment files this format replaced took on rerun-warm.
PAGE_SIZE = 1024

#: zlib level for records: decompression speed over ratio — bulk reads
#: decompress every record they touch.
COMPRESS_LEVEL = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    key TEXT PRIMARY KEY,
    benchmark TEXT,
    config TEXT,
    scheme TEXT,
    halted INTEGER,
    result_cycles INTEGER,
    raw_length INTEGER NOT NULL,
    stats BLOB,
    record BLOB NOT NULL
);
"""

_INSERT = ("INSERT OR REPLACE INTO cells (key, benchmark, config, scheme,"
           " halted, result_cycles, raw_length, stats, record)"
           " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)")

#: Every column a lazy result starts from: all but the record, which
#: it reads only when its snapshot is touched.
_SELECT_ROW = ("SELECT key, benchmark, config, scheme, halted,"
               " result_cycles, stats FROM cells")

#: SQLite limits ``IN (...)`` parameter lists; chunk batched lookups.
_IN_CHUNK = 500

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Recognised failure classes (see the failure-model contract in
#: :mod:`repro.harness`): ``deterministic`` — the simulation raised;
#: ``poisoned`` — the cell killed every worker that ran it.  No backend
#: settles ``poisoned`` today, but stores written by earlier builds
#: hold such records.
FAILURE_KINDS = ("poisoned", "deterministic")


class CellFailure:
    """A structured record of one cell the campaign could not complete."""

    __slots__ = ("key", "benchmark", "config_name", "scheme_name", "kind",
                 "attempts", "worker", "error", "traceback")

    def __init__(self, key, benchmark, config_name, scheme_name, kind,
                 attempts=1, worker=None, error="", traceback=None):
        if kind not in FAILURE_KINDS:
            raise ValueError("unknown failure kind %r (choose from %s)"
                             % (kind, ", ".join(FAILURE_KINDS)))
        self.key = key
        self.benchmark = benchmark
        self.config_name = config_name
        self.scheme_name = scheme_name
        self.kind = kind
        self.attempts = int(attempts)
        self.worker = worker
        self.error = str(error)
        self.traceback = traceback

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**{slot: data.get(slot) for slot in cls.__slots__
                      if slot in data})

    def __repr__(self):
        return ("CellFailure(%s/%s/%s, kind=%s, attempts=%d, error=%r)"
                % (self.benchmark, self.config_name, self.scheme_name,
                   self.kind, self.attempts, self.error))


def encode_envelope(envelope):
    """Canonical JSON + zlib: the stored record of one envelope.

    Returns ``(record, raw_length)`` — the compressed bytes and the
    size before compression (kept in the row for compression-ratio
    accounting).
    """
    raw = json.dumps(envelope, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return zlib.compress(raw, COMPRESS_LEVEL), len(raw)


def decode_envelope(record):
    """Inverse of :func:`encode_envelope`.

    Raises :class:`ValueError` on damaged bytes; zlib's Adler-32
    checksum covers the whole record.
    """
    try:
        raw = zlib.decompress(record)
    except zlib.error as exc:
        raise ValueError("undecodable store record: %s" % exc) from None
    return json.loads(raw.decode("utf-8"))


def simulation_key(benchmark, config, scheme_name, scheme_kwargs=None,
                   scale=1.0, seed=2017, model_version=MODEL_VERSION):
    """Content hash identifying one grid cell; returns a hex digest.

    ``model_version`` is the one behavioural stamp: any change that
    alters simulated results bumps the package version, so results of
    an older model self-evict (their keys no longer match) instead of
    being silently reused.
    """
    payload = {
        "model_version": model_version,
        "benchmark": benchmark,
        # fingerprint() is the one canonical config hash; reusing it
        # here keeps cache keys and any other fingerprint consumer in
        # lock-step.
        "config": config.fingerprint(),
        "scheme": canonical_name(scheme_name),
        "scheme_kwargs": dict(sorted((scheme_kwargs or {}).items())),
        "scale": scale,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_filename(benchmark, config_name, scheme_name, key):
    """Browsable filename for one cell: readable prefix + digest."""
    prefix = "__".join(
        _SAFE.sub("-", part) for part in (benchmark, config_name, scheme_name)
    )
    return "%s__%s.json" % (prefix, key[:12])


class _StatsUnpickler(pickle.Unpickler):
    """Unpickler restricted to the one class stats blobs may hold."""

    def find_class(self, module, name):
        if module == "repro.pipeline.stats" and name == "SimStats":
            return SimStats
        raise pickle.UnpicklingError(
            "stats blob references %s.%s" % (module, name))


def _pickle_stats(stats):
    try:
        return pickle.dumps(stats, protocol=4)
    except Exception:
        return None


def _unpickle_stats(blob):
    """Decode a row's stats blob, or ``None`` when it cannot be
    trusted (missing, truncated, foreign class) — callers fall back to
    the authoritative record."""
    if not blob:
        return None
    try:
        obj = _StatsUnpickler(io.BytesIO(bytes(blob))).load()
    except Exception:
        return None
    return obj if isinstance(obj, SimStats) else None


def _cell_program(meta):
    """The program a campaign cell simulated, named by the
    ``benchmark``/``scale``/``seed`` meta the runner writes beside its
    result; ``None`` when ``meta`` names no SPEC proxy."""
    try:
        return cached_spec_program(meta["benchmark"], scale=meta["scale"],
                                   seed=meta["seed"])
    except (KeyError, TypeError):
        return None


class StoreFormatError(RuntimeError):
    """The store directory was written in another store format."""


def _connect(path):
    """Open the store database at ``path``, creating it when new.

    The format is read before anything is written, so a database of
    another format is refused with :class:`StoreFormatError` and left
    as it was.
    """
    conn = sqlite3.connect(str(path), timeout=30.0, check_same_thread=False)
    conn.row_factory = sqlite3.Row
    try:
        row = conn.execute("SELECT v FROM meta WHERE k='format'").fetchone()
    except sqlite3.OperationalError:  # no meta table: a new database
        row = None
    if row is None:
        conn.execute("PRAGMA page_size=%d" % PAGE_SIZE)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:
            pass  # WAL unsupported (exotic fs): the default journal works
        conn.executescript(_SCHEMA)
        conn.execute("INSERT OR IGNORE INTO meta VALUES ('format', ?)",
                     (FORMAT_VERSION,))
        conn.commit()
    elif row[0] != FORMAT_VERSION:
        conn.close()
        raise StoreFormatError(
            "store manifest %s was written in store format %r; this build"
            " reads only %r.  Move the store directory %s aside (its cells"
            " will be simulated again) or read it with the build that"
            " wrote it" % (path, row[0], FORMAT_VERSION, path.parent))
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


def _verdict(key, record):
    """``"kept"``, ``"stale"`` or ``"corrupt"``: one row's record
    decoded, its key matched and its result round-tripped (a delta
    record against its cell's program)."""
    try:
        env = decode_envelope(record)
        if env["key"] != key:
            return "corrupt"
        SimulationResult.from_dict(env["result"],
                                   _cell_program(env.get("meta")))
    except (ValueError, KeyError, TypeError):
        return "corrupt"
    return "kept" if env.get("model_version") == MODEL_VERSION else "stale"


class _StoredResult(SimulationResult):
    """A stored result whose heavy fields decode on first access.

    Identity (names, halted, cycles) and statistics come straight from
    the cell's row; the architectural snapshot (``regs``/``memory``/
    ``extra``) is only read and decompressed from the row's record
    when actually touched.  This is what makes ``load_many`` and
    ``iter_results`` over 10^4 cells an index scan instead of 10^4
    decompress+parse round trips.  ``memory`` decodes later still: a
    campaign cell's record holds only the words it changed, and its
    view over the program's image needs the cell's program, which
    reading ``regs``, ``extra`` or the statistics never generates.
    The pickled statistics are dropped once decoded, so a result holds
    its ``SimStats`` once.
    """

    @classmethod
    def _from_row(cls, store, row):
        self = object.__new__(cls)
        d = self.__dict__
        d["program_name"] = row["benchmark"]
        d["scheme_name"] = row["scheme"]
        d["config_name"] = row["config"]
        d["halted"] = bool(row["halted"])
        d["cycles"] = row["result_cycles"] or 0
        d["_key"] = row["key"]
        d["_store"] = store
        d["_stats_blob"] = row["stats"]
        return self

    def _materialise(self):
        d = self.__dict__
        env = self._store._read_envelope(d["_key"])
        data = env["result"]
        if "_stats" not in d:
            d["_stats"] = SimStats.from_dict(data["stats"])
        d.pop("_stats_blob", None)
        d["_regs"] = list(data["regs"])
        d["_extra"] = dict(data.get("extra", {}))
        d["_envelope"] = env

    @property
    def stats(self):
        d = self.__dict__
        if "_stats" not in d:
            cached = _unpickle_stats(d.pop("_stats_blob", None))
            if cached is not None:
                d["_stats"] = cached
            else:
                self._materialise()
        return d["_stats"]

    @stats.setter
    def stats(self, value):
        self.__dict__["_stats"] = value
        self.__dict__.pop("_stats_blob", None)

    @property
    def regs(self):
        if "_regs" not in self.__dict__:
            self._materialise()
        return self.__dict__["_regs"]

    @regs.setter
    def regs(self, value):
        self.__dict__["_regs"] = value

    @property
    def memory(self):
        d = self.__dict__
        if "_memory" not in d:
            if "_envelope" not in d:
                self._materialise()
            env = d.pop("_envelope")
            d["_memory"] = decode_memory(env["result"],
                                         _cell_program(env.get("meta")))
        return d["_memory"]

    @memory.setter
    def memory(self, value):
        self.__dict__["_memory"] = value

    @property
    def extra(self):
        if "_extra" not in self.__dict__:
            self._materialise()
        return self.__dict__["_extra"]

    @extra.setter
    def extra(self, value):
        self.__dict__["_extra"] = value


class ResultStore:
    """SQLite-backed result store rooted at one directory.

    Surface: ``save``/``load``/``load_many``/``iter_results``/
    ``keys``/``verify``/``gc``/``stats``/``clear``, the failure-record
    API, ``in``/``len``, and :meth:`load_envelope` for format-level
    tooling.

    Concurrency: an instance owns one connection, which its threads
    share under its lock, and any number of instances, in threads or
    processes, may read and write one store at once (WAL journaling
    and a busy timeout).  ``verify`` and ``gc`` rewrite the store:
    run them without concurrent writers.
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root or DEFAULT_STORE_DIR)
        self._conn = None
        self._lock = threading.RLock()

    @property
    def manifest_path(self):
        return self.root / MANIFEST_NAME

    def _db(self, create=False):
        """The open connection, or ``None`` when no database exists and
        ``create`` is false, so a read never creates files.  Call with
        the lock held."""
        if self._conn is None:
            if not create and not self.manifest_path.exists():
                return None
            self.root.mkdir(parents=True, exist_ok=True)
            self._conn = _connect(self.manifest_path)
        return self._conn

    def _query(self, sql, params=()):
        """Every row of one read; none while no database exists."""
        with self._lock:
            db = self._db()
            return [] if db is None else db.execute(sql, params).fetchall()

    def close(self):
        """Close the connection; the next call opens it again."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _insert_envelope(self, envelope, stats=None):
        """Store one envelope as its cell's row: one INSERT, replacing
        any earlier row for the key.  Without ``stats`` the row holds
        no stats blob, and lazy results decode statistics from the
        record."""
        record, raw_length = encode_envelope(envelope)
        data = envelope["result"]
        row = (envelope["key"], data.get("program_name"),
               data.get("config_name"), data.get("scheme_name"),
               1 if data.get("halted") else 0, data.get("cycles", 0),
               raw_length, None if stats is None else _pickle_stats(stats),
               record)
        with self._lock:
            db = self._db(create=True)
            with db:
                db.execute(_INSERT, row)

    def _read_envelope(self, key):
        """One cell's decoded envelope: :class:`KeyError` when the
        store holds no row for ``key``, :class:`ValueError` naming
        ``store verify`` when its record is damaged."""
        rows = self._query("SELECT record FROM cells WHERE key=?", (key,))
        if not rows:
            raise KeyError("cell %s is not in the store" % key)
        try:
            env = decode_envelope(rows[0][0])
            if env["key"] == key:
                return env
        except (ValueError, KeyError, TypeError):
            pass
        raise ValueError("the stored record of cell %s is damaged — run"
                         " 'python -m repro store verify'" % key)

    # -- membership / keys ------------------------------------------------

    def __contains__(self, key):
        return bool(self._query("SELECT 1 FROM cells WHERE key=?", (key,)))

    def __len__(self):
        rows = self._query("SELECT COUNT(*) FROM cells")
        return rows[0][0] if rows else 0

    def keys(self):
        """Full keys of every stored cell — straight off the index."""
        return [row[0] for row in self._query("SELECT key FROM cells")]

    # -- bulk reads -------------------------------------------------------

    def iter_results(self):
        """Yield every stored result (analysis bulk read).

        One lazily-decoded result per row: identity and statistics come
        from the row, so a pass that reads only statistics never
        decompresses a record; the snapshot decodes when touched,
        exactly as for :meth:`load_many`.
        """
        with self._lock:
            db = self._db()
            if db is None:
                return
            cursor = db.execute(_SELECT_ROW)
        while True:
            with self._lock:
                rows = cursor.fetchmany(1024)
            if not rows:
                return
            for row in rows:
                yield _StoredResult._from_row(self, row)

    def load_many(self, keys):
        """Bulk read: ``{key: SimulationResult}`` for every hit.

        Hits come back as lazily-decoded results: the identity and
        statistics are served from the row, and the architectural
        snapshot decompresses from its record only when touched.
        Keys the store does not hold are simply absent from the
        returned dict (callers treat absence as "needs simulating").
        """
        keys = list(dict.fromkeys(keys))
        found = {}
        with self._lock:
            db = self._db()
            if db is None:
                return found
            for start in range(0, len(keys), _IN_CHUNK):
                chunk = keys[start:start + _IN_CHUNK]
                query = (_SELECT_ROW + " WHERE key IN (%s)"
                         % ",".join("?" * len(chunk)))
                for row in db.execute(query, chunk):
                    found[row["key"]] = _StoredResult._from_row(self, row)
        return found

    # -- round-tripping ---------------------------------------------------

    def load(self, key):
        """Return the stored :class:`SimulationResult`, or ``None``."""
        env = self.load_envelope(key)
        if env is None:
            return None
        try:
            return SimulationResult.from_dict(
                env["result"], _cell_program(env.get("meta")))
        except (ValueError, KeyError, TypeError):
            return None

    def load_envelope(self, key):
        """The raw stored envelope (``{"key", "model_version", "meta",
        "result"}``) for ``key``, or ``None`` — format-level access for
        tooling and store equivalence checks."""
        try:
            return self._read_envelope(key)
        except (KeyError, ValueError):
            return None

    def save(self, key, result, meta=None):
        """Persist one result as its cell's row (one INSERT).

        When ``meta`` names the cell's benchmark, scale and seed, as
        the runner's does, the memory image is stored as the words that
        differ from the program's initial image, found in O(words
        written) for a result whose memory is a view over that image:
        one from a core, the pool or a decoded record (see the module
        docstring).
        """
        meta = dict(meta or {})
        envelope = {
            "key": key,
            "model_version": MODEL_VERSION,
            "meta": meta,
            "result": result.to_dict(_cell_program(meta)),
        }
        self._insert_envelope(envelope, stats=result.stats)

    def clear(self):
        """Delete every stored cell (keeps the directory)."""
        with self._lock:
            self.close()
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(str(self.manifest_path) + suffix)
                except OSError:
                    pass

    # -- failure records --------------------------------------------------

    @property
    def failures_dir(self):
        return self.root / "failures"

    def _failure_path(self, key):
        for path in self.failures_dir.glob("*__%s.json" % key[:12]):
            return path
        return None

    def save_failure(self, failure):
        """Persist one :class:`CellFailure` atomically; returns its path.

        Failures live under ``failures/`` with browsable prefix +
        digest names (:func:`cell_filename`).  Saving is idempotent
        per key (atomic replace), so a failure re-recorded by a
        retried campaign never duplicates.
        """
        directory = self.failures_dir
        directory.mkdir(parents=True, exist_ok=True)
        name = cell_filename(failure.benchmark, failure.config_name or "-",
                             failure.scheme_name, failure.key)
        path = directory / name
        fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(failure.to_dict(), handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def load_failure(self, key):
        """The persisted :class:`CellFailure` for ``key``, or ``None``."""
        path = self._failure_path(key)
        if path is None:
            return None
        try:
            with open(path) as handle:
                data = json.load(handle)
            if data.get("key") != key:
                return None  # digest-prefix collision
            return CellFailure.from_dict(data)
        except (OSError, ValueError, TypeError):
            return None

    def failures(self):
        """Every readable failure record, sorted by benchmark/config."""
        return self.read_failures()[0]

    def read_failures(self):
        """``(records, unreadable)``: every readable failure record, as
        :meth:`failures` returns them, and the sorted file names under
        ``failures/`` that hold none (truncated, not JSON, or of a
        failure kind this release does not know)."""
        records = []
        unreadable = []
        for path in sorted(self.failures_dir.glob("*.json")):
            try:
                with open(path) as handle:
                    records.append(CellFailure.from_dict(json.load(handle)))
            except (OSError, ValueError, TypeError, AttributeError):
                unreadable.append(path.name)
        return records, unreadable

    def clear_failure(self, key):
        """Drop the failure record for ``key``.

        Called whenever a result for the cell lands, such as a retry
        that succeeded, so a cell is never simultaneously a result and
        a failure.  Returns True when a record was removed.
        """
        path = self._failure_path(key)
        if path is None:
            return False
        try:
            path.unlink()
        except OSError:
            return False
        return True

    # -- eviction / integrity ---------------------------------------------

    def verify(self):
        """Integrity sweep: delete corrupt and stale rows.

        Every row's record is decoded and checked: zlib's Adler-32
        checksum, the JSON, the key match, and a
        :meth:`SimulationResult.from_dict` round trip, a delta record
        against its cell's program.  Corrupt rows are deleted, so the
        next campaign simulates their cells again.  Rows whose
        ``model_version`` stamp differs from the running
        :data:`MODEL_VERSION` are *stale*: unreachable anyway (their
        keys can never be recomputed), and deleted too.  Offline
        operation.  Returns ``{"scanned", "kept", "corrupt",
        "stale"}``.
        """
        summary = {"scanned": 0, "kept": 0, "corrupt": 0, "stale": 0}
        drop = []
        with self._lock:
            db = self._db()
            if db is None:
                return summary
            for key, record in db.execute("SELECT key, record FROM cells"):
                verdict = _verdict(key, record)
                summary["scanned"] += 1
                summary[verdict] += 1
                if verdict != "kept":
                    drop.append((key,))
            with db:
                db.executemany("DELETE FROM cells WHERE key=?", drop)
        return summary

    def _disk_bytes(self):
        """The database's size on disk, its write-ahead log included.

        The ``-shm`` file is left out: it is the WAL's index, which an
        open connection creates and which holds no cell data.
        """
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.stat(str(self.manifest_path) + suffix).st_size
            except OSError:
                pass
        return total

    def gc(self, keep_keys):
        """Evict every cell whose full key is not in ``keep_keys``.

        The targeted counterpart of :meth:`clear`: callers compute the
        keys of the grid slices they still care about and every other
        cell — stale model versions, abandoned scales, ad-hoc configs —
        is deleted, then ``VACUUM`` rewrites the file without their
        pages.  Offline operation.  Returns ``{"scanned", "kept",
        "dropped", "bytes_reclaimed"}``.
        """
        keep = set(keep_keys)
        with self._lock:
            keys = self.keys()
            drop = [(key,) for key in keys if key not in keep]
            summary = {"scanned": len(keys), "kept": len(keys) - len(drop),
                       "dropped": len(drop), "bytes_reclaimed": 0}
            if drop:
                db = self._db()
                before = self._disk_bytes()
                with db:
                    db.executemany("DELETE FROM cells WHERE key=?", drop)
                db.execute("VACUUM")
                # In WAL mode the vacuumed pages land in the WAL; the
                # file shrinks only once they are checkpointed back.
                db.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                summary["bytes_reclaimed"] = max(
                    0, before - self._disk_bytes())
        return summary

    def stats(self):
        """Store-level accounting for ``python -m repro store stats``:
        ``live_bytes`` sums the compressed records, ``raw_bytes`` their
        sizes before compression."""
        rows = self._query("SELECT COUNT(*), COALESCE(SUM(LENGTH(record)), 0),"
                           " COALESCE(SUM(raw_length), 0) FROM cells")
        cells, live, raw = rows[0] if rows else (0, 0, 0)
        failures, unreadable = self.read_failures()
        return {
            "root": str(self.root),
            "format": FORMAT_VERSION,
            "cells": cells,
            "disk_bytes": self._disk_bytes(),
            "live_bytes": live,
            "raw_bytes": raw,
            "compression_ratio": (raw / live) if live else None,
            "failures": len(failures),
            "unreadable_failures": unreadable,
        }

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

On disk the store is **segment-backed** (format ``segments-v1``, see
:mod:`repro.harness.segments` for the byte-level contract)::

    results/store/
        manifest.db            SQLite manifest + full-key index
        segments/seg-NNNNNN.seg   append-only record segments
        failures/*.json        CellFailure records (unchanged format)

Results append as compressed records into segment files; the manifest
maps every full 64-hex key to its record and carries the
benchmark/config/scheme columns plus per-cell statistics, so
``keys()``/``__len__`` are O(index) with zero file opens, and
``load_many``/``iter_results`` return lazily-decoded results whose
statistics come from the manifest — a pass that reads only statistics
never decompresses a snapshot.

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

Segment files are the only format the store reads.  The JSON-file-per-
cell layout of earlier releases (one ``<prefix>__<digest12>.json`` per
cell in the store root) is invisible to every read path until
``python -m repro store migrate`` (:meth:`ResultStore.migrate`, the one
method that reads that layout) folds it into segments; ``store stats``
counts such files and says so.

Failures are first-class: a cell the campaign could not complete —
quarantined after repeatedly killing workers, or a deterministic
exception — persists as a :class:`CellFailure`
record under ``failures/`` beside the results, written with the same
atomic discipline as before.  A later successful result for the cell
clears its failure record (first-result-wins), and ``python -m repro
store failures`` lists whatever remains.
"""

import hashlib
import io
import json
import os
import pathlib
import pickle
import re
import shutil
import tempfile
import threading

from repro import __version__
from repro.core.registry import canonical_name
from repro.harness.segments import (
    CorruptRecord,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    SEGMENT_BYTES,
    SEGMENT_DIR,
    SEGMENT_SUFFIX,
    decode_envelope,
    encode_envelope,
    pack_record,
    unpack_record,
)
from repro.pipeline.core import SimulationResult, decode_memory
from repro.pipeline.stats import SimStats
from repro.workloads.program_cache import cached_spec_program

#: Stamp hashed into every key; results computed by a different model
#: version are invisible (their keys differ), never silently reused.
MODEL_VERSION = __version__

#: Default on-disk location, overridable via the environment.
DEFAULT_STORE_DIR = os.environ.get("REPRO_STORE_DIR", "results/store")

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Recognised failure classes (see the failure-model contract in
#: :mod:`repro.harness`): ``poisoned`` — the cell killed workers until
#: it was quarantined; ``deterministic`` — the simulation raised.
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
    """Unpickler restricted to the one class manifest blobs may hold."""

    def find_class(self, module, name):
        if module == "repro.pipeline.stats" and name == "SimStats":
            return SimStats
        raise pickle.UnpicklingError(
            "manifest stats blob references %s.%s" % (module, name))


def _pickle_stats(stats):
    try:
        return pickle.dumps(stats, protocol=4)
    except Exception:
        return None


def _unpickle_stats(blob):
    """Decode a manifest stats blob, or ``None`` when it cannot be
    trusted (missing, truncated, foreign class) — callers fall back to
    the authoritative segment payload."""
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


class _StoredResult(SimulationResult):
    """A stored result whose heavy fields decode on first access.

    Identity (names, halted, cycles) and statistics come straight from
    the manifest row; the architectural snapshot (``regs``/``memory``/
    ``extra``) is only read and decompressed from its segment when
    actually touched.  This is what makes ``load_many`` and
    ``iter_results`` over 10^4 cells an index scan instead of 10^4
    decompress+parse round trips.  ``memory`` decodes later still: a
    campaign cell's record holds only the words it changed, and its
    view over the program's image needs the cell's program, which
    reading ``regs``, ``extra`` or the statistics never generates.
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
        d["_segment_name"] = row["segment_name"]
        d["_offset"] = row["offset"]
        d["_length"] = row["length"]
        return self

    def _materialise(self):
        env = self._store._read_cell(
            self.__dict__["_key"], self.__dict__["_segment_name"],
            self.__dict__["_offset"], self.__dict__["_length"])
        data = env["result"]
        d = self.__dict__
        d.setdefault("_stats", SimStats.from_dict(data["stats"]))
        d["_regs"] = list(data["regs"])
        d["_extra"] = dict(data.get("extra", {}))
        d["_envelope"] = env

    @property
    def stats(self):
        d = self.__dict__
        if "_stats" not in d:
            cached = _unpickle_stats(d.get("_stats_blob"))
            if cached is not None:
                d["_stats"] = cached
            else:
                self._materialise()
        return d["_stats"]

    @stats.setter
    def stats(self, value):
        self.__dict__["_stats"] = value

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
    """Segment-backed result store rooted at one directory.

    Surface: ``save``/``load``/``load_many``/``iter_results``/
    ``keys``/``verify``/``gc``/``clear``, the failure-record API,
    ``in``/``len``, the maintenance verbs (:meth:`compact`,
    :meth:`migrate`, :meth:`stats`), and :meth:`load_envelope` for
    format-level tooling.  Every read answers from the manifest and
    its segments; JSON files in the root are input for
    :meth:`migrate` only.

    Concurrency: any number of reader instances (threads or processes)
    may overlap any number of writers — readers always consult the
    manifest, and every writer instance appends to its *own* segment.
    The maintenance verbs (``verify``/``gc``/``compact``/``migrate``)
    rewrite shared state and are offline operations: run them without
    concurrent writers.
    """

    def __init__(self, root=None):
        self.root = pathlib.Path(root or DEFAULT_STORE_DIR)
        self._manifest = None
        self._active = None  # this instance's open segment, grown lazily
        self._lock = threading.RLock()

    # -- manifest / segment plumbing --------------------------------------

    @property
    def manifest_path(self):
        return self.root / MANIFEST_NAME

    @property
    def segments_dir(self):
        return self.root / SEGMENT_DIR

    def _manifest_if_exists(self):
        """The manifest, or ``None`` — never creates files on a read."""
        if self._manifest is None and self.manifest_path.exists():
            self._manifest = Manifest(self.manifest_path)
        return self._manifest

    def _manifest_rw(self):
        if self._manifest is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._manifest = Manifest(self.manifest_path)
        return self._manifest

    def _legacy_files(self):
        """Unmigrated JSON-per-cell files in the store root, sorted."""
        return sorted(self.root.glob("*.json"))

    def _active_segment(self, need):
        """This instance's open segment, rolled when ``need`` more
        bytes would push it past the seal threshold."""
        active = self._active
        if (active is not None and active["offset"] > 0
                and active["offset"] + need > SEGMENT_BYTES):
            self._seal_active()
            active = None
        if active is None:
            manifest = self._manifest_rw()
            segment_id, name = manifest.add_segment()
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            path = self.segments_dir / name
            handle = open(path, "ab")
            active = self._active = {
                "id": segment_id, "path": path,
                "handle": handle, "offset": handle.tell(),
            }
        return active

    def _seal_active(self):
        active, self._active = self._active, None
        if active is None:
            return
        try:
            active["handle"].close()
        except OSError:
            pass
        try:
            self._manifest_rw().seal_segment(active["id"])
        except Exception:
            pass

    def close(self):
        """Release the open segment handle and manifest connection."""
        with self._lock:
            self._seal_active()
            if self._manifest is not None:
                self._manifest.close()
                self._manifest = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _append_envelope(self, envelope, stats=None):
        """Append one envelope as a segment record + manifest row.

        The record is flushed *before* the row commits, so a crash
        between the two leaves an unindexed orphan (reclaimed by
        :meth:`compact`), never an indexed cell without bytes.  The
        envelope's own ``model_version`` is recorded — migration and
        salvage preserve foreign stamps for :meth:`verify` to judge.
        """
        payload, raw_length = encode_envelope(envelope)
        record = pack_record(payload)
        data = envelope.get("result") or {}
        if stats is None:
            try:
                stats = SimStats.from_dict(data["stats"])
            except (ValueError, KeyError, TypeError):
                stats = None
        with self._lock:
            manifest = self._manifest_rw()
            active = self._active_segment(len(record))
            offset = active["offset"]
            active["handle"].write(record)
            active["handle"].flush()
            active["offset"] = offset + len(record)
            manifest.upsert_cell({
                "key": envelope["key"],
                "segment": active["id"],
                "offset": offset,
                "length": len(record),
                "raw_length": raw_length,
                "benchmark": data.get("program_name"),
                "config": data.get("config_name"),
                "scheme": data.get("scheme_name"),
                "model_version": envelope.get("model_version"),
                "halted": 1 if data.get("halted") else 0,
                "result_cycles": data.get("cycles", 0),
                "cycles": getattr(stats, "cycles", None),
                "committed": getattr(stats, "committed_instructions", None),
                "stats": _pickle_stats(stats) if stats is not None else None,
            })
            return active["path"]

    def _read_at(self, segment_name, offset, length):
        path = self.segments_dir / segment_name
        with open(path, "rb") as handle:
            handle.seek(offset)
            record = handle.read(length)
        return decode_envelope(unpack_record(record))

    def _read_cell(self, key, segment_name, offset, length):
        """Read + validate one cell's envelope from its segment.

        Retries through a fresh manifest lookup when the locator went
        stale (the record was relocated by a concurrent ``compact``),
        so lazily-decoded results survive store maintenance.
        """
        try:
            env = self._read_at(segment_name, offset, length)
            if env.get("key") == key:
                return env
        except (OSError, CorruptRecord, ValueError):
            pass
        manifest = self._manifest_if_exists()
        row = manifest.cell(key) if manifest is not None else None
        if row is None:
            raise KeyError("cell %s vanished from the store index" % key)
        env = self._read_at(row["segment_name"], row["offset"], row["length"])
        if env.get("key") != key:
            raise CorruptRecord(
                "segment record for %s holds key %r — run"
                " 'python -m repro store verify'" % (key, env.get("key")))
        return env

    # -- membership / keys ------------------------------------------------

    def __contains__(self, key):
        manifest = self._manifest_if_exists()
        return manifest is not None and manifest.has_key(key)

    def __len__(self):
        manifest = self._manifest_if_exists()
        return manifest.count() if manifest is not None else 0

    def keys(self):
        """Full keys of every stored cell — straight off the index."""
        manifest = self._manifest_if_exists()
        return manifest.keys() if manifest is not None else []

    # -- bulk reads -------------------------------------------------------

    def iter_results(self):
        """Yield every stored result (analysis bulk read).

        One lazily-decoded result per manifest row, in record order:
        identity and statistics come from the manifest, so a pass that
        reads only statistics never opens a segment; the snapshot
        decodes when touched, exactly as for :meth:`load_many`.
        """
        manifest = self._manifest_if_exists()
        if manifest is None:
            return
        for row in manifest.iter_cells(with_stats=True):
            yield _StoredResult._from_row(self, row)

    def load_many(self, keys):
        """Bulk read: ``{key: SimulationResult}`` for every hit.

        Hits come back as lazily-decoded results: the identity and
        statistics are served from the manifest, and the architectural
        snapshot decompresses from its segment only when touched.
        Keys the index does not hold are simply absent from the
        returned dict (callers treat absence as "needs simulating").
        """
        manifest = self._manifest_if_exists()
        if manifest is None:
            return {}
        return {key: _StoredResult._from_row(self, row)
                for key, row in manifest.cells_for(
                    dict.fromkeys(keys)).items()}

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
        tooling and chaos equivalence checks."""
        manifest = self._manifest_if_exists()
        row = manifest.cell(key) if manifest is not None else None
        if row is None:
            return None
        try:
            env = self._read_at(row["segment_name"], row["offset"],
                                row["length"])
        except (OSError, CorruptRecord, ValueError):
            return None
        return env if env.get("key") == key else None

    def save(self, key, result, meta=None):
        """Persist one result; returns the segment path it landed in.

        Appends a record to this instance's segment and indexes it in
        the manifest.  When ``meta`` names the cell's benchmark, scale
        and seed, as the runner's does, the memory image is stored as
        the words that differ from the program's initial image, found
        in O(words written) for a result whose memory is a view over
        that image: one from a core, the pool or a decoded record (see
        the module docstring).
        """
        meta = dict(meta or {})
        envelope = {
            "key": key,
            "model_version": MODEL_VERSION,
            "meta": meta,
            "result": result.to_dict(_cell_program(meta)),
        }
        return self._append_envelope(envelope, stats=result.stats)

    def clear(self):
        """Delete every stored cell (keeps the directory)."""
        with self._lock:
            active, self._active = self._active, None
            if active is not None:
                try:
                    active["handle"].close()
                except OSError:
                    pass
            if self._manifest is not None:
                self._manifest.close()
                self._manifest = None
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(str(self.manifest_path) + suffix)
                except OSError:
                    pass
            shutil.rmtree(self.segments_dir, ignore_errors=True)

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
        """Drop the failure record for ``key`` (first-result-wins).

        Called whenever a result for the cell lands — a late result
        from a presumed-dead worker, or a retry that succeeded — so a
        cell is never simultaneously a result and a failure.  Returns
        True when a record was removed.
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
        """Integrity sweep: quarantine corrupt cells, drop stale ones.

        Every record is re-read and validated (frame + CRC + JSON + key
        match + :meth:`SimulationResult.from_dict` round-trip, a delta
        record against its cell's program).  A
        segment holding any corrupt record has its healthy records
        salvaged into a fresh segment, then the whole file is set aside
        with a ``.corrupt`` suffix — out of the index, preserved for
        post-mortem.  Cells whose ``model_version`` stamp differs from
        the running :data:`MODEL_VERSION` are *stale*: unreachable
        anyway (their keys can never be recomputed), their index rows
        are dropped and their bytes reclaimed at the next
        :meth:`compact`.  Unmigrated JSON files in the root are left
        for :meth:`migrate`.  Offline operation.  Returns ``{"scanned",
        "kept", "corrupt", "stale"}``.
        """
        summary = {"scanned": 0, "kept": 0, "corrupt": 0, "stale": 0}
        with self._lock:
            manifest = self._manifest_if_exists()
            if manifest is not None:
                self._verify_segments(manifest, summary)
        return summary

    def _verify_segments(self, manifest, summary):
        verdicts = {}  # segment_id -> [(key, verdict)]
        names = {}
        current_name, handle = None, None
        try:
            for row in manifest.iter_cells(with_stats=False):
                if row["segment_name"] != current_name:
                    if handle is not None:
                        handle.close()
                    current_name, handle = row["segment_name"], None
                    try:
                        handle = open(self.segments_dir / current_name, "rb")
                    except OSError:
                        pass
                names[row["segment"]] = row["segment_name"]
                summary["scanned"] += 1
                verdict = "corrupt"
                if handle is not None:
                    try:
                        handle.seek(row["offset"])
                        env = decode_envelope(
                            unpack_record(handle.read(row["length"])))
                        key = env["key"]
                        if (isinstance(key, str) and len(key) == 64
                                and key == row["key"]):
                            SimulationResult.from_dict(
                                env["result"],
                                _cell_program(env.get("meta")))
                            verdict = (
                                "kept" if env.get("model_version")
                                == MODEL_VERSION else "stale")
                    except (OSError, CorruptRecord, ValueError, KeyError,
                            TypeError):
                        verdict = "corrupt"
                summary[verdict] += 1
                verdicts.setdefault(row["segment"], []).append(
                    (row["key"], verdict))
        finally:
            if handle is not None:
                handle.close()

        stale_keys = [key for cells in verdicts.values()
                      for key, verdict in cells if verdict == "stale"]
        if stale_keys:
            manifest.delete_cells(stale_keys)
        for segment_id, cells in verdicts.items():
            if all(verdict != "corrupt" for _, verdict in cells):
                continue
            self._quarantine_segment(manifest, segment_id,
                                     names[segment_id], cells)

    def _quarantine_segment(self, manifest, segment_id, name, cells):
        """Salvage healthy records out of a corrupt segment, then set
        the whole file aside as ``<name>.corrupt``."""
        if self._active is not None and self._active["id"] == segment_id:
            self._seal_active()
        for key, verdict in cells:
            if verdict != "kept":
                continue
            row = manifest.cell(key)
            if row is None or row["segment"] != segment_id:
                continue  # already relocated
            try:
                env = self._read_at(name, row["offset"], row["length"])
                self._append_envelope(env)
            except (OSError, CorruptRecord, ValueError, KeyError):
                continue
        manifest.delete_cells(
            [key for key, verdict in cells if verdict == "corrupt"])
        path = self.segments_dir / name
        try:
            os.replace(path, str(path) + ".corrupt")
        except OSError:
            pass
        manifest.delete_segment(segment_id)

    def _segment_disk_bytes(self):
        total = 0
        if self.segments_dir.is_dir():
            for path in self.segments_dir.glob("*" + SEGMENT_SUFFIX):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def gc(self, keep_keys):
        """Evict every cell whose full key is not in ``keep_keys``.

        The targeted counterpart of :meth:`clear`: callers compute the
        keys of the grid slices they still care about and every other
        cell — stale model versions, abandoned scales, ad-hoc configs —
        is dropped from the index, then :meth:`compact` rewrites the
        survivors and reclaims the dead bytes.  Offline operation.
        Returns ``{"scanned", "kept", "dropped", "bytes_reclaimed"}``.
        """
        keep = set(keep_keys)
        summary = {"scanned": 0, "kept": 0, "dropped": 0,
                   "bytes_reclaimed": 0}
        with self._lock:
            manifest = self._manifest_if_exists()
            if manifest is not None:
                all_keys = manifest.keys()
                drop = [key for key in all_keys if key not in keep]
                summary["scanned"] = len(all_keys)
                summary["kept"] = len(all_keys) - len(drop)
                summary["dropped"] = len(drop)
                if drop:
                    manifest.delete_cells(drop)
                    before = self._segment_disk_bytes()
                    self.compact()
                    summary["bytes_reclaimed"] = max(
                        0, before - self._segment_disk_bytes())
        return summary

    def compact(self):
        """Fold live records into fresh sealed segments.

        Copies every indexed record verbatim (CRC-checked, never
        re-encoded) into new segments in index order, then deletes all
        old segment files — reclaiming dead bytes left by overwrites,
        evictions, and orphaned appends, and folding the single-record
        segments short-lived writer instances leave behind.  Records
        whose CRC fails during the copy are dropped from the index and
        counted.  Offline operation.  Returns a summary dict.
        """
        with self._lock:
            manifest = self._manifest_if_exists()
            summary = {"cells": 0, "segments_before": 0, "segments_after": 0,
                       "bytes_before": 0, "bytes_after": 0,
                       "corrupt_dropped": 0}
            if manifest is None:
                return summary
            self._seal_active()
            old_segments = manifest.segments()
            summary["segments_before"] = len(old_segments)
            summary["bytes_before"] = self._segment_disk_bytes()

            moves = []  # (segment_id, offset, key)
            dropped = []
            writer = None  # {"id","path","handle","offset"}
            new_ids = set()
            current_name, handle = None, None
            try:
                for row in manifest.iter_cells(with_stats=False):
                    if row["segment_name"] != current_name:
                        if handle is not None:
                            handle.close()
                        current_name, handle = row["segment_name"], None
                        try:
                            handle = open(
                                self.segments_dir / current_name, "rb")
                        except OSError:
                            pass
                    record = b""
                    if handle is not None:
                        try:
                            handle.seek(row["offset"])
                            record = handle.read(row["length"])
                            unpack_record(record)
                        except (OSError, CorruptRecord):
                            record = b""
                    if not record:
                        dropped.append(row["key"])
                        continue
                    if writer is not None and writer["offset"] > 0 and \
                            writer["offset"] + len(record) > SEGMENT_BYTES:
                        writer["handle"].close()
                        manifest.seal_segment(writer["id"])
                        writer = None
                    if writer is None:
                        segment_id, name = manifest.add_segment()
                        new_ids.add(segment_id)
                        self.segments_dir.mkdir(parents=True, exist_ok=True)
                        path = self.segments_dir / name
                        writer = {"id": segment_id, "path": path,
                                  "handle": open(path, "ab"), "offset": 0}
                    moves.append((writer["id"], writer["offset"], row["key"]))
                    writer["handle"].write(record)
                    writer["offset"] += len(record)
                    summary["cells"] += 1
            finally:
                if handle is not None:
                    handle.close()
                if writer is not None:
                    writer["handle"].flush()
                    writer["handle"].close()
                    manifest.seal_segment(writer["id"])

            manifest.relocate_cells(moves)
            if dropped:
                manifest.delete_cells(dropped)
                summary["corrupt_dropped"] = len(dropped)
            for segment in old_segments:
                if segment["id"] in new_ids:
                    continue
                try:
                    os.unlink(self.segments_dir / segment["name"])
                except OSError:
                    pass
                manifest.delete_segment(segment["id"])
            summary["segments_after"] = len(new_ids)
            summary["bytes_after"] = self._segment_disk_bytes()
            return summary

    def migrate(self):
        """Convert JSON-per-cell files in the root into segment records.

        This is the only code that reads the layout earlier releases
        wrote: one ``<benchmark>__<config>__<scheme>__<digest12>.json``
        envelope per cell.  Each envelope is appended verbatim — key,
        meta, and ``model_version`` stamp preserved — then its file is
        deleted.  Unreadable or non-round-tripping files are skipped and
        left in place.  Offline operation.  Returns ``{"migrated",
        "skipped"}``.
        """
        summary = {"migrated": 0, "skipped": 0}
        with self._lock:
            for path in self._legacy_files():
                try:
                    with open(path) as handle:
                        data = json.load(handle)
                    key = data["key"]
                    if not isinstance(key, str) or len(key) != 64:
                        raise ValueError("bad key")
                    stats = SimStats.from_dict(data["result"]["stats"])
                except (OSError, ValueError, KeyError, TypeError):
                    summary["skipped"] += 1
                    continue
                self._append_envelope(data, stats=stats)
                try:
                    path.unlink()
                except OSError:
                    summary["skipped"] += 1
                    continue
                summary["migrated"] += 1
        return summary

    def stats(self):
        """Store-level accounting for ``python -m repro store stats``.

        ``legacy_cells``/``legacy_bytes`` count the unmigrated JSON
        files in the root, which no read path serves.
        """
        manifest = self._manifest_if_exists()
        legacy_files = self._legacy_files()
        legacy_bytes = 0
        for path in legacy_files:
            try:
                legacy_bytes += path.stat().st_size
            except OSError:
                pass
        manifest_bytes = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                manifest_bytes += os.stat(
                    str(self.manifest_path) + suffix).st_size
            except OSError:
                pass
        segment_count = 0
        if self.segments_dir.is_dir():
            segment_count = sum(
                1 for _ in self.segments_dir.glob("*" + SEGMENT_SUFFIX))
        live, raw = manifest.totals() if manifest is not None else (0, 0)
        segment_bytes = self._segment_disk_bytes()
        failures, unreadable = self.read_failures()
        return {
            "root": str(self.root),
            "format": FORMAT_VERSION,
            "cells": manifest.count() if manifest is not None else 0,
            "legacy_cells": len(legacy_files),
            "segments": segment_count,
            "segment_bytes": segment_bytes,
            "manifest_bytes": manifest_bytes,
            "legacy_bytes": legacy_bytes,
            "disk_bytes": segment_bytes + manifest_bytes + legacy_bytes,
            "live_bytes": live,
            "raw_bytes": raw,
            "compression_ratio": (raw / live) if live else None,
            "legacy": bool(legacy_files),
            "failures": len(failures),
            "unreadable_failures": unreadable,
        }

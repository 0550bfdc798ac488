"""Content-addressed cache of generated workload programs.

Workload generation is deterministic but not free: every grid cell
used to regenerate its benchmark program from scratch, so a worker
(pool process, cluster worker, or the serial loop) simulating the same
benchmark under sixteen config x scheme combinations paid the
generation cost sixteen times.  This module memoises programs behind a
content-addressed key so each distinct workload is generated at most
once per process.

The key (:func:`program_key`) is a SHA-256 over

- the complete :class:`~repro.workloads.generator.WorkloadProfile`
  parameter record (``asdict``, every weight and size — already scaled
  to its final iteration count), so editing a profile can never reuse
  a stale program;
- the generation ``seed``;
- :data:`~repro.workloads.generator.GENERATOR_VERSION`, bumped when
  the generator's output changes for an unchanged profile.

Two layers:

* **In-process dict** — always on.  ``fork``-based pool workers
  inherit the parent's entries, cluster worker threads share one
  cache, and a worker looping over many cells of one benchmark
  generates it once.  Programs are safe to share: cores and results
  read the initial image through
  :class:`~repro.pipeline.core.MemoryImage` and write only their own
  delta, and nothing mutates the instruction list.  Each cached
  program's image is a read-only
  :class:`~repro.isa.program.PackedImage`, packed once when the
  program is generated: ``array('q')`` columns of 16 bytes a word
  (24 in its shuffled pointer ring), where a dict of Python ints costs
  about 90.  Cores record per-program facts on a shared program
  (:attr:`~repro.isa.program.Program.start_state`, such as its warmed
  L2), so :func:`clear_cache` drops those with the programs.  The
  cache records one fact itself, for each program it packs or loads:
  a packed image is in range by construction, so no core walks it to
  check.
* **Disk (optional)** — :func:`configure_disk_cache` points the cache
  at a directory (the CLI uses ``<store-dir>/programs``), and programs
  persist as one JSON file per key, so *separate processes* — repeated
  CLI runs — reuse generations across their lifetimes.  Writes are
  atomic (temp file + rename) and corrupt or unreadable files fall back
  to regeneration; content addressing makes sharing one directory
  between concurrent writers safe (same key => byte-identical program).

  A program file is ``<key>.<PROGRAM_FORMAT_VERSION>.json``, one JSON
  object holding ``name``, ``entry``, ``instructions`` (one
  ``[op, rd, rs1, rs2, imm, label]`` row each), ``initial_regs``
  (``{"reg": value}``) and ``initial_memory``, the packed image's
  :meth:`~repro.isa.program.PackedImage.columns`: ``runs`` as
  ``[start, length, first]`` triples, and ``addresses``, ``values``
  and ``slots`` as base64 over little-endian 64-bit words.  Addresses
  and values are in the image's own order (a cache warm-up installs
  lines in first-touch order).  Loading decodes the columns straight
  into arrays, with no Python int per word; text that is not base64,
  is not whole words or disagrees with ``runs`` raises ``ValueError``,
  and the file misses.  The version in the name means a file in
  another layout — the two JSON columns of ``<key>.program-v2.json``
  files, the ``{"address": value}`` image of ``<key>.json`` files — is
  never opened: it misses, and the program is regenerated.

**Dynamic traces** live here too, through the same two layers and the
same directory: :func:`cached_trace` / :func:`cached_spec_trace` resolve
a (profile, seed) pair to the program's canonical
:class:`~repro.isa.trace.DynamicTrace` — recorded once via the
reference interpreter (:func:`~repro.isa.trace.record_trace`), then
reused by every grid cell that shares the workload.  The trace key
(:func:`trace_key`) wraps the program key plus
:data:`~repro.isa.trace.TRACE_FORMAT_VERSION`, so a trace can never
outlive either the generator output it was recorded from or the column
format the pipeline expects; on disk a trace is one
``<key>.trace.json`` file with the same atomic-write and
corrupt-falls-back-to-re-record discipline as programs.  Every trace
format bump (trace-v2's typed-array columns, trace-v3's dropped
``l1_hit`` column) rides exactly this mechanism: a file written in an
older format keys differently, is never opened, and the workload is
re-recorded on first use — and should a current file be truncated or
corrupted, :meth:`~repro.isa.trace.DynamicTrace.from_payload` raises
``ValueError``, which the loader treats as a miss.
"""

import hashlib
import json
import os
import pathlib
import tempfile
import threading
from dataclasses import asdict, replace

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import PackedImage, Program
from repro.isa.trace import (
    TRACE_FORMAT_VERSION,
    DynamicTrace,
    decode_words,
    encode_words,
    record_trace,
)
from repro.workloads.characteristics import SPEC_PROFILES
from repro.workloads.generator import GENERATOR_VERSION, generate_program

#: Layout of a program file on disk, part of its name: bump it when
#: the layout changes, so files in the old one miss.  program-v3: the
#: image as packed columns.
PROGRAM_FORMAT_VERSION = "program-v3"

_CACHE = {}
_TRACE_CACHE = {}
_SPEC_KEYS = {}
_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0, "disk_hits": 0,
          "trace_hits": 0, "trace_misses": 0, "trace_disk_hits": 0}
_DISK_DIR = None


def program_key(profile, seed):
    """Content hash identifying one generated program; hex digest."""
    payload = {
        "generator_version": GENERATOR_VERSION,
        "profile": asdict(profile),
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_key(profile, seed):
    """Content hash identifying one recorded dynamic trace; hex digest.

    Wraps :func:`program_key` (so the generator version, full profile,
    and seed all participate) plus the trace format version: bumping
    either invalidates persisted traces without touching programs.
    """
    return _trace_key(program_key(profile, seed))


def _trace_key(source_key):
    payload = {
        "trace_format_version": TRACE_FORMAT_VERSION,
        "program_key": source_key,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _spec_keys(benchmark, scale, seed):
    """``(scaled profile, program key, trace key)`` of one SPEC proxy,
    memoised per (benchmark, scale, seed): every cell asks for its
    program and trace several times, and a key costs a JSON encoding
    and two SHA-256 digests."""
    memo = (benchmark, scale, seed)
    keys = _SPEC_KEYS.get(memo)
    if keys is None:
        profile = scaled_profile(SPEC_PROFILES[benchmark], scale)
        key = program_key(profile, seed)
        keys = _SPEC_KEYS[memo] = (profile, key, _trace_key(key))
    return keys


def scaled_profile(profile, scale):
    """``profile`` with its iteration count multiplied by ``scale``.

    The one canonical scaling rule (minimum two iterations, rounded).
    Every SPEC lookup — :func:`cached_spec_program`,
    :func:`cached_spec_trace`, and through them
    :func:`~repro.workloads.spec2017.spec_suite` — scales through it,
    so all resolve a (profile, scale) pair to the same content.
    """
    iterations = max(2, int(round(profile.iterations * scale)))
    if iterations == profile.iterations:
        return profile
    return replace(profile, iterations=iterations)


# -- disk layer -------------------------------------------------------------


def configure_disk_cache(directory):
    """Enable (a path) or disable (``None``) the persistent layer.

    Returns the previous setting so tests can restore it.  The
    directory is created lazily on first write.
    """
    global _DISK_DIR
    previous = _DISK_DIR
    _DISK_DIR = pathlib.Path(directory) if directory else None
    return previous


def disk_cache_dir():
    """The configured persistent directory, or ``None``."""
    return _DISK_DIR


def _program_path(key):
    return _DISK_DIR / ("%s.%s.json" % (key, PROGRAM_FORMAT_VERSION))


#: The image's word columns in a program file, in
#: :meth:`~repro.isa.program.PackedImage.columns` order after ``runs``.
_IMAGE_COLUMNS = ("addresses", "values", "slots")


def _program_to_payload(program):
    """A cached program (its image a :class:`PackedImage`) as JSON."""
    runs, *columns = program.initial_memory.columns()
    image = {"runs": runs}
    image.update(zip(_IMAGE_COLUMNS, map(encode_words, columns)))
    return {
        "name": program.name,
        "entry": program.entry,
        "instructions": [
            [i.op.value, i.rd, i.rs1, i.rs2, i.imm, i.label]
            for i in program.instructions
        ],
        "initial_memory": image,
        "initial_regs": {str(r): v for r, v in program.initial_regs.items()},
    }


def _program_from_payload(payload):
    image = payload["initial_memory"]
    return Program(
        instructions=[
            Instruction(op=Opcode(op), rd=rd, rs1=rs1, rs2=rs2, imm=imm,
                        label=label)
            for op, rd, rs1, rs2, imm, label in payload["instructions"]
        ],
        initial_memory=PackedImage(image["runs"], *(
            decode_words(image[name], "q", name) for name in _IMAGE_COLUMNS)),
        initial_regs={int(r): v for r, v in payload["initial_regs"].items()},
        name=payload["name"],
        entry=payload["entry"],
    )


def _in_range(program):
    """Record the ``("image-in-range", length)`` start-state fact a
    program's :class:`PackedImage` holds by construction (addresses in
    ``[0, 2**63)``, signed 64-bit values), so its first core need not
    walk the image to find it; returns ``program``."""
    image = program.initial_memory
    program.start_state[("image-in-range", len(image))] = True
    return program


def _disk_load(key):
    if _DISK_DIR is None:
        return None
    path = _program_path(key)
    try:
        with open(path) as handle:
            program = _program_from_payload(json.load(handle))
        program.validate()
        return _in_range(program)
    except (OSError, ValueError, KeyError, TypeError):
        return None  # missing/corrupt/stale: fall back to regeneration


def _disk_store(key, program):
    if _DISK_DIR is None:
        return
    try:
        _DISK_DIR.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(_DISK_DIR), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(_program_to_payload(program),
                                        separators=(",", ":")))
            os.replace(tmp, str(_program_path(key)))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass  # a read-only or full disk must never fail a simulation


def _trace_disk_load(key):
    if _DISK_DIR is None:
        return None
    path = _DISK_DIR / ("%s.trace.json" % key)
    try:
        with open(path) as handle:
            return DynamicTrace.from_payload(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError):
        return None  # missing/corrupt/stale format: re-record


def _trace_disk_store(key, trace):
    if _DISK_DIR is None:
        return
    try:
        _DISK_DIR.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(_DISK_DIR), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(trace.to_payload(),
                                        separators=(",", ":")))
            os.replace(tmp, str(_DISK_DIR / ("%s.trace.json" % key)))
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass  # a read-only or full disk must never fail a simulation


# -- lookup -----------------------------------------------------------------


def cached_program(profile, seed=2017):
    """Generate ``profile``'s program, memoised by content.

    The program is :func:`~repro.workloads.generator.generate_program`'s
    with its image packed into a :class:`PackedImage`: the same words,
    order and :attr:`~repro.isa.program.Program.image_digest`.
    """
    return _cached_program(program_key(profile, seed), profile, seed)


def _cached_program(key, profile, seed):
    with _LOCK:
        program = _CACHE.get(key)
        if program is not None:
            _STATS["hits"] += 1
            return program
        _STATS["misses"] += 1
    # Disk lookup and generation happen outside the lock; a racing
    # thread may generate the same (deterministic, identical) program
    # twice — harmless.
    program = _disk_load(key)
    if program is not None:
        with _LOCK:
            _STATS["disk_hits"] += 1
            return _CACHE.setdefault(key, program)
    program = generate_program(profile, seed=seed)
    # Finish the build before anything else sees the program: pack its
    # image.  The validation generate_program recorded still holds.
    program.initial_memory = PackedImage.pack(program.initial_memory)
    _in_range(program)
    _disk_store(key, program)
    with _LOCK:
        return _CACHE.setdefault(key, program)


def cached_spec_program(benchmark, scale=1.0, seed=2017):
    """The (cached) program for one SPEC-proxy benchmark.

    Raises ``KeyError`` for unknown benchmark names, exactly like the
    uncached suite path, so callers' error handling is unchanged.
    """
    profile, key, _trace = _spec_keys(benchmark, scale, seed)
    return _cached_program(key, profile, seed)


def cached_trace(profile, seed=2017):
    """The canonical dynamic trace for ``profile``, memoised by content.

    Recorded at most once per process (and, with the disk layer, once
    per cache directory); the backing program comes through
    :func:`cached_program`, so a trace request also primes the program
    cache.  Traces are safe to share — the replayer only ever reads
    the columns.
    """
    key = program_key(profile, seed)
    return _cached_trace(_trace_key(key), key, profile, seed)


def _cached_trace(key, source_key, profile, seed):
    with _LOCK:
        trace = _TRACE_CACHE.get(key)
        if trace is not None:
            _STATS["trace_hits"] += 1
            return trace
        _STATS["trace_misses"] += 1
    # Disk lookup and recording happen outside the lock; a racing
    # thread may record the same (deterministic, identical) trace
    # twice — harmless.
    program = _cached_program(source_key, profile, seed)
    trace = _trace_disk_load(key)
    if trace is not None:
        try:
            trace.check_program(program)
        except ValueError:
            trace = None  # stale file for a colliding key: re-record
    if trace is not None:
        with _LOCK:
            _STATS["trace_disk_hits"] += 1
            return _TRACE_CACHE.setdefault(key, trace)
    trace = record_trace(program)
    _trace_disk_store(key, trace)
    with _LOCK:
        return _TRACE_CACHE.setdefault(key, trace)


def cached_spec_trace(benchmark, scale=1.0, seed=2017):
    """The (cached) dynamic trace for one SPEC-proxy benchmark.

    Raises ``KeyError`` for unknown benchmark names, matching
    :func:`cached_spec_program`.
    """
    profile, key, trace = _spec_keys(benchmark, scale, seed)
    return _cached_trace(trace, key, profile, seed)


def cache_stats():
    """Hit/miss counters plus entry count for this process."""
    with _LOCK:
        return {"entries": len(_CACHE),
                "trace_entries": len(_TRACE_CACHE), **_STATS}


def clear_cache():
    """Empty the in-process caches and zero the counters (tests,
    memory pressure).  The disk layer is left untouched."""
    with _LOCK:
        _CACHE.clear()
        _TRACE_CACHE.clear()
        _SPEC_KEYS.clear()
        for counter in _STATS:
            _STATS[counter] = 0

"""Canonical dynamic traces: functional-execute once, replay everywhere.

A :class:`DynamicTrace` is the architectural execution of one program,
recorded once by driving the :class:`~repro.isa.interp.ReferenceInterpreter`
to completion and kept in *typed* column form — one entry per retired
instruction (the *trace step*).  Since trace-v2 the columns are dense
machine-word arrays (:mod:`array`) and a packed byte string, not Python
lists: the timing replayer streams through them like a gem5-style
trace-driven model, payloads serialise as base64 over the raw buffers
(zero intermediate copies on little-endian hosts), and a recorded
trace for a million-instruction workload is eight bytes per column
entry instead of a boxed ``int`` each.

``pcs`` — ``array('Q')``
    the PC of each step (``pcs[0] == program.entry``);
``next_pcs`` — ``array('Q')``
    the architectural successor PC — for branches this encodes the
    outcome's target, for JALR the computed indirect target, for the
    final HALT step the halt PC itself;
``results`` — ``array('q')``
    the signed-64 value written to the destination register (0 for
    steps that write nothing, including ``rd == x0``);
``addrs`` — ``array('Q')``
    the effective (unsigned-64) address of each load/store step
    (0 elsewhere);
``taken`` — ``bytes``
    one byte per step: 1 iff the step is a taken conditional branch
    (recorded explicitly — ``next_pc`` alone is ambiguous when a
    branch's target equals its fall-through).

The trace records architecture only.  Cache behaviour belongs to the
pipeline's live :class:`~repro.memsys.hierarchy.MemoryHierarchy`,
because wrong-path accesses and the prefetcher make any commit-order
classification unusable cycle-accurately.

Indexing a column yields a plain ``int`` either way, so consumers are
layout-agnostic; constructing a :class:`DynamicTrace` from list-backed
columns still works (they are coerced to the typed layout).

**Serialisation.**  :meth:`DynamicTrace.to_payload` base64-encodes each
column's raw buffer directly (arrays and bytes both speak the buffer
protocol).  Word columns are canonically *little-endian*; a big-endian
host byteswaps a scratch copy on the way out and back in, so payloads
are interchangeable across hosts and bit-identical for the same
execution.  :meth:`from_payload` validates the format version, the
declared endianness/item size, base64 integrity, column-length
agreement, and that the flag column is strictly 0/1 — a truncated or
corrupted persisted trace raises ``ValueError`` and the disk cache
falls back to re-recording.

**Replay contract.**  The timing pipeline (:mod:`repro.pipeline.core`)
consumes the trace via per-uop ``trace_index`` positions maintained by
the fetch unit; the replay contract — when a recorded outcome may
substitute for in-line evaluation, and the purity tracking that guards
it — is documented in the core's module docstring.

Traces are content-addressed and disk-persisted next to generated
programs; see :mod:`repro.workloads.program_cache`.  The format
version participates in the cache key, so a file on disk written in an
older format is simply ignored and re-recorded.
"""

import base64
import binascii
import sys
from array import array

from repro.isa.interp import ReferenceInterpreter, branch_taken, to_unsigned64

#: Bumped whenever the recorded column semantics *or storage format*
#: change; participates in the trace cache key (see
#: workloads.program_cache.trace_key) so stale on-disk traces can never
#: be replayed by a newer pipeline.  trace-v2: typed-array columns,
#: base64-over-raw-buffer payloads, little-endian canonical form.
#: trace-v3: no ``l1_hit`` column.
TRACE_FORMAT_VERSION = "trace-v3"

#: Canonical byte order of serialised word columns.
_PAYLOAD_ENDIAN = "little"
_ITEMSIZE = 8

# 'q'/'Q' guarantee *at least* 8 bytes; every supported platform uses
# exactly 8, and the payload contract depends on it.
if array("q").itemsize != _ITEMSIZE:  # pragma: no cover - exotic ABI
    raise ImportError("platform array('q') is not 8 bytes; "
                      "trace serialisation unsupported")


def _as_column(values, typecode):
    """Coerce ``values`` to a typed column (no copy when already one)."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, values)


def _as_flags(values):
    """Coerce the 0/1 flag column to immutable packed ``bytes``."""
    return values if isinstance(values, bytes) else bytes(values)


def encode_words(column):
    """Base64 text over a word column's raw little-endian buffer."""
    if sys.byteorder != _PAYLOAD_ENDIAN:  # pragma: no cover - BE host
        column = array(column.typecode, column)
        column.byteswap()
    # arrays support the buffer protocol: no intermediate bytes copy.
    return base64.b64encode(column).decode("ascii")


def _decode_b64(text, what):
    try:
        return base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ValueError("column %r is not valid base64: %s"
                         % (what, exc)) from None


def decode_words(text, typecode, what):
    """The word column :func:`encode_words` wrote; ``ValueError`` names
    column ``what`` when ``text`` is not base64 or not whole words."""
    raw = _decode_b64(text, what)
    if len(raw) % _ITEMSIZE:
        raise ValueError(
            "column %r is truncated (%d bytes, not a multiple of %d)"
            % (what, len(raw), _ITEMSIZE))
    column = array(typecode)
    column.frombytes(raw)
    if sys.byteorder != _PAYLOAD_ENDIAN:  # pragma: no cover - BE host
        column.byteswap()
    return column


def _check_flag_column(data, what):
    """Reject flag bytes outside {0, 1} (corruption that would silently
    flip replay decisions)."""
    if data and max(data) > 1:
        raise ValueError("trace column %r has non-boolean bytes" % what)


class DynamicTrace:
    """Column-oriented record of one program's architectural execution."""

    __slots__ = ("program_name", "program_len", "entry",
                 "pcs", "next_pcs", "results", "addrs", "taken",
                 "_replay_view")

    def __init__(self, program_name, program_len, entry,
                 pcs, next_pcs, results, addrs, taken):
        self.program_name = program_name
        self.program_len = program_len
        self.entry = entry
        self.pcs = _as_column(pcs, "Q")
        self.next_pcs = _as_column(next_pcs, "Q")
        self.results = _as_column(results, "q")
        self.addrs = _as_column(addrs, "Q")
        self.taken = _as_flags(taken)
        self._replay_view = None

    def __len__(self):
        return len(self.pcs)

    def replay_columns(self):
        """``(next_pcs, results, addrs)`` as plain lists, memoised.

        Typed arrays are the storage format, not the replay format: a
        CPython ``array`` re-boxes a fresh ``int`` object on *every*
        subscript, and the replayer reads these three columns once or
        more per simulated uop — across every scheme of every grid
        cell sharing the trace.  Boxing each column once here (the
        flag column stays ``bytes``: byte reads are cached small ints)
        costs O(steps) per trace per process and makes the hot reads
        ordinary list indexing; the view is built lazily so traces
        that are only stored or transported never pay for it.
        """
        view = self._replay_view
        if view is None:
            self._replay_view = view = (list(self.next_pcs),
                                        list(self.results),
                                        list(self.addrs))
        return view

    def check_program(self, program):
        """Light sanity check that ``program`` is the recorded one.

        Raises ``ValueError`` on mismatch.  Deliberately cheap (entry,
        length, first PC): real identity comes from the content-addressed
        cache key; this only catches grossly-wrong wiring (e.g. a trace
        attached to a different workload).
        """
        if (self.entry != program.entry
                or self.program_len != len(program)
                or (len(self.pcs) and self.pcs[0] != program.entry)):
            raise ValueError(
                "trace/program mismatch: trace recorded for %r "
                "(entry %d, %d instructions), got %r (entry %d, %d)"
                % (self.program_name, self.entry, self.program_len,
                   program.name, program.entry, len(program)))

    # -- serialisation ----------------------------------------------------

    def to_payload(self):
        """JSON-serialisable form (see :meth:`from_payload`).

        Word columns serialise as base64 over their raw little-endian
        buffers — zero-copy on little-endian hosts — and the payload
        records the canonical endianness and item size it was written
        with, so a reader can refuse anything it cannot bit-exactly
        reconstruct.
        """
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "endian": _PAYLOAD_ENDIAN,
            "itemsize": _ITEMSIZE,
            "program_name": self.program_name,
            "program_len": self.program_len,
            "entry": self.entry,
            "pcs": encode_words(self.pcs),
            "next_pcs": encode_words(self.next_pcs),
            "results": encode_words(self.results),
            "addrs": encode_words(self.addrs),
            "taken": base64.b64encode(self.taken).decode("ascii"),
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild a trace from :meth:`to_payload` output.

        Raises ``ValueError`` for a different format version, a foreign
        endianness/item size, corrupt base64, truncated buffers,
        disagreeing column lengths, or non-boolean flag bytes — so any
        stale or damaged persisted trace falls back to re-recording
        instead of replaying garbage.
        """
        if payload.get("format_version") != TRACE_FORMAT_VERSION:
            raise ValueError(
                "trace format %r != %r"
                % (payload.get("format_version"), TRACE_FORMAT_VERSION))
        if payload.get("endian") != _PAYLOAD_ENDIAN:
            raise ValueError("trace payload endianness %r != %r"
                             % (payload.get("endian"), _PAYLOAD_ENDIAN))
        if payload.get("itemsize") != _ITEMSIZE:
            raise ValueError("trace payload itemsize %r != %d"
                             % (payload.get("itemsize"), _ITEMSIZE))
        taken = _decode_b64(payload["taken"], "taken")
        _check_flag_column(taken, "taken")
        trace = cls(
            program_name=payload["program_name"],
            program_len=payload["program_len"],
            entry=payload["entry"],
            pcs=decode_words(payload["pcs"], "Q", "pcs"),
            next_pcs=decode_words(payload["next_pcs"], "Q", "next_pcs"),
            results=decode_words(payload["results"], "q", "results"),
            addrs=decode_words(payload["addrs"], "Q", "addrs"),
            taken=taken,
        )
        n = len(trace.pcs)
        if not all(len(col) == n for col in (
                trace.next_pcs, trace.results, trace.addrs, trace.taken)):
            raise ValueError("trace columns have inconsistent lengths")
        return trace


#: Recorder growth quantum: columns are extended a chunk at a time and
#: written by index, so the per-step cost is four array stores instead
#: of four ``append`` dispatches (and the interpreter step dominates).
_RECORD_CHUNK = 8192


def record_trace(program, max_steps=5_000_000):
    """Record ``program``'s canonical dynamic trace (one full run).

    Drives the reference interpreter to halt, capturing each step's
    outcome *before and after* the step: branch directions and memory
    addresses come from the pre-step register state (exactly what the
    pipeline computes at resolve/agen time), results and successor PCs
    from the post-step state.

    The columns are recorded straight into preallocated typed buffers
    (grown in :data:`_RECORD_CHUNK` steps, trimmed once at the end), so
    recording allocates O(steps / chunk) objects rather than one boxed
    entry per retired instruction.
    """
    interp = ReferenceInterpreter(program)
    state = interp.state
    read_reg = state.read_reg

    zeros = array("Q", bytes(_ITEMSIZE * _RECORD_CHUNK))
    pcs = array("Q", zeros)
    next_pcs = array("Q", zeros)
    results = array("q", bytes(_ITEMSIZE * _RECORD_CHUNK))
    addrs = array("Q", zeros)
    taken = bytearray(_RECORD_CHUNK)
    capacity = _RECORD_CHUNK

    steps = 0
    while not state.halted:
        if steps >= max_steps:
            raise RuntimeError(
                "program %r did not halt within %d steps while recording"
                % (program.name, max_steps))
        if steps == capacity:
            pcs.extend(zeros)
            next_pcs.extend(zeros)
            results.extend(array("q", bytes(_ITEMSIZE * _RECORD_CHUNK)))
            addrs.extend(zeros)
            taken.extend(bytes(_RECORD_CHUNK))
            capacity += _RECORD_CHUNK
        pc = state.pc
        instr = program[pc]
        op = instr.op
        info = instr.info

        if info.is_load or info.is_store:
            addrs[steps] = to_unsigned64(read_reg(instr.rs1) + instr.imm)
        elif info.is_branch:
            if branch_taken(op, read_reg(instr.rs1), read_reg(instr.rs2)):
                taken[steps] = 1

        interp.step()

        if info.writes_rd and instr.rd != 0:
            results[steps] = state.regs[instr.rd]
        pcs[steps] = pc
        # The final HALT step records its own PC (the interpreter keeps
        # the PC parked there); the replayer never advances past it.
        next_pcs[steps] = state.pc
        steps += 1

    return DynamicTrace(
        program_name=program.name,
        program_len=len(program),
        entry=program.entry,
        pcs=pcs[:steps],
        next_pcs=next_pcs[:steps],
        results=results[:steps],
        addrs=addrs[:steps],
        taken=bytes(taken[:steps]),
    )

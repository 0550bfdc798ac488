"""Program container: instructions plus initial machine state."""

import hashlib
import json
from array import array
from bisect import bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter


def address_runs(addresses):
    """The contiguous runs of an ascending address list, as
    ``(start index, end index)`` pairs: ``addresses[start:end]`` counts
    up by one, and each run ends where the next address skips."""
    size = len(addresses)
    runs = []
    start = 0
    while start < size:
        base = addresses[start]
        end = start + 1
        if end < size and addresses[end] == base + 1:
            # address - index is constant along a run and grows at
            # every gap: gallop past the run's end, then bisect back to
            # it, so a run costs O(log length) steps.
            offset = base - start
            hi, step = end + 1, 2
            while hi <= size and addresses[hi - 1] - (hi - 1) == offset:
                end, hi, step = hi, hi + step, step * 2
            hi = min(hi - 1, size)
            while end < hi:
                mid = (end + hi) // 2
                if addresses[mid] - mid == offset:
                    end = mid + 1
                else:
                    hi = mid
        runs.append((start, end))
        start = end
    return runs


class PackedImage(Mapping):
    """A read-only memory image held in ``array('q')`` columns.

    ``addresses`` and ``values`` hold the words in the image's own
    order, the insertion order of the dict it packs: iteration,
    :meth:`values` and :meth:`items` keep it, and run in C over the
    arrays.  ``runs`` lists the image's contiguous address ranges in
    ascending order (a generated proxy has three: its array, its
    pointer ring and its scratch region) as ``[start, length, first]``.
    A run whose words sit in the columns in address order, one after
    another, names the column index of its first word in ``first``; any
    other run (the shuffled pointer ring) has ``first`` ``None``, and
    ``slots`` lists the column index of each of its words in address
    order, run after run.  A lookup is a bisection over the runs and two
    reads.  A word costs 16 bytes, plus 8 in a run out of order, where a
    dict of Python ints costs about 90.

    Addresses and values must fit a signed 64-bit word.  There is no
    item assignment: a program's image is read-only once built.
    """

    __slots__ = ("_runs", "_addresses", "_values", "_slots", "_starts",
                 "_stops", "_columns")

    def __init__(self, runs, addresses, values, slots):
        """Wrap :meth:`columns` output.  Raises ``ValueError`` when the
        runs are not ascending and disjoint, or their lengths and column
        indices disagree with the columns; the words themselves are not
        checked."""
        self._runs = [[start, length, first] for start, length, first in runs]
        self._addresses = addresses
        self._values = values
        self._slots = slots
        # Per run, the column index of each word in address order.
        self._starts, self._stops, self._columns = [], [], []
        words = taken = 0
        shuffled = memoryview(slots)
        for start, length, first in self._runs:
            if length <= 0 or (self._stops and start < self._stops[-1]):
                raise ValueError("image runs are not ascending and disjoint")
            if first is None:
                self._columns.append(shuffled[taken:taken + length])
                taken += length
            elif 0 <= first <= len(addresses) - length:
                self._columns.append(range(first, first + length))
            else:
                raise ValueError("run at %d names columns %d to %d of %d"
                                 % (start, first, first + length,
                                    len(addresses)))
            self._starts.append(start)
            self._stops.append(start + length)
            words += length
        if not len(addresses) == len(values) == words or taken != len(slots):
            raise ValueError(
                "image columns hold %d addresses, %d values and %d slots"
                " for runs of %d words, %d out of order"
                % (len(addresses), len(values), len(slots), words, taken))

    @classmethod
    def pack(cls, memory):
        """Pack a mapping of ``{address: value}``, keeping its order."""
        # Lists first: an array fills from a list faster than from an
        # iterator, and the sorts then reuse the mapping's ints.
        addresses = list(memory)
        order = sorted(range(len(addresses)), key=addresses.__getitem__)
        ordered = sorted(addresses)
        runs, slots = [], []
        for start, end in address_runs(ordered):
            first = order[start]
            columns = order[start:end]
            if columns == list(range(first, first + end - start)):
                runs.append([ordered[start], end - start, first])
            else:
                runs.append([ordered[start], end - start, None])
                slots += columns
        return cls(runs, array("q", addresses),
                   array("q", list(memory.values())), array("q", slots))

    def columns(self):
        """``(runs, addresses, values, slots)``, what
        :class:`PackedImage` is built from: the image's own arrays, not
        copies, so a caller must not modify them."""
        return (self._runs, self._addresses, self._values, self._slots)

    def __reduce__(self):
        return PackedImage, self.columns()

    def _slot(self, address):
        """The column index of ``address``, or -1."""
        run = bisect_right(self._starts, address) - 1
        if run < 0 or address >= self._stops[run]:
            return -1
        return self._columns[run][address - self._starts[run]]

    def __getitem__(self, address):
        slot = self._slot(address)
        if slot < 0:
            raise KeyError(address)
        return self._values[slot]

    def get(self, address, default=None):
        slot = self._slot(address)
        return default if slot < 0 else self._values[slot]

    def __contains__(self, address):
        return self._slot(address) >= 0

    def __len__(self):
        return len(self._addresses)

    def __iter__(self):
        return iter(self._addresses)

    def values(self):
        return _PackedValues(self)

    def items(self):
        return _PackedItems(self)

    def __repr__(self):
        return "<PackedImage: %d words in %d runs>" % (len(self),
                                                       len(self._runs))


class _PackedValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values)


class _PackedItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        image = self._mapping
        return zip(image._addresses, image._values)


@dataclass
class Program:
    """A runnable program for the model machine.

    Attributes:
        instructions: static instruction list; the PC is an index into it.
        initial_memory: sparse initial memory image, address -> value:
            any ``Mapping``.  Hand-built programs (the assembler, the
            kernels, the attack gadgets) fill a dict; the program cache
            holds each generated program's as a :class:`PackedImage`.
            Every reader goes through the ``Mapping`` protocol and its
            order, which sets a cache warm-up's first-touch line order.
        initial_regs: initial architectural register values, reg -> value.
        name: human-readable identifier used in reports.
        entry: starting PC (instruction index).

    Programs are read-only once built.  :attr:`image_digest` and
    :attr:`start_state` are computed once and rely on it, and so does
    every result's memory: a core and a decoded record read the words
    they did not write straight from :attr:`initial_memory` (see
    :class:`~repro.pipeline.core.MemoryImage`) instead of a copy, so a
    word changed after a core was built changes what its results read.
    """

    instructions: list
    initial_memory: Mapping = field(default_factory=dict)
    initial_regs: dict = field(default_factory=dict)
    name: str = "program"
    entry: int = 0

    def __len__(self):
        return len(self.instructions)

    def __getitem__(self, pc):
        return self.instructions[pc]

    @cached_property
    def image_digest(self):
        """SHA-256 (hex) naming :attr:`initial_memory` by its content.

        A result coded as a delta against this image records it (see
        :meth:`~repro.pipeline.core.SimulationResult.to_dict`).  Computed
        once per program: programs are read-only once built, and the
        program cache shares one per workload.  The digest covers the
        words in ascending address order, whatever the image's own order
        or type.
        """
        words = sorted(self.initial_memory.items())
        blob = json.dumps(
            [list(map(itemgetter(0), words)), list(map(itemgetter(1), words))],
            separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    @cached_property
    def start_state(self):
        """Facts about the start state every core of this program
        shares, recorded once and read by every later core.

        Three are kept, each keyed by what it depends on:

        - ``("valid", entry, len(instructions))``: ``True`` once
          :meth:`validate` passed (a failure raises and records
          nothing), so a program is checked once, not once per core;
        - ``("image-in-range", length)``, recorded by the first
          :class:`~repro.pipeline.core.OoOCore`: whether the image
          already holds unsigned addresses and signed 64-bit values, so
          a core copies it without normalising;
        - ``("warm-l2", sets, ways, line_words, length)``, recorded by
          the first warm core: the L2 that
          :meth:`~repro.memsys.hierarchy.MemoryHierarchy.warm` leaves
          after installing the image, as a
          :meth:`~repro.memsys.cache.CacheModel.snapshot`.

        ``length`` is ``len(initial_memory)``.  The facts rest on the
        contract :attr:`image_digest` rests on: programs are read-only
        once built.  A word added or an instruction appended between
        builds changes a length and so the key.  The facts live and die
        with the program, so the program cache's ``clear_cache()`` drops
        them.
        """
        return {}

    def validate(self):
        """Check structural sanity; raises ValueError on problems.

        Verifies branch/jump targets stay inside the program, register
        indices are in range, and the program contains a ``halt`` so the
        simulator terminates.  A pass is recorded in :attr:`start_state`,
        and later calls return at once.
        """
        verdict = ("valid", self.entry, len(self.instructions))
        if verdict in self.start_state:
            return
        n = len(self.instructions)
        if n == 0:
            raise ValueError("empty program")
        if not 0 <= self.entry < n:
            raise ValueError("entry point %d outside program" % self.entry)
        has_halt = False
        for pc, instr in enumerate(self.instructions):
            for r in (instr.rd, instr.rs1, instr.rs2):
                if not 0 <= r < 32:
                    raise ValueError("pc %d: register out of range: %d" % (pc, r))
            if instr.is_branch or instr.op.value == "jal":
                if not 0 <= instr.imm < n:
                    raise ValueError(
                        "pc %d: control target %d outside program" % (pc, instr.imm)
                    )
            if instr.op.value == "halt":
                has_halt = True
        if not has_halt:
            raise ValueError("program has no halt instruction")
        self.start_state[verdict] = True

    def listing(self):
        """Return a printable assembly listing with PC indices."""
        lines = []
        for pc, instr in enumerate(self.instructions):
            lines.append("%4d: %s" % (pc, instr))
        return "\n".join(lines)

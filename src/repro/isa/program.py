"""Program container: instructions plus initial machine state."""

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property


@dataclass
class Program:
    """A runnable program for the model machine.

    Attributes:
        instructions: static instruction list; the PC is an index into it.
        initial_memory: sparse initial memory image, address -> value.
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
    initial_memory: dict = field(default_factory=dict)
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
        program cache shares one per workload.
        """
        addresses = sorted(self.initial_memory)
        blob = json.dumps(
            [addresses, list(map(self.initial_memory.__getitem__, addresses))],
            separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    @cached_property
    def start_state(self):
        """Facts about the start state every core of this program
        shares, recorded by its first core and read by the rest.

        :class:`~repro.pipeline.core.OoOCore` keeps two, each keyed by
        what it depends on plus ``len(initial_memory)``:

        - ``("image-in-range", length)``: whether the image already
          holds unsigned addresses and signed 64-bit values, so a core
          copies it without normalising;
        - ``("warm-l2", sets, ways, line_words, length)``: the L2 that
          :meth:`~repro.memsys.hierarchy.MemoryHierarchy.warm` leaves
          after installing the image, as a
          :meth:`~repro.memsys.cache.CacheModel.snapshot`.

        They rest on the contract :attr:`image_digest` rests on:
        programs are read-only once built.  A word added between builds
        changes the length and so the key.  The facts live and die with
        the program, so the program cache's ``clear_cache()`` drops them.
        """
        return {}

    def validate(self):
        """Check structural sanity; raises ValueError on problems.

        Verifies branch/jump targets stay inside the program, register
        indices are in range, and the program contains a ``halt`` so the
        simulator terminates.
        """
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

    def listing(self):
        """Return a printable assembly listing with PC indices."""
        lines = []
        for pc, instr in enumerate(self.instructions):
            lines.append("%4d: %s" % (pc, instr))
        return "\n".join(lines)

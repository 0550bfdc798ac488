"""The out-of-order core simulator.

One :class:`OoOCore` executes one :class:`~repro.isa.program.Program`
under one :class:`~repro.core.plugin.SchemeBase` and one
:class:`~repro.pipeline.config.CoreConfig`.  The model is cycle-level
and *functional*: it computes real values, so its final architectural
state must (and, per the test suite, does) match the in-order
reference interpreter exactly, for every scheme, despite speculation,
squashes, replays, and ordering-violation flushes.

**Trace replay.**  Passing a recorded
:class:`~repro.isa.trace.DynamicTrace` (``trace=``) turns the core
into a timing replayer: on-trace micro-ops read their execution
outcome — ALU results, branch directions and targets, load/store
effective addresses — from the trace columns instead of evaluating
them, eliminating the per-uop functional work from the hot loop.
Replay is *opportunistic and bit-exact*, never approximate:

* The fetch unit tracks the stream's trace position
  (:class:`~repro.pipeline.fetch.FetchUnit`); each micro-op carries
  ``trace_index`` (-1 = wrong path).  Squash recovery re-enters the
  trace when the mispredicted branch was on-trace and its actual
  target matches the recorded successor; a full flush re-enters at the
  ROB head's own position.
* A per-physical-register *purity* bit tracks whether the register's
  current value provably equals the architectural value of its
  on-trace producer.  A recorded outcome substitutes only when the
  micro-op is on-trace AND every source register is pure; otherwise
  the in-line evaluator runs (the wrong-path fallback the trace
  design requires) and the destination is marked impure.  Purity is
  re-established exactly at value-write sites, which is sound because
  spec-wakeup kills (priority 0) precede every same-cycle
  completion/agen, so no handler ever reads an unwritten register.
* Loads never take *values* from the trace: the live memory image and
  store-queue forwarding remain authoritative, so stale-read
  transients (ordering violations, Section 9.2) reproduce exactly.  A
  load's value is pure only when its address is pure, no older store
  address is unresolved or impure (an impure address could mask real
  aliasing), and its forwarding source (if any) is itself pure.
* The trace records no cache behaviour: the live
  :class:`~repro.memsys.hierarchy.MemoryHierarchy` decides latency
  (wrong-path pollution and prefetching are timing-relevant and
  scheme-visible).

With no trace attached the core is exactly the pre-replay functional
machine; with one attached, every stat, register, and memory word is
byte-identical (the golden fixture asserts this with replay on and
off).

Per-cycle phase order (chosen so values flow like bypass networks):

1. **commit** — retire completed micro-ops in order; ordering
   violations at the head trigger a full flush.
2. **events** — scheduled completions: spec-wakeup kills first, then
   store address/data, completions, and finally load address
   generation (so loads observe same-cycle store updates).
3. **visibility** — recompute the visibility point; the scheme releases
   untaint broadcasts / NDA deferred broadcasts here.
4. **issue** — wakeup/select in the issue queue.
5. **rename/dispatch** — pull one *fetch group* from the fetch buffer
   into ROB/IQ/LSQ (see "Batched front end" below).
6. **fetch** — follow predicted control flow.
7. **squash** — process the oldest misprediction detected this cycle.

**Batched front end.**  The rename stage is group-at-a-time, not
one-uop-at-a-time.  Each cycle :meth:`_rename_dispatch` builds one
:class:`~repro.pipeline.fetch.FetchGroup` by popping admissible fetch
entries — the stall gates run against the live back-end occupancies
*plus* the group's own in-flight reservations, so the verdicts are
bit-identical to admitting sequentially — then processes the group in
whole-group steps:

1. :meth:`RenameUnit.rename_group <repro.pipeline.rename.RenameUnit.rename_group>`
   — one in-order RAT pass: sources translated, destinations bulk-sliced
   off the free list, branch checkpoints snapshotted mid-group, so
   same-cycle dependencies chain through the group (the paper's
   Figure 2 walkthrough).  The pass also marks every allocated
   destination not-ready (via the ``reg_state`` argument) before any
   member meets the issue queue.  A 1-uop group takes the same path.
2. Batched admission — one ``rob.extend`` and one
   ``IssueQueue.add_group``; C-shadow casts and LDQ/STQ appends ride
   the group-build loop itself.
3. The scheme's ``on_rename_group`` hook — one call per group, skipped
   for schemes that keep the no-op default; STT-Rename's is a single
   taint-RAT pass (the paper's Section 4.2 rename-time computation).

Casting all of the group's C-shadows before the scheme hook (instead
of interleaved per uop) is safe: a *younger* shadow never changes an
older sequence number's safety verdict, because the visibility point
is the *minimum* active shadow.

Micro-ops are pooled (:class:`~repro.pipeline.uop.MicroOpPool`):
commit and the squash/flush paths return them to a free list, rename
re-arms recycled ones, and steady-state simulation allocates no
micro-op objects.  The safety argument (generation monotonicity,
idempotent release, guarded stale index entries, the one
delayed-broadcast exception) lives in :mod:`repro.pipeline.uop`.

Scheduled work lives in a single event heap ordered by
``(cycle, priority, insertion order)``; :meth:`next_event_cycle`
exposes the earliest pending wake-up, which powers the idle-cycle
fast-forward below.

**Idle-cycle fast-forward.**  :meth:`run` may jump ``self.cycle``
straight to the next wake-up instead of stepping through cycles in
which the machine provably does nothing.  Skipping the window
``[cycle, target)`` is legal only when every phase above is a no-op for
every cycle in it:

* *commit* — the ROB is empty or its head is incomplete; completion
  only ever arrives via a scheduled event, so the head stays incomplete
  until at least the next event cycle.
* *events* — ``target`` never exceeds :meth:`next_event_cycle` (dead
  events of killed micro-ops may bound it early; waking on one merely
  costs an ordinary idle step).
* *visibility* — no events, renames, or squashes occur, so the
  visibility point cannot move (checked: the recomputed point equals
  ``vp_now``), and the scheme's visibility hook would not run anywhere
  in the window: the hook is *event-scheduled* — it fires only when
  the phase-3 visibility point changed since the scheme last saw it,
  when a memory-dependence speculation resolved (``d_version``
  advanced), or on a cycle the scheme booked via
  :meth:`schedule_scheme_wake` (NDA books release cycles while a
  releasable broadcast is budget-blocked, STT books the one catch-up
  cycle of its broadcast delay line).  The first two triggers are
  checked directly (they also cannot arise inside an event-free
  window); the earliest booked wake bounds ``target``.
* *issue* — the issue queue's ready list is empty; entries only become
  ready through event-driven wakeups.
* *rename* — either the front end shows no rename-visible entry (any
  buffered entry becoming visible bounds ``target``), or its oldest
  visible entry is blocked on a full back-end resource; every such
  resource (ROB, IQ, LDQ/STQ, free physical registers, checkpoints) is
  freed only by events, so the blockage — and its stall counter — is
  constant across the window.
* *fetch* — the fetch side is inert
  (:meth:`~repro.pipeline.fetch.FetchUnit.fetch_wake_cycle`): halted,
  buffer-full (rename pops nothing in-window), or redirect-stalled
  (the resume cycle bounds ``target``).

Stall attribution is then exact, not approximate: exactly one stall
counter would tick in each skipped cycle — ``stall_frontend_empty``
when nothing is rename-visible, else the blocked resource's counter
per the dispatch check order — so the skip bulk-adds
``target - cycle`` to that one counter, keeping :class:`SimStats`
bit-identical to stepping — the golden fixture in
``tests/pipeline/test_kernel_equivalence.py`` pins this.  ``target`` is
additionally capped at the watchdog and ``max_cycles`` horizons so
error paths fire at the same cycle they would when stepping.
"""

from collections import deque
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter

from repro.core.factory import make_scheme
from repro.core.plugin import SchemeBase, overridden_hook
from repro.core.shadows import ShadowTracker
from repro.frontend.branch_predictor import BranchTargetBuffer, make_predictor
from repro.isa.instructions import Opcode
from repro.isa.interp import (
    branch_taken,
    evaluate_alu,
    to_signed64,
    to_unsigned64,
)
from repro.isa.program import address_runs
from repro.isa.registers import NUM_ARCH_REGS
from repro.memsys.hierarchy import MemoryHierarchy
from repro.pipeline.config import MEGA
from repro.pipeline.fetch import FetchGroup, FetchUnit
from repro.pipeline.issue_queue import IssueQueue
from repro.pipeline.lsu import LoadStoreUnit
from repro.pipeline.regfile import READY, PhysRegFile
from repro.pipeline.rename import RenameUnit
from repro.pipeline.stats import SimStats
from repro.pipeline.uop import ADDR, MicroOp, MicroOpPool

# Event priorities within one cycle.
_P_SPEC_KILL = 0
_P_STORE_ADDR = 1
_P_STORE_DATA = 2
_P_COMPLETE = 3
_P_LOAD_AGEN = 4

#: Sort key for one cycle's event bucket (stable: insertion order is
#: preserved within a priority class).
_event_priority = itemgetter(0)

# Event kinds: indices into the per-core dispatch table.
_K_COMPLETE_ALU = 0
_K_LOAD_AGEN = 1
_K_LOAD_COMPLETE = 2
_K_STORE_ADDR = 3
_K_STORE_DATA = 4
_K_SPEC_READY = 5
_K_SPEC_KILL = 6

# Architectural ranges: addresses are unsigned, words signed 64-bit.
_MAX_ADDRESS = (1 << 64) - 1
_MIN_WORD = -(1 << 63)
_MAX_WORD = (1 << 63) - 1


def pack_memory(memory):
    """Encode a memory image as contiguous runs in ascending address
    order: ``[[base, [v0, v1, ...]], ...]`` holds ``v_i`` at
    ``base + i``.  The inverse is :func:`unpack_memory`."""
    addresses = sorted(memory)
    values = list(map(memory.__getitem__, addresses))
    return [[addresses[start], values[start:end]]
            for start, end in address_runs(addresses)]


def unpack_memory(data):
    """``{address: value}`` from :func:`pack_memory` output, or from the
    ``{"address": value}`` object that the golden fixture's envelopes
    (``tests/pipeline/golden_store``), written before the packed form,
    still hold; no store holds that form."""
    if isinstance(data, dict):
        return dict(zip(map(int, data), data.values()))
    memory = {}
    for base, values in data:
        memory.update(zip(range(base, base + len(values)), values))
    return memory


_MISSING = object()


class MemoryImage(Mapping):
    """A read-only memory image: the words of ``delta`` over those of
    ``base``.

    ``base`` is a program's initial image, shared by every core and
    result of that program and never written through the view
    (programs are read-only once built): a dict, or the program cache's
    :class:`~repro.isa.program.PackedImage`, read only through the
    ``Mapping`` protocol.  ``delta`` is the dict of the words a core
    wrote.  Reads check ``delta``, then ``base``.  Iteration yields
    ``base``'s addresses in its own order, then the addresses only
    ``delta`` holds: the order of ``dict(base)`` updated by ``delta``.
    Neither iteration nor :meth:`items` builds a whole-image dict.  Two
    images over one base compare by the words that differ from it, in
    O(delta); any other mapping compares word by word.  A pickle holds
    a plain dict, so it stands alone and names no program.
    """

    __slots__ = ("base", "delta")

    def __init__(self, base, delta):
        self.base = base
        self.delta = delta

    def __getitem__(self, address):
        delta = self.delta
        return delta[address] if address in delta else self.base[address]

    def _added(self):
        """The addresses only ``delta`` holds, in its order."""
        base = self.base
        return [address for address in self.delta if address not in base]

    def _changed(self):
        """``{address: value}`` of the words that differ from ``base``."""
        base = self.base
        return {address: value for address, value in self.delta.items()
                if base.get(address, _MISSING) != value}

    def __len__(self):
        return len(self.base) + len(self._added())

    def __iter__(self):
        return chain(self.base, self._added())

    def items(self):
        return _ImageItems(self)

    def __eq__(self, other):
        if isinstance(other, MemoryImage) and other.base is self.base:
            return self._changed() == other._changed()
        if not isinstance(other, Mapping):
            return NotImplemented
        get = other.get
        return len(self) == len(other) and all(
            get(address, _MISSING) == value for address, value in self.items())

    def __repr__(self):
        return "<MemoryImage: %d words, %d written>" % (len(self),
                                                        len(self.delta))

    def __reduce__(self):
        return dict, (), None, None, iter(self.items())


class _ImageItems(ItemsView):
    """:meth:`MemoryImage.items`, iterated in C over the base's
    iterators and the delta."""

    __slots__ = ()

    def __iter__(self):
        image = self._mapping
        base, delta = image.base, image.delta
        return chain(zip(base, map(delta.get, base, base.values())),
                     [(address, delta[address])
                      for address in image._added()])


def decode_memory(data, program=None):
    """The final memory image held by the :meth:`SimulationResult.to_dict`
    record ``data``.

    A delta record (one naming a ``memory_base``) decodes to a
    :class:`MemoryImage` over ``program``'s initial image, which it
    shares rather than copies, and raises ``ValueError`` unless that
    image is the one it names.  Any other record holds the whole image,
    whatever ``program`` is, and decodes to a dict.
    """
    memory = unpack_memory(data["memory"])
    digest = data.get("memory_base")
    if digest is None:
        return memory
    if program is None or program.image_digest != digest:
        raise ValueError(
            "memory is a delta against image %s; %s" % (
                digest, "no program given" if program is None
                else "%s's image is %s" % (program.name,
                                           program.image_digest)))
    return MemoryImage(program.initial_memory, memory)


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    program_name: str
    scheme_name: str
    config_name: str
    stats: SimStats
    regs: list
    #: The final image: a :class:`MemoryImage` over the program's
    #: initial image from a core or a delta record, else a dict.
    memory: Mapping
    halted: bool
    cycles: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self):
        return self.stats.ipc

    def to_dict(self, program=None):
        """JSON-serialisable form (see :meth:`from_dict` for the inverse).

        ``memory`` is packed by :func:`pack_memory` into contiguous runs
        in ascending address order, ``[[base, [v0, v1, ...]], ...]``.
        Given the ``program`` the result was simulated from, only the
        words that differ from its initial image are packed, and
        ``memory_base`` names that image by its
        :attr:`~repro.isa.program.Program.image_digest`: a campaign cell
        changes a handful of its thousands of words.  Without a program,
        or when the final image lacks one of the initial image's
        addresses (the core normalises out-of-range initial addresses),
        the runs hold the whole image and ``memory_base`` is absent.
        :meth:`from_dict` also reads the older ``{"address": value}``
        object (see :func:`unpack_memory`), which only the golden
        fixture's envelopes hold.

        Finding the delta costs O(delta), not O(image), when ``memory``
        is a :class:`MemoryImage` over ``program``'s own initial image,
        as a core and :meth:`from_dict` leave it.  Any other result —
        built by hand, unpickled, coded against another program, or over
        a normalised image — is scanned whole, with the same output.
        """
        memory = self.memory
        base = program.initial_memory if program is not None else {}
        if isinstance(memory, MemoryImage) and memory.base is base:
            delta = memory._changed()
        else:
            delta = {addr: value for addr, value in memory.items()
                     if base.get(addr) != value}
            # Every final address but the delta's new ones is a base
            # address.  Fewer of them than the base holds means the
            # core normalised an initial address away: code the whole
            # image.
            if (len(memory) - sum(addr not in base for addr in delta)
                    != len(base)):
                delta, base = memory, {}
        data = {
            "program_name": self.program_name,
            "scheme_name": self.scheme_name,
            "config_name": self.config_name,
            "stats": self.stats.to_dict(),
            "regs": list(self.regs),
            "memory": pack_memory(delta),
            "halted": self.halted,
            "cycles": self.cycles,
            "extra": dict(self.extra),
        }
        if base:
            data["memory_base"] = program.image_digest
        return data

    @classmethod
    def from_dict(cls, data, program=None):
        """Rebuild a result from :meth:`to_dict` output (e.g. JSON).

        A record coded against a program needs that ``program`` back:
        another program, or none, raises ``ValueError`` (see
        :func:`decode_memory`).  Such a result's ``memory`` is a
        :class:`MemoryImage` over the program's initial image, so it
        holds only the record's words, and coding it again against the
        same program costs O(delta).
        """
        return cls(
            program_name=data["program_name"],
            scheme_name=data["scheme_name"],
            config_name=data["config_name"],
            stats=SimStats.from_dict(data["stats"]),
            regs=list(data["regs"]),
            memory=decode_memory(data, program),
            halted=data["halted"],
            cycles=data.get("cycles", 0),
            extra=dict(data.get("extra", {})),
        )


class OoOCore:
    """Cycle-level out-of-order core with pluggable secure schemes."""

    def __init__(
        self,
        program,
        config=None,
        scheme=None,
        max_cycles=5_000_000,
        watchdog_cycles=50_000,
        warm_caches=False,
        trace=None,
        account=None,
        tracer=None,
    ):
        self.program = program
        program.validate()
        self.config = config or MEGA
        self.config.validate()
        if scheme is None:
            scheme = make_scheme("baseline")
        elif isinstance(scheme, str):
            scheme = make_scheme(scheme)
        if not isinstance(scheme, SchemeBase):
            raise TypeError("scheme must be a SchemeBase or scheme name")
        self.scheme = scheme
        self.max_cycles = max_cycles
        self.watchdog_cycles = watchdog_cycles
        # Devirtualised scheme hooks (None = default no-op, skipped).
        # The rename-side hook dispatches as one group call per cycle.
        self._scheme_on_rename_group = overridden_hook(
            scheme, "on_rename_group")
        self._scheme_on_visibility_update = overridden_hook(
            scheme, "on_visibility_update")
        self._scheme_on_load_complete = overridden_hook(
            scheme, "on_load_complete")

        # Observability sinks (see repro.obs): devirtualised like the
        # scheme hooks — None means every call site is skipped and the
        # disabled path stays byte-identical to a sink-free build.
        self._obs_account = account
        self._obs_tracer = tracer

        cfg = self.config
        self.stats = SimStats()
        self.prf = PhysRegFile(cfg.num_phys_regs)
        # Initial state is loaded as the reference interpreter loads it
        # (ArchState.write_reg / write_mem): unsigned addresses, signed
        # 64-bit values.  An image already in range (every generated
        # workload's) is the memory's base as it is, never copied; the
        # commit store path, the only writer, writes memory.delta.  The
        # range check (C-level min/max) and the warmed L2 are
        # per-program facts: the first core of a program records them
        # (see Program.start_state).
        for reg, value in program.initial_regs.items():
            if reg != 0:
                self.prf.values[reg] = to_signed64(value)
        image = program.initial_memory
        facts = program.start_state
        length = len(image)
        in_range_key = ("image-in-range", length)
        in_range = facts.get(in_range_key)
        if in_range is None:
            in_range = facts[in_range_key] = not length or (
                0 <= min(image) and max(image) <= _MAX_ADDRESS
                and _MIN_WORD <= min(image.values())
                and max(image.values()) <= _MAX_WORD)
        self.memory = MemoryImage(image if in_range else {
            to_unsigned64(addr): to_signed64(value)
            for addr, value in image.items()
        }, {})
        self.hierarchy = MemoryHierarchy(cfg.mem)
        if warm_caches and length:
            l2 = self.hierarchy.l2
            warm_key = ("warm-l2", l2.num_sets, l2.ways, l2.line_words,
                        length)
            warmed = facts.get(warm_key)
            if warmed is None:
                self.hierarchy.warm(self.memory.base, level="l2")
                facts[warm_key] = l2.snapshot()
            else:
                l2.restore(warmed)
        self.rename = RenameUnit(cfg.num_phys_regs, cfg.max_branches)
        self.rob = deque()
        self.iq = IssueQueue(self)
        # The register file doubles as the wakeup bus: readiness
        # transitions drive the issue queue's scheduling index.
        self.prf.listener = self.iq
        self.lsu = LoadStoreUnit(self)
        self.shadows = ShadowTracker()
        self.predictor = make_predictor(cfg.branch_predictor)
        self.btb = BranchTargetBuffer(cfg.btb_entries)
        # Trace replay (see the module docstring): the recorded outcome
        # columns plus the per-physical-register purity bitmap.  All
        # None / absent when no trace is attached — every replay site
        # gates on ``self._pure is not None`` and costs the functional
        # machine nothing.
        if trace is not None:
            trace.check_program(program)
            pure = bytearray(cfg.num_phys_regs)
            for preg in range(NUM_ARCH_REGS):
                # Initial identity mappings hold architectural values.
                pure[preg] = 1
            self._pure = pure
            # Boxed list views: array subscripts re-box per read, and
            # these columns are read per replayed uop (see
            # DynamicTrace.replay_columns).
            tr_next, tr_results, tr_addrs = trace.replay_columns()
            self._tr_next = tr_next
            self._tr_results = tr_results
            self._tr_addrs = tr_addrs
            self._tr_taken = trace.taken
        else:
            self._pure = None
            self._tr_next = None
            self._tr_results = None
            self._tr_addrs = None
            self._tr_taken = None
        self.fetch = FetchUnit(self, program, self.predictor, self.btb,
                               trace=trace)
        # Resolve the predictor-training entry points once instead of
        # re-dispatching via hasattr per committed branch.
        self._predictor_update = self.predictor.update
        self._predictor_update_with_history = getattr(
            self.predictor, "update_with_history", None
        )

        self.cycle = 0
        self.next_seq = 0
        self.vp_now = 0
        # Loads that executed past older stores with unknown addresses
        # (their data is unverified until those stores check aliasing).
        self.d_pending = {}
        #: Bumped on every d_pending *removal* (a resolution can make a
        #: withheld broadcast releasable); one of the scheme hook's
        #: three triggers.
        self.d_version = 0
        # Earliest scheme-booked visibility-hook cycle (None = no
        # booking) and the (visibility point, d_version) the scheme
        # last observed — the hook's other two triggers.  -1 never
        # equals a real visibility point, so the hook always fires on
        # cycle 0 exactly like the old polled dispatch did.
        self._scheme_wake_at = None
        self._scheme_seen_vp = -1
        self._scheme_seen_d = 0
        self.halted = False
        # Scheduled work: per-cycle buckets of (priority, kind, uop,
        # gen, payload) plus a min-heap of bucket cycles.  One heap push
        # per *distinct* wake-up cycle (not per event) keeps scheduling
        # cheap on busy cycles while next_event_cycle() stays O(1).
        self._event_buckets = {}
        self._event_cycles = []
        self._event_dispatch = (
            self._ev_complete_alu,
            self._ev_load_agen,
            self._ev_load_complete,
            self._ev_store_addr,
            self._ev_store_data,
            self._ev_spec_ready,
            self._ev_spec_kill,
        )
        # Micro-op recycling and the reusable rename-group container
        # (cleared each cycle, never reallocated).
        self._uop_pool = MicroOpPool()
        self._group = FetchGroup()
        self._pending_squash = None
        self._div_busy_until = 0
        self._last_commit_cycle = 0
        #: Cycles elided by idle-cycle fast-forward (diagnostic only;
        #: deliberately not a SimStats counter so results stay
        #: bit-identical to pure stepping).
        self.ff_skipped_cycles = 0

        if account is not None:
            account.attach(self)
        if tracer is not None:
            tracer.attach(self)
        scheme.attach(self)

    # ------------------------------------------------------------------
    # Public driving interface.
    # ------------------------------------------------------------------

    def run(self):
        """Simulate until the program halts; returns a SimulationResult."""
        while not self.halted:
            if self.cycle >= self.max_cycles:
                raise RuntimeError(
                    "simulation exceeded %d cycles (%s on %s/%s)"
                    % (
                        self.max_cycles,
                        self.program.name,
                        self.config.name,
                        self.scheme.name,
                    )
                )
            if self.cycle - self._last_commit_cycle > self.watchdog_cycles:
                raise RuntimeError(self._deadlock_report())
            self.step()
            if not self.halted:
                self._fast_forward()
        self._unlink()
        return self.result()

    def _unlink(self):
        """Drop the references back to this halted core: its units', its
        scheme's and its event handlers'.  A finished core is then no
        cyclic garbage, and reference counting frees it with its
        predictor tables, micro-op pool and event buckets as soon as its
        last reference goes, instead of at a later cyclic collection.
        :meth:`result` needs none of them.  (The scheme-hook bound
        methods and the register file's listener close no cycle once
        the scheme and the issue queue let go of the core.)"""
        self._event_dispatch = None
        self.scheme.core = self.iq.core = self.lsu.core = None
        self.fetch.core = None

    def step(self):
        """Advance the machine by one clock cycle."""
        account = self._obs_account
        if account is None:
            self._commit()
        else:
            account.note_cycle(self, self._commit())
        if self.halted:
            self.stats.cycles = self.cycle + 1
            return
        self._process_events()
        self._update_visibility()
        self._issue()
        self._rename_dispatch()
        self.fetch.do_cycle(self.cycle)
        self._process_squash()
        self.cycle += 1
        self.stats.cycles = self.cycle

    def result(self):
        """Snapshot the architectural state into a SimulationResult."""
        regs = [0] * NUM_ARCH_REGS
        for arch in range(1, NUM_ARCH_REGS):
            regs[arch] = self.prf.read(self.rename.arch_rat[arch])
        # Merge scheme/hierarchy counters into a snapshot copy: the live
        # self.stats stays untouched, so result() is idempotent.
        extra = dict(self.stats.extra)
        extra.update(self.scheme.extra_stats())
        extra.update(self.hierarchy.stats())
        if self._obs_account is not None:
            extra.update(self._obs_account.as_extra())
        stats = replace(self.stats, extra=extra)
        memory = self.memory
        return SimulationResult(
            program_name=self.program.name,
            scheme_name=self.scheme.name,
            config_name=self.config.name,
            stats=stats,
            regs=regs,
            memory=MemoryImage(memory.base, dict(memory.delta)),
            halted=self.halted,
            cycles=stats.cycles,
        )

    # ------------------------------------------------------------------
    # Idle-cycle fast-forward.
    # ------------------------------------------------------------------

    def _fast_forward(self):
        """Jump over cycles in which every pipeline phase is a no-op.

        See the module docstring for the full legality argument.  Runs
        between :meth:`step` calls, so ``self.cycle`` is always at a
        clean cycle boundary.
        """
        rob = self.rob
        if rob and rob[0].completed:
            return  # commit (or an ordering-violation flush) has work
        if self.iq.has_ready():
            return  # select could issue, waste a slot, or count a block
        vp = self.shadows.visibility_point()
        if self.vp_now != (self.next_seq if vp is None else vp):
            return  # visibility point still moving this cycle
        scheme_wake = None
        if self._scheme_on_visibility_update is not None:
            if (self.vp_now != self._scheme_seen_vp
                    or self.d_version != self._scheme_seen_d):
                return  # the scheme's visibility hook would fire now
            scheme_wake = self._scheme_wake_at

        cycle = self.cycle
        fetch = self.fetch
        # Error horizons first, so deadlocks and runaway simulations
        # surface at exactly the cycle stepping would report.
        target = self._last_commit_cycle + self.watchdog_cycles + 1
        if self.max_cycles < target:
            target = self.max_cycles

        # Rename side: either the front end shows nothing (frontend
        # stall) or its oldest entry is blocked on a full back-end
        # resource — one that only an event-driven commit, squash, or
        # branch resolution can free, so it stays blocked (on the same
        # counter) for the whole window.
        entry = fetch.peek_ready(cycle)
        if entry is not None:
            stall_counter = self._rename_block(entry)
            if stall_counter is None:
                return  # rename would dispatch this cycle
        else:
            stall_counter = "stall_frontend_empty"
            if fetch.queue:
                # peek_ready returned None, so this lies in the future.
                visible_at = (fetch.queue[0].fetch_cycle
                              + self.config.frontend_depth)
                if visible_at < target:
                    target = visible_at

        # Fetch side must be inert for the whole window: halted or
        # buffer-full (no wake without rename pops, which cannot happen
        # in-window), or redirect-stalled (bounds the window).
        fetch_wake = fetch.fetch_wake_cycle(cycle)
        if fetch_wake is not None:
            if fetch_wake <= cycle:
                return  # fetch would fetch this cycle
            if fetch_wake < target:
                target = fetch_wake

        next_event = self.next_event_cycle()
        if next_event is not None:
            if next_event <= cycle:
                return  # an event is due this very cycle
            if next_event < target:
                target = next_event
        if scheme_wake is not None:
            if scheme_wake <= cycle:
                return  # a booked scheme wake is due this very cycle
            if scheme_wake < target:
                target = scheme_wake
        if target <= cycle:
            return

        skipped = target - cycle
        # The only per-cycle side effect of the skipped window: rename
        # charged one stall (renamed == 0) to the same cause each cycle.
        stats = self.stats
        setattr(stats, stall_counter,
                getattr(stats, stall_counter) + skipped)
        if self._obs_account is not None:
            # State is provably frozen across the window, so the
            # window-start classification holds for every skipped cycle.
            self._obs_account.note_skip(self, skipped)
        self.cycle = target
        stats.cycles = target
        self.ff_skipped_cycles += skipped

    def _rename_block(self, entry):
        """Stall counter blocking ``entry`` from dispatching this cycle,
        or ``None`` if it would dispatch.

        The reference form of the rename stall gates, probed by the
        idle-cycle fast-forward on the oldest visible entry: every
        named resource is freed only by events (commit, squash, branch
        resolution), so a blocked verdict holds, on the same counter,
        for a whole event-free window.

        :meth:`_rename_dispatch` applies these same gates inline, as
        *room counters*: each capacity below is read once at the start
        of the group build and decremented per admitted entry.  The two
        forms cannot diverge — nothing mutates any of these structures
        between the reads and the group's dispatch, so "live occupancy
        plus in-group reservations" is exactly "occupancy re-read after
        each sequential admission" — and for the fast-forward's probe
        (first entry, no reservations) the forms are identical by
        construction.  The golden fixture pins every stall counter
        across both paths.
        """
        cfg = self.config
        instr = entry.instr
        info = instr.info
        if len(self.rob) >= cfg.rob_entries:
            return "stall_rob_full"
        if len(self.iq.entries) >= cfg.iq_entries:
            return "stall_iq_full"
        if info.is_load and len(self.lsu.ldq) >= cfg.ldq_entries:
            return "stall_ldq_full"
        if info.is_store and len(self.lsu.stq) >= cfg.stq_entries:
            return "stall_stq_full"
        if instr.writes_rd and not self.rename.free_list:
            return "stall_no_phys_regs"
        if info.casts_c_shadow and self.rename.free_checkpoints() == 0:
            return "stall_no_checkpoint"
        return None

    # ------------------------------------------------------------------
    # Commit.
    # ------------------------------------------------------------------

    def _commit(self):
        """Retire this cycle's micro-ops; returns how many committed."""
        rob = self.rob
        if not rob or not rob[0].completed:
            return 0
        committed = 0
        width = self.config.width
        stats = self.stats
        cycle = self.cycle
        prf_state = self.prf.state
        pool_free = self._uop_pool._free
        tracer = self._obs_tracer
        while rob and committed < width:
            head = rob[0]
            if not head.completed:
                break
            if head.order_violation:
                self._flush_all(head)
                return committed
            rob.popleft()
            head.committed = True
            head.commit_cycle = cycle
            self._last_commit_cycle = cycle
            committed += 1
            stats.committed_instructions += 1
            if tracer is not None:
                tracer.on_retire(head, cycle)

            if head.op_is_store:
                self.memory.delta[head.address] = head.mem_value
                self.hierarchy.access(
                    head.address, pc=head.pc, is_write=True, train_prefetcher=False
                )
                self.lsu.commit_store(head)
                stats.committed_stores += 1
            elif head.op_is_load:
                self.lsu.commit_load(head)
                stats.committed_loads += 1
            elif head.op_is_branch:
                stats.committed_branches += 1
                self._train_predictor(head)
            else:
                op = head.instr.op
                if op is Opcode.JALR:
                    self.btb.update(head.pc, head.actual_target)
                elif op is Opcode.HALT:
                    self.rename.commit(head)
                    self.halted = True
                    return committed
            self.rename.commit(head)
            # Retired micro-op back to the pool (inlined release) —
            # unless its ready broadcast is still withheld by a
            # delayed-broadcast scheme (NDA family, budget-blocked past
            # commit: the one holder that outlives retirement; see
            # repro.pipeline.uop).
            if (head.prd is None or prf_state[head.prd] == READY) and (
                not head.in_pool
            ):
                head.in_pool = True
                pool_free.append(head)
        return committed

    def _train_predictor(self, uop):
        update_with_history = self._predictor_update_with_history
        if update_with_history is not None and uop.ghr_at_predict is not None:
            update_with_history(uop.pc, uop.taken, uop.ghr_at_predict)
        else:
            self._predictor_update(uop.pc, uop.taken)

    # ------------------------------------------------------------------
    # Event machinery.
    # ------------------------------------------------------------------

    def _schedule(self, cycle, priority, kind, uop, payload=None):
        bucket = self._event_buckets.get(cycle)
        if bucket is None:
            self._event_buckets[cycle] = bucket = []
            heappush(self._event_cycles, cycle)
        bucket.append((priority, kind, uop, uop.gen, payload))

    def next_event_cycle(self):
        """Cycle of the earliest scheduled event, or ``None``.

        May name a dead event (killed or superseded micro-op): callers
        treating it as a wake-up bound merely wake to an idle cycle.
        """
        return self._event_cycles[0] if self._event_cycles else None

    def schedule_load_complete(self, uop, cycle, value):
        self._schedule(max(cycle, self.cycle + 1), _P_COMPLETE,
                       _K_LOAD_COMPLETE, uop, value)

    def schedule_spec_wakeup(self, uop, cycle):
        """A load that missed still wakes consumers at hit latency; the
        wakeup is killed one cycle later (replay penalty)."""
        self._schedule(cycle, _P_COMPLETE, _K_SPEC_READY, uop)
        self._schedule(cycle + 1, _P_SPEC_KILL, _K_SPEC_KILL, uop)

    def _process_events(self):
        cycles = self._event_cycles
        cycle = self.cycle
        if not cycles or cycles[0] > cycle:
            return
        # Snapshot this cycle's bucket before dispatching: handlers only
        # ever schedule strictly-future work, so the bucket is complete
        # when its cycle arrives.  (Past-cycle heap entries cannot
        # exist; draining any would match the old model, which never
        # revisited them.)
        while cycles and cycles[0] <= cycle:
            heappop(cycles)
        batch = self._event_buckets.pop(cycle, None)
        if not batch:
            return
        # Stable priority sort preserves scheduling order within one
        # priority class, exactly like the per-cycle bucket always did.
        batch.sort(key=_event_priority)
        dispatch = self._event_dispatch
        for _priority, kind, uop, gen, payload in batch:
            if uop.killed or uop.gen != gen:
                continue
            dispatch[kind](uop, payload)

    def _ev_complete_alu(self, uop, _payload=None):
        instr = uop.instr
        op = instr.op
        prs1 = uop.prs1
        prs2 = uop.prs2
        pure = self._pure
        if pure is not None:
            # Replay gate: on-trace with provably-architectural sources
            # means the recorded outcome is this uop's outcome.
            if (
                uop.trace_index >= 0
                and (prs1 is None or pure[prs1])
                and (prs2 is None or pure[prs2])
            ):
                self._replay_complete(uop, op, uop.trace_index)
                return

        values = self.prf.values
        a = values[prs1] if prs1 is not None else 0
        b = values[prs2] if prs2 is not None else 0

        if uop.op_is_branch:
            uop.taken = branch_taken(op, a, b)
            uop.actual_target = instr.imm if uop.taken else uop.pc + 1
            self._resolve_control(uop, uop.taken != uop.pred_taken)
        elif op is Opcode.JALR:
            uop.actual_target = to_unsigned64(a + instr.imm)
            uop.result = uop.pc + 1
            self._resolve_control(uop, uop.actual_target != uop.pred_target)
        elif op is Opcode.JAL:
            uop.result = uop.pc + 1
        elif op is Opcode.NOP or op is Opcode.HALT:
            uop.result = 0
        else:
            uop.result = evaluate_alu(op, a, b, instr.imm)

        if uop.prd is not None:
            if pure is not None:
                # Functional fallback ran: off-trace or impure inputs —
                # the value may differ from the trace column.
                pure[uop.prd] = 0
            self.prf.write(uop.prd, uop.result)
            self.iq.confirm_spec(uop.prd)
        uop.completed = True
        uop.complete_cycle = self.cycle

    def _replay_complete(self, uop, op, ti):
        """Complete an on-trace, pure-source uop from the trace columns.

        Bit-identical to the functional path by the purity invariant:
        the sources hold their architectural values, so the evaluator
        would compute exactly the recorded result / direction / target.
        Control resolution (and mis-speculation handling) is unchanged —
        only the *evaluation* is skipped.
        """
        if uop.op_is_branch:
            taken = self._tr_taken[ti] == 1
            uop.taken = taken
            uop.actual_target = self._tr_next[ti]
            self._resolve_control(uop, taken != uop.pred_taken)
        elif op is Opcode.JALR:
            uop.actual_target = self._tr_next[ti]
            uop.result = uop.pc + 1
            self._resolve_control(uop, uop.actual_target != uop.pred_target)
        elif op is Opcode.JAL:
            uop.result = uop.pc + 1
        elif op is Opcode.NOP or op is Opcode.HALT:
            uop.result = 0
        else:
            uop.result = self._tr_results[ti]

        prd = uop.prd
        if prd is not None:
            self._pure[prd] = 1
            self.prf.write(prd, uop.result)
            self.iq.confirm_spec(prd)
        uop.completed = True
        uop.complete_cycle = self.cycle

    def _ev_load_agen(self, uop, _payload=None):
        self.lsu.load_agen(uop, self.cycle)

    def _resolve_control(self, uop, mispredicted):
        self.shadows.resolve(uop.seq)
        if mispredicted:
            uop.mispredicted = True
            if (
                self._pending_squash is None
                or uop.seq < self._pending_squash.seq
            ):
                self._pending_squash = uop
        elif uop.checkpoint_id is not None:
            self.rename.release_checkpoint(uop.checkpoint_id)
            uop.checkpoint_id = None

    def _ev_store_addr(self, uop, _payload=None):
        prs1 = uop.prs1
        pure = self._pure
        if (
            pure is not None
            and uop.trace_index >= 0
            and (prs1 is None or pure[prs1])
        ):
            uop.address = self._tr_addrs[uop.trace_index]
            uop.addr_pure = True
        else:
            base = self.prf.values[prs1] if prs1 is not None else 0
            uop.address = to_unsigned64(base + uop.instr.imm)
        uop.addr_done = True
        self.lsu.store_addr_ready(uop, self.cycle)
        if uop.data_done:
            uop.completed = True
            uop.complete_cycle = self.cycle

    def _ev_store_data(self, uop, _payload=None):
        prs2 = uop.prs2
        # The stored value itself always comes from the register file —
        # stores feed the live memory image, which stays authoritative —
        # but its purity is tracked so forwarded loads know whether the
        # value they received is architectural.
        uop.mem_value = self.prf.values[prs2] if prs2 is not None else 0
        pure = self._pure
        if pure is not None:
            uop.val_pure = uop.trace_index >= 0 and (
                prs2 is None or pure[prs2] == 1)
        uop.data_done = True
        self.lsu.store_data_ready(uop, self.cycle)
        if uop.addr_done:
            uop.completed = True
            uop.complete_cycle = self.cycle

    def _ev_load_complete(self, uop, value):
        uop.mem_value = value
        uop.result = value
        uop.completed = True
        uop.complete_cycle = self.cycle
        if uop.prd is not None:
            pure = self._pure
            if pure is not None:
                # Loads never take values from the trace (stale-read
                # transients must reproduce); the LSU decided whether
                # this value is provably architectural.
                pure[uop.prd] = 1 if uop.val_pure else 0
            self.prf.write_value_only(uop.prd, value)
            hook = self._scheme_on_load_complete
            if hook is None or hook(uop, self.cycle):
                self.prf.set_ready(uop.prd)
                self.iq.confirm_spec(uop.prd)

    def _ev_spec_ready(self, uop, _payload=None):
        self.prf.set_spec_ready(uop.prd)

    def _ev_spec_kill(self, uop, _payload=None):
        self.prf.revoke_spec(uop.prd)
        replayed = self.iq.kill_spec(uop.prd)
        if replayed:
            self.stats.replayed_uops += len(replayed)
            self.stats.wasted_issue_slots += len(replayed)
        self.stats.spec_wakeup_kills += 1

    # ------------------------------------------------------------------
    # Visibility point.
    # ------------------------------------------------------------------

    def is_load_safe(self, seq):
        """Is the load with sequence ``seq`` bound-to-commit?

        Safe means: no older control shadow is active (Section 6's
        C-shadows) *and* the load's own memory-dependence speculation,
        if any, has been verified (its D-shadow; a load that executed
        past an older store with an unknown address stays speculative
        until every such store has checked for aliasing).
        """
        return seq <= self.vp_now and seq not in self.d_pending

    def schedule_scheme_wake(self, cycle):
        """Book the scheme's visibility hook for ``cycle`` (or sooner).

        Schemes call this from :meth:`on_visibility_update` when their
        state must advance again on a later cycle even if nothing else
        happens (NDA's budget-blocked releases, STT's broadcast
        catch-up).  Booked cycles also bound the idle-cycle
        fast-forward, so a wake is never skipped.

        Bookings coalesce into a single earliest-cycle slot: the hook
        is guaranteed to run *at or before* every booked cycle, and a
        scheme must re-derive its needs — and re-book — on every
        invocation (both built-in users recompute their release /
        catch-up state from scratch each call, so this costs nothing
        and keeps the per-cycle bookkeeping a lone integer).
        """
        current = self._scheme_wake_at
        if current is None or cycle < current:
            self._scheme_wake_at = cycle

    def _update_visibility(self):
        vp = self.shadows.visibility_point()
        self.vp_now = vp_now = self.next_seq if vp is None else vp
        hook = self._scheme_on_visibility_update
        if hook is None:
            return
        # Event-scheduled dispatch: run the hook only when one of its
        # triggers fired — a booked wake falling due, a visibility
        # point the scheme has not seen, or a memory-dependence
        # resolution since the last call.  Each call observes the same
        # (vp_now, d_pending) state the old per-cycle dispatch showed
        # it, so scheme behaviour is bit-identical; the skipped calls
        # are exactly the ones that were provable no-ops.
        wake = self._scheme_wake_at
        if wake is not None and wake <= self.cycle:
            self._scheme_wake_at = None
        elif (vp_now == self._scheme_seen_vp
                and self.d_version == self._scheme_seen_d):
            return
        self._scheme_seen_vp = vp_now
        self._scheme_seen_d = self.d_version
        hook(self.cycle)

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------

    def div_free(self, cycle):
        return cycle >= self._div_busy_until

    def _issue(self):
        issued = self.iq.select_and_issue(self.cycle)
        if not issued:
            return
        cycle = self.cycle
        buckets = self._event_buckets
        cycles_heap = self._event_cycles
        for uop, half in issued:
            # Inlined _schedule (hot path: one event per issued half).
            if uop.op_is_load:
                when = cycle + 1
                event = (_P_LOAD_AGEN, _K_LOAD_AGEN, uop, uop.gen, None)
            elif uop.op_is_store:
                when = cycle + 1
                if half == ADDR:
                    event = (_P_STORE_ADDR, _K_STORE_ADDR, uop, uop.gen, None)
                else:
                    event = (_P_STORE_DATA, _K_STORE_DATA, uop, uop.gen, None)
            else:
                # Every OPCODE_INFO latency is >= 1, so no clamp needed.
                latency = uop.op_latency
                if uop.op_is_div:
                    self._div_busy_until = cycle + latency
                if uop.op_is_branch or uop.instr.op is Opcode.JALR:
                    # Branches resolve deeper in the pipeline: their
                    # shadow stays open through regread/execute/BRU.
                    latency += self.config.branch_resolve_extra
                when = cycle + latency
                event = (_P_COMPLETE, _K_COMPLETE_ALU, uop, uop.gen, None)
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = bucket = []
                heappush(cycles_heap, when)
            bucket.append(event)

    # ------------------------------------------------------------------
    # Rename / dispatch.
    # ------------------------------------------------------------------

    def _rename_dispatch(self):
        cfg = self.config
        cycle = self.cycle
        stats = self.stats
        fetch = self.fetch
        queue = fetch.queue
        rename = self.rename
        lsu = self.lsu
        width = cfg.width
        depth = cfg.frontend_depth

        # Nothing rename-visible this cycle: charge the front-end stall
        # and skip the whole group setup (the common case for low-IPC
        # cells between fast-forward windows).
        if not queue or queue[0].fetch_cycle + depth > cycle:
            stats.stall_frontend_empty += 1
            return

        # ---- build the fetch group: pop admissible entries -----------
        # The stall gates are _rename_block's, inlined: checked against
        # a cycle-start occupancy snapshot plus the group's own
        # in-flight reservations (the counters below).  Nothing else
        # mutates ROB/IQ occupancy, the free list, or the checkpoint
        # pool until the group dispatches — and the LDQ/STQ, which *do*
        # grow inside the loop, are read live — so every verdict, and
        # every charged stall counter, matches sequential
        # one-uop-at-a-time admission (and the fast-forward's
        # _rename_block probe).  When every resource covers a
        # full-width group, the per-entry checks are skipped outright:
        # no entry consumes more than one unit of each.
        rob_len = len(self.rob)
        iq_len = len(self.iq.entries)
        regs_free = len(rename.free_list)
        cps_free = rename.max_branches - len(rename._checkpoints)
        ldq = lsu.ldq
        stq = lsu.stq
        gated = (rob_len + width > cfg.rob_entries
                 or iq_len + width > cfg.iq_entries
                 or len(ldq) + width > cfg.ldq_entries
                 or len(stq) + width > cfg.stq_entries
                 or regs_free < width or cps_free < width)
        group = self._group
        group.clear()
        pool = self._uop_pool
        pool_free = pool._free
        entry_pool = fetch._entry_pool
        shadows = self.shadows
        next_seq = self.next_seq
        n = 0
        n_dests = 0
        n_cps = 0
        while n < width:
            if n:
                # Inlined FetchUnit.peek_ready (the first entry's
                # visibility was checked above).
                if not queue or queue[0].fetch_cycle + depth > cycle:
                    break
            entry = queue[0]
            instr = entry.instr
            info = instr.info
            if gated:
                # _rename_block's gates, same check order (stall
                # attribution must match); each classification bit
                # derives just before the gate that consumes it.
                if rob_len + n >= cfg.rob_entries:
                    stats.stall_rob_full += 1
                    break
                if iq_len + n >= cfg.iq_entries:
                    stats.stall_iq_full += 1
                    break
                is_load = info.is_load
                is_store = info.is_store
                if is_load and len(ldq) >= cfg.ldq_entries:
                    stats.stall_ldq_full += 1
                    break
                if is_store and len(stq) >= cfg.stq_entries:
                    stats.stall_stq_full += 1
                    break
                needs_dest = instr.writes_rd
                if needs_dest and n_dests >= regs_free:
                    stats.stall_no_phys_regs += 1
                    break
                casts_c_shadow = info.casts_c_shadow
                if casts_c_shadow and n_cps >= cps_free:
                    stats.stall_no_checkpoint += 1
                    break
            else:
                is_load = info.is_load
                is_store = info.is_store
                needs_dest = instr.writes_rd
                casts_c_shadow = info.casts_c_shadow

            queue.popleft()
            # Inlined MicroOpPool.acquire (hot path: one per uop).
            if pool_free:
                uop = pool_free.pop()
                uop.in_pool = False
                uop.reset(next_seq, entry.pc, instr, entry.fetch_cycle)
                if is_load or is_store:
                    # Only memory uops read the cold memory-side slots;
                    # everything else skips their re-arm (see the slot
                    # partition in repro.pipeline.uop).
                    uop.reset_mem()
            else:
                uop = MicroOp(next_seq, entry.pc, instr, entry.fetch_cycle)
                pool.allocated += 1
            next_seq += 1
            uop.rename_cycle = cycle
            uop.in_rob = True
            uop.pred_taken = entry.pred_taken
            uop.pred_target = entry.pred_target
            uop.ghr_at_predict = entry.ghr_before
            uop.trace_index = entry.trace_index
            entry_pool.append(entry)
            group.append(uop)
            n += 1
            if is_load:
                # LDQ/STQ allocation folded into the group build:
                # program order is preserved and nothing observes the
                # queues before the group dispatches.
                ldq.append(uop)
            elif is_store:
                stq.append(uop)
            if needs_dest:
                n_dests += 1
            if casts_c_shadow:
                # Casting the C-shadow at group build (rather than after
                # the RAT pass) is equivalent: nothing reads the shadow
                # set until the scheme hook, and a younger shadow never
                # changes an older seq's safety verdict.
                shadows.cast(uop.seq)
                n_cps += 1
        if not n:
            return  # first entry blocked: stall charged, nothing to do
        self.next_seq = next_seq

        # ---- one in-order RAT pass over the whole group --------------
        # The pass also marks the allocated destinations not-ready
        # (fused in via reg_state).
        rename.rename_group(group, self.prf.state)

        # ---- batched downstream admission ----------------------------
        self.rob.extend(group)
        self.iq.add_group(group)

        # ---- scheme hook: one call per group -------------------------
        hook = self._scheme_on_rename_group
        if hook is not None:
            hook(group)

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def _process_squash(self):
        uop = self._pending_squash
        self._pending_squash = None
        if uop is None or uop.killed:
            return
        if uop.is_branch:
            self.stats.branch_mispredicts += 1
        else:
            self.stats.jalr_mispredicts += 1

        seq = uop.seq
        # The ROB is age-ordered: peel the squashed suffix off the back
        # in one pass instead of partitioning the whole deque twice.
        rob = self.rob
        squashed = []
        while rob and rob[-1].seq > seq:
            victim = rob.pop()
            victim.kill()
            squashed.append(victim)
        squashed.reverse()  # oldest-first, as recovery consumers expect
        if self._obs_tracer is not None:
            # Capture before the issue queue destroys scheduler state.
            self._obs_tracer.on_squash_batch(squashed, self.cycle)
        self.iq.squash_younger(seq)
        self.lsu.squash_younger(seq)
        self.shadows.squash_younger(seq)
        stale_d = [k for k, u in self.d_pending.items() if u.killed]
        if stale_d:
            for stale in stale_d:
                del self.d_pending[stale]
            self.d_version += 1

        checkpoint = self.rename.restore_checkpoint(uop.checkpoint_id, squashed)
        uop.checkpoint_id = None
        self.predictor.restore(checkpoint.ghr)
        if uop.is_branch:
            self.predictor.push_history(uop.taken)
        self.scheme.on_checkpoint_restore(uop, checkpoint)

        # Trace re-entry: a squash recovers onto the trace only when the
        # mispredicting uop was itself on-trace and its resolved target
        # is the recorded architectural successor — then the next fetch
        # is provably the next trace step.  (The target check matters
        # for replayed control: an off-path resolution of an on-trace
        # branch would otherwise relabel wrong-path fetches.)
        pos = -1
        tr_next = self._tr_next
        if tr_next is not None:
            ti = uop.trace_index
            if (
                ti >= 0
                and ti + 1 < len(tr_next)
                and uop.actual_target == tr_next[ti]
            ):
                pos = ti + 1
        self.fetch.redirect(
            uop.actual_target, self.cycle + 1 + self.config.redirect_penalty,
            trace_pos=pos,
        )
        self.stats.squashed_uops += len(squashed)
        # The visibility point may have advanced (squashed shadows).
        vp = self.shadows.visibility_point()
        self.vp_now = self.next_seq if vp is None else vp
        # Squashed micro-ops back to the pool: every core-side index was
        # purged or is stale-guarded, and the scheme dropped its own
        # references in on_checkpoint_restore (see repro.pipeline.uop).
        self._uop_pool.release_all(squashed)

    def _flush_all(self, head):
        """Ordering violation at the ROB head: flush and refetch."""
        self.stats.order_violation_flushes += 1
        self.stats.squashed_uops += len(self.rob)
        victims = list(self.rob)
        for victim in victims:
            victim.kill()
        if self._obs_tracer is not None:
            # Capture before the issue queue destroys scheduler state.
            self._obs_tracer.on_squash_batch(victims, self.cycle)
        if self._obs_account is not None:
            self._obs_account.note_flush()
        self.rob.clear()
        self.iq.flush()
        self.lsu.flush()
        self.shadows.clear()
        if self.d_pending:
            self.d_pending.clear()
            self.d_version += 1
        self.rename.flush_all()
        self.scheme.on_flush_all()
        self._pending_squash = None
        # The flush refetches the (committed-state) head itself: its own
        # trace position, if any, is exactly where the stream re-enters.
        self.fetch.redirect(
            head.pc, self.cycle + 1 + self.config.redirect_penalty,
            trace_pos=head.trace_index if self._tr_next is not None else -1,
        )
        vp = self.shadows.visibility_point()
        self.vp_now = self.next_seq if vp is None else vp
        # Commit made no progress this cycle, but the flush is progress.
        self._last_commit_cycle = self.cycle
        # Flushed micro-ops back to the pool (the scheme released or
        # dropped its references in on_flush_all; the head refetches as
        # a fresh micro-op).
        self._uop_pool.release_all(victims)

    # ------------------------------------------------------------------
    # Diagnostics.
    # ------------------------------------------------------------------

    def _deadlock_report(self):
        lines = [
            "no commit for %d cycles at cycle %d (%s on %s/%s)"
            % (
                self.watchdog_cycles,
                self.cycle,
                self.program.name,
                self.config.name,
                self.scheme.name,
            )
        ]
        if self.rob:
            head = self.rob[0]
            lines.append(
                "ROB head: %r completed=%s addr_issued=%s data_issued=%s yrot=%s"
                % (head, head.completed, head.addr_issued, head.data_issued, head.yrot)
            )
        lines.append("shadows: %s" % self.shadows.active_shadows()[:8])
        lines.append("vp_now=%d next_seq=%d" % (self.vp_now, self.next_seq))
        lines.append("iq=%d rob=%d" % (len(self.iq), len(self.rob)))
        return "; ".join(lines)

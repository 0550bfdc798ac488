"""Dynamic micro-op record and the recycling pool.

A :class:`MicroOp` wraps one dynamic instance of a static
:class:`~repro.isa.instructions.Instruction` as it flows through the
pipeline.  Stores are a *single* micro-op with two issue halves
(address and data), mirroring BOOM's unified store micro-op whose
partial-issue interaction with STT the paper analyses in Section 9.2.

**Pooling.**  Micro-ops are the kernel's only steady-state allocation:
one per renamed instruction.  :class:`MicroOpPool` recycles them —
commit and squash return retired micro-ops to a free list, and rename
re-arms a recycled one via :meth:`MicroOp.reset` instead of
constructing afresh — so a long simulation allocates a bounded number
of objects (at most the in-flight maximum, ~ROB entries).

Recycling is safe against stale references because of two invariants:

* ``gen`` is *monotonic across reuses*: :meth:`MicroOp.reset` bumps it
  instead of zeroing it, so events scheduled against a previous life
  (which snapshot ``(uop, gen)``) can never match the recycled object.
* ``in_pool`` makes :meth:`MicroOpPool.release` idempotent: a micro-op
  can be handed back from several cleanup paths (commit sweep, squash
  sweep, scheme recovery) without ever entering the free list twice.

Lazily-discarded issue-queue waiter registrations may still name a
recycled object; their per-entry guards — status, ``killed`` and
operand checks against the object's *current* life — make every such
stale entry inert, exactly as they did for departed-but-unrecycled
objects.  The LSU holds micro-ops only in its queues, which commit,
squash and flush leave before the pool takes them back.  The one
holder that outlives retirement is a delayed-broadcast scheme (NDA
family) whose budget-blocked load commits before its broadcast
releases; the core's commit sweep detects that (the destination
register is still not READY) and simply skips recycling that one
micro-op.

**Slot groups.**  Re-arming is split by read discipline so the rename
hot loop only touches fields that could actually leak between lives:

* :data:`HOT_SLOTS` — :meth:`MicroOp.reset` — fields some consumer may
  read before this life writes them (scheduler status, rename state,
  scheme taint state, control metadata).  Always re-armed.
* :data:`PREDICTION_SLOTS` — :meth:`MicroOp.reset_prediction` — the
  prediction/trace-position fields the rename dispatcher copies from
  the fetch entry immediately after every acquisition; re-armed only on
  the reference/tool path (:meth:`MicroOpPool.acquire`), dead stores
  otherwise.
* :data:`MEM_SLOTS` — :meth:`MicroOp.reset_mem` — fields only ever
  read under a load/store classification guard (LSQ state, purity
  flags, the store-half issue state, ``issue_cycle`` which only stores
  read-before-write).  The core re-arms them only for memory micro-ops,
  and the LSU reads them only on the loads and stores in its queues,
  which rename re-armed for their current life.
* :data:`DEFERRED_SLOTS` — :meth:`MicroOp.reset_deferred` — fields
  every reader observes strictly after this life's writer (branch
  resolution results, completion results, commit timestamps).  The hot
  path skips them entirely; :meth:`MicroOpPool.acquire` (the reference
  and tool/test entry point) still performs the full three-group
  re-arm, so directly-driven micro-ops behave exactly like freshly
  constructed ones.

``tests/pipeline/test_uop_pool.py`` pins the partition structurally:
the three groups plus the pool-owned slots must cover ``__slots__``
exactly, and each ``reset*`` method must restore its whole group.
"""

# Issue "halves" for micro-ops.  Plain ops use WHOLE; stores issue
# ADDR and DATA independently.
WHOLE = "whole"
ADDR = "addr"
DATA = "data"

#: Slot partition (see the module docstring).  The structural test in
#: tests/pipeline/test_uop_pool.py asserts these four tuples cover
#: ``MicroOp.__slots__`` exactly and that each reset method restores
#: its whole group.
HOT_SLOTS = (
    "seq", "pc", "instr", "fetch_cycle",
    "op_is_load", "op_is_store", "op_is_branch", "op_is_transmitter",
    "op_is_div", "op_latency",
    "prs1", "prs2", "prd", "stale_prd", "checkpoint_id",
    "in_rob", "completed", "committed", "killed",
    "spec_deps", "iq_status", "order_violation",
    "yrot", "yrot_addr", "yrot_data", "stt_nop_issued",
    "complete_cycle",
)

#: Fields the rename dispatcher copies from the fetch entry on every
#: acquisition (prediction metadata plus the trace position): clearing
#: them in :meth:`MicroOp.reset` would be dead stores on the hot path,
#: so they form their own group, re-armed by
#: :meth:`MicroOp.reset_prediction` on the reference/tool path only.
PREDICTION_SLOTS = (
    "pred_taken", "pred_target", "ghr_at_predict", "trace_index",
)

MEM_SLOTS = (
    "address", "mem_value",
    "forwarded_from", "waiting_on_store", "pending_stores",
    "addr_done", "data_done", "l1_miss",
    "addr_issued", "data_issued", "issue_cycle",
    "addr_pure", "val_pure",
)

DEFERRED_SLOTS = (
    "mispredicted", "result", "taken", "actual_target",
    "rename_cycle", "commit_cycle",
)

POOL_SLOTS = ("gen", "in_pool")


class MicroOp:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "seq",
        "pc",
        "instr",
        # Renaming.
        "prs1",
        "prs2",
        "prd",
        "stale_prd",
        "checkpoint_id",
        # Branch prediction state.
        "pred_taken",
        "pred_target",
        "ghr_at_predict",
        # Dynamic status.
        "in_rob",
        "addr_issued",
        "data_issued",
        "completed",
        "committed",
        "killed",
        "gen",
        "mispredicted",
        # Results.
        "result",
        "taken",
        "actual_target",
        # Memory.
        "address",
        "mem_value",
        "forwarded_from",
        "order_violation",
        "addr_done",
        "data_done",
        # Did the load's memory access miss the L1?  Set at address
        # generation; drives spec-hit wakeups and the delay-on-miss
        # scheme's broadcast gate.
        "l1_miss",
        # Secure-speculation state.
        "yrot",
        "yrot_addr",
        "yrot_data",
        "stt_nop_issued",
        # Speculative-wakeup bookkeeping.
        "spec_deps",
        "waiting_on_store",
        # Scheduler state (see repro.pipeline.issue_queue: IQ_NONE /
        # IQ_WAITING / IQ_READY / IQ_ISSUED).
        "iq_status",
        # Older stores with unknown addresses this load executed past
        # (memory-dependence speculation; emptied as they resolve).
        "pending_stores",
        # Trace replay: position of this dynamic instruction in the
        # recorded trace (-1 = wrong path / no trace attached) and
        # purity of the generated address / loaded value — True iff the
        # value provably equals the architectural one, making recorded
        # outcomes substitutable downstream (see repro.pipeline.core).
        "trace_index",
        "addr_pure",
        "val_pure",
        # Timing bookkeeping.
        "fetch_cycle",
        "rename_cycle",
        "issue_cycle",
        "complete_cycle",
        "commit_cycle",
        # Cached classification (hot-path flags; see __init__).
        "op_is_load",
        "op_is_store",
        "op_is_branch",
        "op_is_transmitter",
        "op_is_div",
        "op_latency",
        # Pool bookkeeping (see MicroOpPool): True while parked on the
        # free list, guarding against double release.
        "in_pool",
    )

    def __init__(self, seq, pc, instr, fetch_cycle=0):
        self.gen = 0
        self.in_pool = False
        self.reset(seq, pc, instr, fetch_cycle)
        self.reset_prediction()
        self.reset_mem()
        self.reset_deferred()

    def reset(self, seq, pc, instr, fetch_cycle=0):
        """Re-arm the hot slot group for a new dynamic instruction.

        Restores every :data:`HOT_SLOTS` field to its fresh-``__init__``
        state *except* ``gen``, which instead increments: events
        scheduled against the previous life snapshot the old generation
        and must never match the new one (``in_pool`` is pool-managed
        and not touched here).  The prediction group
        (:meth:`reset_prediction`) is excluded too: the rename
        dispatcher unconditionally overwrites all four fields from the
        fetch entry immediately after re-arming, so clearing them here
        would be dead stores on the hot path — any other caller pairs
        this with :meth:`reset_prediction` (see :meth:`MicroOpPool.acquire`).
        The memory group is re-armed separately (:meth:`reset_mem`,
        loads/stores only) and the deferred group not at all on the hot
        path — see the module docstring for why that is sound.
        """
        self.seq = seq
        self.pc = pc
        self.instr = instr
        info = instr.info
        self.op_is_load = info.is_load
        self.op_is_store = info.is_store
        self.op_is_branch = info.is_branch
        self.op_is_transmitter = info.is_transmitter
        self.op_is_div = info.is_div
        self.op_latency = info.latency
        self.prs1 = None
        self.prs2 = None
        self.prd = None
        self.stale_prd = None
        self.checkpoint_id = None
        self.in_rob = False
        self.completed = False
        self.committed = False
        self.killed = False
        self.gen += 1
        self.order_violation = False
        self.yrot = None
        self.yrot_addr = None
        self.yrot_data = None
        self.stt_nop_issued = False
        self.spec_deps = None
        self.iq_status = 0
        self.fetch_cycle = fetch_cycle
        self.complete_cycle = None

    def reset_prediction(self):
        """Re-arm the prediction/trace fields the rename dispatcher
        normally copies straight from the fetch entry (split out of
        :meth:`reset` so the hot path skips the dead stores)."""
        self.pred_taken = False
        self.pred_target = None
        self.ghr_at_predict = None
        self.trace_index = -1

    def reset_mem(self):
        """Re-arm the memory slot group (loads and stores only)."""
        self.address = None
        self.mem_value = None
        self.forwarded_from = None
        self.waiting_on_store = None
        self.pending_stores = None
        self.addr_done = False
        self.data_done = False
        self.l1_miss = False
        self.addr_issued = False
        self.data_issued = False
        self.issue_cycle = None
        self.addr_pure = False
        self.val_pure = False

    def reset_deferred(self):
        """Re-arm the written-before-read slot group (reference path)."""
        self.mispredicted = False
        self.result = None
        self.taken = False
        self.actual_target = None
        self.rename_cycle = None
        self.commit_cycle = None

    # -- classification shortcuts -------------------------------------

    @property
    def is_load(self):
        return self.op_is_load

    @property
    def is_store(self):
        return self.op_is_store

    @property
    def is_branch(self):
        return self.op_is_branch

    @property
    def is_control(self):
        return self.instr.is_control

    @property
    def is_transmitter(self):
        return self.op_is_transmitter

    @property
    def writes_reg(self):
        return self.instr.writes_rd

    @property
    def fully_issued(self):
        """Both halves issued (stores) or the single half issued."""
        if self.op_is_store:
            return self.addr_issued and self.data_issued
        return self.addr_issued

    def kill(self):
        """Invalidate the micro-op and any scheduled events for it."""
        self.killed = True
        self.gen += 1

    def replay(self):
        """Return the micro-op to the not-issued state (wakeup replay).

        ``trace_index`` survives: a replay re-executes the *same*
        dynamic instruction.  The purity flags do not — the re-executed
        address/value derivation re-establishes them from scratch.
        """
        self.gen += 1
        self.addr_issued = False
        self.data_issued = False
        self.completed = False
        self.result = None
        self.spec_deps = None
        self.waiting_on_store = None
        self.pending_stores = None
        self.l1_miss = False
        self.addr_pure = False
        self.val_pure = False

    def __repr__(self):
        return "<uop #%d pc=%d %s%s>" % (
            self.seq,
            self.pc,
            self.instr,
            " KILLED" if self.killed else "",
        )


class MicroOpPool:
    """Free-list recycler for :class:`MicroOp` objects.

    One pool per core.  ``acquire`` re-arms a parked micro-op (or
    constructs one when the list is dry); ``release`` parks a retired
    or squashed micro-op, idempotently — double releases (commit sweep
    plus a scheme recovery path, say) are absorbed by the ``in_pool``
    flag rather than corrupting the free list.  The pool's size is
    naturally bounded by the in-flight maximum: only micro-ops that
    made it into the ROB ever come back.
    """

    __slots__ = ("_free", "allocated")

    def __init__(self):
        self._free = []
        #: Fresh constructions (pool was dry).  The recycling evidence:
        #: a steady-state run's ``allocated`` stays at the in-flight
        #: maximum while millions of micro-ops pass through.
        self.allocated = 0

    def __len__(self):
        return len(self._free)

    def acquire(self, seq, pc, instr, fetch_cycle=0):
        """A micro-op armed for ``(seq, pc, instr)``: recycled or new.

        Performs the *full* three-group re-arm, so a recycled micro-op
        is indistinguishable from a fresh construction.  The core's
        rename gather loop inlines a narrower form (hot group always,
        memory group for loads/stores only — see the module docstring);
        this method is the reference implementation and the tool/test
        entry point.
        """
        free = self._free
        if free:
            uop = free.pop()
            uop.in_pool = False
            uop.reset(seq, pc, instr, fetch_cycle)
            uop.reset_prediction()
            uop.reset_mem()
            uop.reset_deferred()
            return uop
        self.allocated += 1
        return MicroOp(seq, pc, instr, fetch_cycle)

    def release(self, uop):
        """Park a retired/squashed micro-op (no-op if already parked)."""
        if uop.in_pool:
            return
        uop.in_pool = True
        self._free.append(uop)

    def release_all(self, uops):
        for uop in uops:
            if not uop.in_pool:
                uop.in_pool = True
                self._free.append(uop)

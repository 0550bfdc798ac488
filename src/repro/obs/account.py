"""Top-down cycle accounting (see :mod:`repro.obs` for the taxonomy).

A :class:`CycleAccount` is handed to :class:`~repro.pipeline.core.
OoOCore` at construction (``account=``).  The core calls

* :meth:`CycleAccount.note_cycle` once per stepped cycle, right after
  the commit phase, with the number of instructions that committed;
* :meth:`CycleAccount.note_skip` once per fast-forwarded window, with
  the window length (classification at the window start is constant
  across the window — fast-forward only engages when every phase is
  provably inert);
* :meth:`CycleAccount.note_flush` when an ordering-violation flush
  fires (consumed by the same cycle's ``note_cycle``).

Those three are the only calls the core makes while it runs; nothing
else on the hot path reaches this module.  Each sink adds the ROB, issue-queue, LDQ,
STQ and free-list lengths into plain counters (weighted by the window
length for a skipped window), and only a cycle with an idle commit slot
is classified.  The physical-register integral is derived at the end
as ``num_phys_regs * cycles`` minus the summed free-list length, and
the per-label issue-block count is read off
``SimStats.taint_blocked_issues`` (every block the issue stage charges
is charged under the core's one scheme label), so neither costs a call
per event.

The conservation invariant — every commit slot attributed exactly
once::

    sum(cycacct leaf slots) + committed_instructions == width * cycles

with ``cycacct.cycles == stats.cycles`` exactly.
"""

from repro.pipeline.issue_queue import (
    IQ_ISSUED,
    IQ_NONE,
    IQ_READY,
    IQ_WAITING,
)

#: Rename stall counter -> attribution leaf.
_RENAME_LEAF = {
    "stall_rob_full": "rename_blocked_rob",
    "stall_iq_full": "rename_blocked_iq",
    "stall_ldq_full": "rename_blocked_ldq",
    "stall_stq_full": "rename_blocked_stq",
    "stall_no_phys_regs": "rename_blocked_preg",
    "stall_no_checkpoint": "rename_blocked_ckpt",
}

#: Every leaf cause, in report order (the taxonomy in repro.obs).
LEAF_CAUSES = (
    "frontend_empty",
    "frontend_redirect",
    "pipeline_fill",
    "rename_blocked_rob",
    "rename_blocked_iq",
    "rename_blocked_ldq",
    "rename_blocked_stq",
    "rename_blocked_preg",
    "rename_blocked_ckpt",
    "waiting_operands",
    "waiting_execute",
    "waiting_memory",
    "scheme_delayed",
    "flush_recovery",
    "drained",
)


def _backpressure_subcause(core):
    """Drill below a rename resource stall: is the scheme refusing to
    drain the back end?

    Schemes released at shadow *resolution* never delay the ROB head
    directly — a scheme-blocked uop implies an older unresolved shadow
    caster, which is incomplete and therefore still ahead of it in the
    ROB.  Their cost surfaces as back-pressure instead: withheld work
    piles up behind the block until some rename-side resource (issue
    queue under fence, physical registers under STT/NDA) exhausts.
    Back-end resources free in commit order, and commit is gated by
    the oldest unfinished work; the oldest work not even *started* is
    the oldest unissued issue-queue entry.  If the scheme is
    withholding exactly that entry, the resource is exhausted because
    of the scheme, not because execution is slow, and the idle slots
    belong to ``scheme_delayed``.  Only the head of the unissued age
    order is consulted — transitive chains (an operand wait on a
    scheme-blocked producer) stay with the generic resource leaf.
    """
    scheme = core.scheme
    if scheme.delay_label is None:
        return None
    for uop in core.iq.entries.values():  # insertion order == age order
        if uop.killed:
            continue
        status = uop.iq_status
        if status == IQ_WAITING or status == IQ_READY:
            return scheme.delay_subcause(uop)
    return None


def _classify(core):
    """One (leaf, scheme_sub_cause) for the current commit boundary.

    Called only when at least one commit slot went idle; shared by the
    stepping and fast-forward paths so their attributions can never
    diverge.  Reads core state without mutating it.
    """
    if core.halted:
        return "drained", None
    fetch = core.fetch
    entry = fetch.peek_ready(core.cycle)
    rob = core.rob
    if rob:
        if entry is not None:
            counter = core._rename_block(entry)
            if counter is not None:
                sub = _backpressure_subcause(core)
                if sub is not None:
                    return "scheme_delayed", sub
                return _RENAME_LEAF[counter], None
        head = rob[0]
        scheme = core.scheme
        if head.op_is_store:
            if head.addr_issued and head.data_issued:
                return "waiting_memory", None
            sub = scheme.delay_subcause(head)
            if sub is not None:
                return "scheme_delayed", sub
            return "waiting_operands", None
        # Non-store: the scheduler state is authoritative (the memory
        # slot group is stale on recycled non-memory uops).  IQ_NONE on
        # an in-ROB incomplete uop means it issued and departed;
        # IQ_ISSUED means it issued on a speculative operand.
        status = head.iq_status
        if status == IQ_NONE or status == IQ_ISSUED:
            if head.op_is_load:
                return "waiting_memory", None
            return "waiting_execute", None
        sub = scheme.delay_subcause(head)
        if sub is not None:
            return "scheme_delayed", sub
        if status == IQ_READY:
            return "waiting_execute", None
        return "waiting_operands", None
    if entry is not None:
        counter = core._rename_block(entry)
        if counter is not None:  # pragma: no cover - empty-ROB resource
            return _RENAME_LEAF[counter], None  # blocks are checkpoint-only
        return "pipeline_fill", None
    if fetch.redirect_stalled(core.cycle):
        return "frontend_redirect", None
    return "frontend_empty", None


class CycleAccount:
    """Accumulates per-leaf idle-slot counts plus occupancy integrals."""

    __slots__ = ("width", "cycles", "leaves", "scheme_sub", "_occ_rob",
                 "_occ_iq", "_occ_ldq", "_occ_stq", "_occ_free",
                 "_phys_regs", "_stats", "_block_label", "_flush_pending",
                 "_rob", "_iq", "_ldq", "_stq", "_rename")

    def __init__(self):
        self.width = 0
        self.cycles = 0
        self.leaves = {}
        self.scheme_sub = {}
        # Per-cycle lengths summed after commit; ``_occ_free`` sums the
        # free list, from which the ``pregs`` integral is derived.
        self._occ_rob = 0
        self._occ_iq = 0
        self._occ_ldq = 0
        self._occ_stq = 0
        self._occ_free = 0
        self._phys_regs = 0
        self._stats = None
        self._block_label = "scheme"
        self._flush_pending = False

    def attach(self, core):
        self.width = core.config.width
        self._phys_regs = core.config.num_phys_regs
        self._stats = core.stats
        self._block_label = core.scheme.delay_label or "scheme"
        # The queues the sinks measure.  The ROB and LSQ deques live as
        # long as the core; a flush replaces the issue queue's entry
        # dict and the free list, so those are read through their unit.
        self._rob = core.rob
        self._ldq = core.lsu.ldq
        self._stq = core.lsu.stq
        self._iq = core.iq
        self._rename = core.rename

    # -- core-facing sinks ------------------------------------------------

    def note_cycle(self, core, committed):
        """Attribute one stepped cycle (``committed`` uops retired)."""
        self.cycles += 1
        self._occ_rob += len(self._rob)
        self._occ_iq += len(self._iq.entries)
        self._occ_ldq += len(self._ldq)
        self._occ_stq += len(self._stq)
        self._occ_free += len(self._rename.free_list)
        idle = self.width - committed
        if idle <= 0:
            self._flush_pending = False
            return
        if self._flush_pending:
            self._flush_pending = False
            leaf, sub = "flush_recovery", None
        else:
            leaf, sub = _classify(core)
        leaves = self.leaves
        leaves[leaf] = leaves.get(leaf, 0) + idle
        if sub is not None:
            subs = self.scheme_sub
            subs[sub] = subs.get(sub, 0) + idle

    def note_skip(self, core, skipped):
        """Attribute a fast-forwarded window of ``skipped`` idle cycles."""
        if skipped <= 0:
            return
        self.cycles += skipped
        self._occ_rob += len(self._rob) * skipped
        self._occ_iq += len(self._iq.entries) * skipped
        self._occ_ldq += len(self._ldq) * skipped
        self._occ_stq += len(self._stq) * skipped
        self._occ_free += len(self._rename.free_list) * skipped
        leaf, sub = _classify(core)
        slots = self.width * skipped
        leaves = self.leaves
        leaves[leaf] = leaves.get(leaf, 0) + slots
        if sub is not None:
            subs = self.scheme_sub
            subs[sub] = subs.get(sub, 0) + slots

    def note_flush(self):
        """An ordering-violation flush fired in the current commit."""
        self._flush_pending = True

    # -- derived counts ---------------------------------------------------

    @property
    def issue_blocks(self):
        """``{label: count}`` of the (half-)issues the scheme withheld,
        under the scheme's delay label (``"scheme"`` if it has none);
        empty when it withheld none."""
        stats = self._stats
        blocked = stats.taint_blocked_issues if stats is not None else 0
        return {self._block_label: blocked} if blocked else {}

    @property
    def occupancy(self):
        """Summed per-cycle occupancy of each back-end structure."""
        return {
            "iq": self._occ_iq,
            "ldq": self._occ_ldq,
            "pregs": self._phys_regs * self.cycles - self._occ_free,
            "rob": self._occ_rob,
            "stq": self._occ_stq,
        }

    # -- reporting --------------------------------------------------------

    def as_extra(self):
        """Flatten into ``SimStats.extra`` keys (``cycacct.`` namespace).

        Only non-zero leaves are emitted; ``cycacct.width`` and
        ``cycacct.cycles`` always are, so conservation is checkable
        from a stored result alone.
        """
        extra = {
            "cycacct.width": self.width,
            "cycacct.cycles": self.cycles,
        }
        for leaf in sorted(self.leaves):
            extra["cycacct." + leaf] = self.leaves[leaf]
        for sub in sorted(self.scheme_sub):
            extra["cycacct.scheme." + sub] = self.scheme_sub[sub]
        for label, blocked in self.issue_blocks.items():
            extra["cycacct.issue_blocks." + label] = blocked
        for name, integral in self.occupancy.items():
            extra["cycacct.occ." + name] = integral
        return extra

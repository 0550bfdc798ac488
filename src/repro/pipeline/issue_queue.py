"""Issue queue: wakeup-driven scheduling, select, replay.

Selection is oldest-first over entries whose operands are usable and
whose scheme-level ready mask is clear.  Three structural limits apply
per cycle: total issue width, memory ports (loads and store halves),
and the unpipelined divider.

Stores are single entries with two independently-issuing halves
(address and data) — BOOM's unified store micro-op.  If both operand
halves are ready the store issues once, performing both; otherwise it
partially issues (Section 9.2).

Scheduling is *wakeup-driven*: entries never sit in a scan loop waiting
for operands.  Each entry is in exactly one scheduler state:

* ``IQ_READY``   — every operand usable (stores: at least one unissued
  half fireable); on the age-ordered ready list the per-cycle select
  examines.  Ready entries are re-checked *live* each select pass, so
  scheme ready-masks, port limits, and the divider behave exactly as a
  full scan would.
* ``IQ_WAITING`` — registered in the preg -> waiting-consumers index
  (``_waiters``); promoted by the register file's wakeup notifications
  (:class:`~repro.pipeline.regfile.PhysRegFile` ``listener`` calls),
  demoted back here when a speculative wakeup is revoked.
* ``IQ_ISSUED``  — issued on a speculative operand; registered in the
  preg -> speculative-consumers index (``_spec_waiters``) until the
  operand confirms (entry leaves the queue) or is killed (entry is
  replayed and re-classified).

Speculative scheduling: loads that miss in the L1 still broadcast a
speculative wakeup at hit latency; consumers that issued on a
speculative operand stay in the queue until the operand confirms, and
are replayed (returned to the not-issued state) when the wakeup is
killed.  Schemes whose registry spec disables L1-hit speculation
(``allows_spec_hit_wakeup = False``: NDA, delay-on-miss) never
schedule these wakeups at all.

Scheme ready-masks (``blocks_issue``) are re-evaluated live on every
select pass over a ready entry, so schemes that gate on the broadcast
visibility point (STT) or directly on the live one (fence) need no
wakeup plumbing of their own — a masked entry simply keeps losing
selection until its gate opens.

Index bookkeeping is lazy where safe: squashed or departed entries may
linger in ``_waiters``/``_spec_waiters`` sets and are discarded on the
next notification for that register (state checks make them inert).
The ready list is pruned eagerly so ``has_ready`` — which gates the
core's idle-cycle fast-forward — never reports stale work.
"""

from bisect import insort

from repro.core.plugin import overridden_hook
from repro.pipeline.regfile import NOT_READY, READY
from repro.pipeline.uop import ADDR, DATA, WHOLE

# Scheduler states (stored on MicroOp.iq_status).
IQ_NONE = 0
IQ_WAITING = 1
IQ_READY = 2
IQ_ISSUED = 3


class IssueQueue:
    """Out-of-order scheduler over in-flight micro-ops."""

    def __init__(self, core):
        self.core = core
        self.config = core.config
        # Devirtualised scheme hooks: None means "default" (never
        # blocks / always issues), skipping a call per examined entry.
        self._blocks_issue = overridden_hook(core.scheme, "blocks_issue")
        self._on_issue = overridden_hook(core.scheme, "on_issue")
        #: seq -> uop, insertion-ordered (rename order == age order).
        self.entries = {}
        #: Age-sorted ``(seq, uop)`` pairs with status ``IQ_READY``.
        self._ready = []
        #: preg -> set of ``IQ_WAITING`` consumers.
        self._waiters = {}
        #: preg -> set of ``IQ_ISSUED`` speculative consumers.
        self._spec_waiters = {}

    def __len__(self):
        return len(self.entries)

    def has_ready(self):
        """Any entry the next select pass could examine?  (Used by the
        core's idle-cycle fast-forward: an empty ready list guarantees
        ``select_and_issue`` is a no-op.)"""
        return bool(self._ready)

    def add_group(self, uops):
        """Insert one renamed fetch group (age order), as one call.

        Renamed micro-ops arrive in age order, so a ready newcomer
        always belongs at the back of the ready list — append, don't
        insort.  Each member's readiness is judged against the live
        register state (a usable operand is truthy: ``state !=
        NOT_READY``), which already carries the whole group's
        destination allocations, so an in-group consumer of an
        in-group producer correctly starts out waiting.
        """
        entries = self.entries
        ready = self._ready
        state = self.core.prf.state
        store_can_fire = self._store_can_fire
        classify = self._classify
        for uop in uops:
            entries[uop.seq] = uop
            if uop.op_is_store:
                if store_can_fire(uop, state):
                    uop.iq_status = IQ_READY
                    ready.append((uop.seq, uop))
                    continue
            else:
                prs1 = uop.prs1
                prs2 = uop.prs2
                if (prs1 is None or state[prs1]) and (
                    prs2 is None or state[prs2]
                ):
                    uop.iq_status = IQ_READY
                    ready.append((uop.seq, uop))
                    continue
            classify(uop)

    # -- scheduler-state transitions ---------------------------------------

    def _classify(self, uop):
        """Place ``uop`` into READY or WAITING from live operand state."""
        state = self.core.prf.state
        prs1 = uop.prs1
        prs2 = uop.prs2
        if uop.op_is_store:
            if self._store_can_fire(uop, state):
                self._mark_ready(uop)
                return
            uop.iq_status = IQ_WAITING
            waiters = self._waiters
            if not uop.addr_issued and prs1 is not None and state[prs1] != READY:
                _register(waiters, prs1, uop)
            if not uop.data_issued and prs2 is not None and state[prs2] != READY:
                _register(waiters, prs2, uop)
            return
        waiting = False
        if prs1 is not None and state[prs1] == NOT_READY:
            _register(self._waiters, prs1, uop)
            waiting = True
        if prs2 is not None and state[prs2] == NOT_READY:
            _register(self._waiters, prs2, uop)
            waiting = True
        if waiting:
            uop.iq_status = IQ_WAITING
        else:
            self._mark_ready(uop)

    def _mark_ready(self, uop):
        uop.iq_status = IQ_READY
        insort(self._ready, (uop.seq, uop))

    @staticmethod
    def _store_can_fire(uop, state):
        """Can at least one unissued store half issue (operand READY)?"""
        return (
            not uop.addr_issued
            and (uop.prs1 is None or state[uop.prs1] == READY)
        ) or (
            not uop.data_issued
            and (uop.prs2 is None or state[uop.prs2] == READY)
        )

    # -- wakeup bus (PhysRegFile listener interface) -----------------------

    def on_preg_usable(self, preg):
        """``NOT_READY -> SPEC_READY``: plain consumers may now issue;
        store halves require the full READY broadcast and re-register."""
        waiting = self._waiters.pop(preg, None)
        if not waiting:
            return
        keep = None
        for uop in waiting:
            if uop.iq_status != IQ_WAITING or uop.killed:
                continue  # departed entry; drop the stale registration
            if uop.op_is_store:
                if keep is None:
                    keep = set()
                keep.add(uop)
                continue
            self._classify(uop)
        if keep:
            existing = self._waiters.get(preg)
            if existing is None:
                self._waiters[preg] = keep
            else:
                existing.update(keep)

    def on_preg_ready(self, preg):
        """``* -> READY``: the architectural broadcast wakes everyone."""
        waiting = self._waiters.pop(preg, None)
        if not waiting:
            return
        for uop in waiting:
            if uop.iq_status != IQ_WAITING or uop.killed:
                continue
            self._classify(uop)

    def on_preg_revoked(self, preg):
        """``SPEC_READY -> NOT_READY``: demote ready consumers that were
        counting on the speculative value.  Store halves never treat
        SPEC_READY as usable, so only plain entries can be affected."""
        ready = self._ready
        if not ready:
            return
        demoted = [
            uop
            for _seq, uop in ready
            if not uop.op_is_store and (uop.prs1 == preg or uop.prs2 == preg)
        ]
        if not demoted:
            return
        drop = set(demoted)
        self._ready = [item for item in ready if item[1] not in drop]
        for uop in demoted:
            self._classify(uop)

    # -- recovery ----------------------------------------------------------

    def squash_younger(self, seq):
        """Remove entries younger than ``seq`` (misprediction squash)."""
        entries = self.entries
        if not entries:
            return
        stale = []
        for entry_seq in reversed(entries):
            if entry_seq <= seq:
                break
            stale.append(entry_seq)
        if not stale:
            return
        for entry_seq in stale:
            entries.pop(entry_seq).iq_status = IQ_NONE
        if self._ready:
            self._ready = [item for item in self._ready if item[0] <= seq]
        # _waiters/_spec_waiters registrations are discarded lazily: the
        # IQ_NONE status (and killed flag) makes them inert.

    def flush(self):
        for uop in self.entries.values():
            uop.iq_status = IQ_NONE
        self.entries = {}
        self._ready = []
        self._waiters = {}
        self._spec_waiters = {}

    # -- select -----------------------------------------------------------

    def select_and_issue(self, cycle):
        """Pick winners for this cycle and hand them to the core.

        Returns the list of (uop, half) pairs actually sent to execute.
        Only ready-list entries are examined — oldest first, identical
        to a full age-ordered scan, because an entry with an unusable
        operand could never win selection anyway.
        """
        ready = self._ready
        if not ready:
            return ()
        core = self.core
        prf = core.prf
        state = prf.state
        blocks_issue = self._blocks_issue
        on_issue = self._on_issue
        slots = self.config.issue_width
        mem_slots = self.config.mem_width
        issued = []
        dirty = False
        div_granted = False

        for seq, uop in ready:
            if slots <= 0:
                break
            if uop.iq_status != IQ_READY:  # pragma: no cover - defensive
                dirty = True
                continue
            if uop.op_is_store:
                slots, mem_slots = self._try_store(
                    uop, cycle, slots, mem_slots, issued
                )
                if uop.addr_issued and uop.data_issued:
                    del self.entries[seq]
                    uop.iq_status = IQ_NONE
                    dirty = True
                elif not self._store_can_fire(uop, state):
                    # The fireable half went out; wait for the rest.
                    self._classify(uop)
                    dirty = True
                continue

            if uop.op_is_load and mem_slots <= 0:
                continue
            # Live operand guard: the wakeup index keeps this in sync,
            # but a revoked operand must never slip through to execute.
            prs1 = uop.prs1
            prs2 = uop.prs2
            if (prs1 is not None and state[prs1] == NOT_READY) or (
                prs2 is not None and state[prs2] == NOT_READY
            ):  # pragma: no cover - defensive
                self._classify(uop)
                dirty = True
                continue
            if blocks_issue is not None and blocks_issue(uop, WHOLE):
                core.stats.taint_blocked_issues += 1
                if core._obs_account is not None:
                    core._obs_account.issue_blocked(core.scheme.delay_label)
                continue
            if uop.op_is_div:
                # One unpipelined divider: a single grant per cycle,
                # and only once the previous division has drained.
                if div_granted or not core.div_free(cycle):
                    continue
                div_granted = True

            slots -= 1
            if on_issue is not None and not on_issue(uop, WHOLE, cycle):
                core.stats.wasted_issue_slots += 1
                continue

            if uop.op_is_load:
                mem_slots -= 1
            # Inlined _spec_sources: no set allocated on the (common)
            # non-speculative path.
            spec = None
            if prs1 is not None and state[prs1] == 1:  # SPEC_READY
                spec = {prs1}
            if prs2 is not None and state[prs2] == 1:
                if spec is None:
                    spec = {prs2}
                else:
                    spec.add(prs2)
            uop.addr_issued = True
            uop.issue_cycle = cycle
            issued.append((uop, WHOLE))
            dirty = True
            if spec is not None:
                uop.spec_deps = spec
                uop.iq_status = IQ_ISSUED
                for preg in spec:
                    _register(self._spec_waiters, preg, uop)
            else:
                uop.spec_deps = None
                uop.iq_status = IQ_NONE
                del self.entries[seq]

        if dirty:
            self._ready = [item for item in self._ready
                           if item[1].iq_status == IQ_READY]
        return issued

    def _try_store(self, uop, cycle, slots, mem_slots, issued):
        """Attempt (partial) issue of a store's address/data halves."""
        core = self.core
        state = core.prf.state
        blocks_issue = self._blocks_issue
        on_issue = self._on_issue

        addr_ready = not uop.addr_issued and (
            uop.prs1 is None or state[uop.prs1] == READY
        )
        data_ready = not uop.data_issued and (
            uop.prs2 is None or state[uop.prs2] == READY
        )
        if blocks_issue is not None:
            account = core._obs_account
            if addr_ready and blocks_issue(uop, ADDR):
                core.stats.taint_blocked_issues += 1
                if account is not None:
                    account.issue_blocked(core.scheme.delay_label)
                addr_ready = False
            if data_ready and blocks_issue(uop, DATA):
                core.stats.taint_blocked_issues += 1
                if account is not None:
                    account.issue_blocked(core.scheme.delay_label)
                data_ready = False
        if not addr_ready and not data_ready:
            return slots, mem_slots
        if mem_slots <= 0:
            return slots, mem_slots

        # One issue slot covers whichever halves fire this cycle
        # (unified micro-op: a single scheduler grant).
        slots -= 1
        mem_slots -= 1

        if addr_ready:
            if on_issue is None or on_issue(uop, ADDR, cycle):
                uop.addr_issued = True
                if not uop.data_issued and not data_ready:
                    core.stats.partial_store_issues += 1
                issued.append((uop, ADDR))
            else:
                core.stats.wasted_issue_slots += 1
                return slots, mem_slots
        if data_ready:
            if on_issue is None or on_issue(uop, DATA, cycle):
                uop.data_issued = True
                issued.append((uop, DATA))
            else:
                core.stats.wasted_issue_slots += 1
        if uop.issue_cycle is None and (uop.addr_issued or uop.data_issued):
            uop.issue_cycle = cycle
        return slots, mem_slots

    # -- speculative wakeup bookkeeping ------------------------------------

    def confirm_spec(self, preg):
        """A speculative wakeup proved correct: release entries whose
        only reason for staying was waiting on ``preg``."""
        waiting = self._spec_waiters.pop(preg, None)
        if not waiting:
            return
        for uop in waiting:
            deps = uop.spec_deps
            if not deps or preg not in deps or uop.killed:
                continue  # replayed/departed since registering
            deps.discard(preg)
            if deps:
                continue
            uop.spec_deps = None
            if uop.iq_status == IQ_ISSUED:
                uop.iq_status = IQ_NONE
                self.entries.pop(uop.seq, None)

    def kill_spec(self, preg):
        """A speculative wakeup was wrong (L1 miss): replay consumers.

        Returns the replayed micro-ops (the core cancels their
        scheduled events via the generation bump in ``replay``).
        """
        waiting = self._spec_waiters.pop(preg, None)
        if not waiting:
            return []
        replayed = []
        for uop in waiting:
            deps = uop.spec_deps
            if not deps or preg not in deps or uop.killed:
                continue
            for other in deps:
                if other != preg:
                    others = self._spec_waiters.get(other)
                    if others is not None:
                        others.discard(uop)
            uop.replay()
            replayed.append(uop)
            # The revoked operand is NOT_READY again (revoke_spec runs
            # before kill_spec), so this re-registers the consumer.
            self._classify(uop)
        return replayed

    def occupancy(self):
        return len(self.entries)


def _register(index, preg, uop):
    consumers = index.get(preg)
    if consumers is None:
        index[preg] = {uop}
    else:
        consumers.add(uop)

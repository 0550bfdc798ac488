"""NDA-Permissive: delayed broadcast for speculative loads (Section 5).

NDA decouples a load's *data write* from its *broadcast* (Figure 5):
when a speculative load completes, its value is written to the physical
register file but the ready broadcast — the signal that lets dependent
instructions issue — is withheld until the load is bound-to-commit.
Dependents simply never see the operand as ready, so no speculative
load data propagates anywhere, observable or not.

Two structural notes from the paper:

* The number of delayed broadcasts released per cycle is limited to the
  core's memory width (the broadcast bus is provisioned for the LSU's
  normal bandwidth).
* NDA's configuration removes speculative L1-hit scheduling, which the
  paper credits for NDA's baseline-or-better synthesis timing
  (``allows_spec_hit_wakeup = False``; the registered area/critpath
  contributions credit the removed logic).

Releases are *event-scheduled*: a withheld broadcast's gate (the
visibility point reaching the load, its memory-dependence speculation
resolving) only ever moves on core events, so the core invokes
:meth:`~NDAScheme.on_visibility_update` exactly when one of those
triggers fires, and the scheme books one wake per following cycle only
while a releasable load is stuck behind the per-cycle ``mem_width``
budget.  Idle windows with only un-releasable pending loads cost
nothing and fast-forward freely.

Budget-blocked drains are *batch-scheduled*: when one trigger exposes
more releasable loads than one cycle's budget (a long shadow resolving
over a pile of completed loads — the shadowed-miss regime), the scheme
partitions the whole backlog once, releases the first budget's worth,
and precomputes the remaining releases as per-cycle batches, each
carrying its own release cycle.  Subsequent wakes validate a
``(visibility point, d_version)`` stamp and, while it matches, pop the
due batch in O(budget) instead of rescanning the backlog — the
release *cadence* (budget per cycle, age order) is untouched, so
results stay byte-identical; any gate movement invalidates the stamp
and the next wake rebuilds from scratch.

The mechanism depends only on *whether* a load is speculative, never on
the loaded value, so it introduces no new leakage.
"""

from collections import deque

from repro.core.plugin import SchemeBase
from repro.core.registry import SchemeSpec, SchemeTiming, register
from repro.timing.area import YROT_TAG_BITS, spec_hit_luts
from repro.timing.critpath import spec_hit_bypass_delay
from repro.timing.power import E_BROADCAST


class NDAScheme(SchemeBase):
    """Non-speculative Data Access (permissive mode)."""

    name = "nda"
    allows_spec_hit_wakeup = False
    uses_taint_checkpoints = False
    delay_label = "nda-budget-block"

    def __init__(self):
        super().__init__()
        # Completed loads whose broadcast is withheld, kept seq-sorted.
        self._pending = []
        # Precomputed release batches: (cycle, [uop, ...]) in age order,
        # one budget's worth per cycle, valid only while _stamp matches
        # the core's (vp_now, d_version) — see the module docstring.
        self._sched = deque()
        self._stamp = None
        self.deferred = 0
        self.immediate = 0

    def attach(self, core):
        super().attach(core)
        self._pending = []
        self._sched = deque()
        self._stamp = None

    # -- memory -----------------------------------------------------------

    def on_load_complete(self, uop, cycle):
        if self.core.is_load_safe(uop.seq):
            self.immediate += 1
            return True
        self._defer(uop)
        return False

    def _defer(self, uop):
        self._pending.append(uop)
        self._pending.sort(key=lambda u: u.seq)
        self.deferred += 1
        self.core.stats.deferred_broadcasts += 1

    def delay_subcause(self, uop):
        """Observability probe: is a source's broadcast withheld?"""
        withheld = {u.prd for u in self._pending
                    if not u.killed and u.prd is not None}
        for _due, batch in self._sched:
            for u in batch:
                if not u.killed and u.prd is not None:
                    withheld.add(u.prd)
        if withheld and (uop.prs1 in withheld or uop.prs2 in withheld):
            return self.delay_label
        return None

    # -- visibility phase ---------------------------------------------------

    def on_visibility_update(self, cycle):
        """Release broadcasts for loads now bound-to-commit.

        At most ``mem_width`` broadcasts per cycle (Section 5.1), in
        age order — matching the in-order advance of the visibility
        point over the ROB.  A backlog larger than one budget is
        partitioned *once* into per-cycle batches that release on the
        stamp-validated fast path below; when nothing remains
        scheduled, the pending loads are inert until the next
        visibility or memory-dependence event and need no further
        calls.
        """
        core = self.core
        stamp = (core.vp_now, core.d_version)
        sched = self._sched
        if sched and stamp == self._stamp:
            # Fast path: no release gate moved since the schedule was
            # built, so the due batch drains as precomputed — O(budget)
            # instead of a backlog rescan.
            while sched and sched[0][0] <= cycle:
                _due, batch = sched.popleft()
                for uop in batch:
                    if not uop.killed:
                        self._release(uop, cycle)
            if sched:
                core.schedule_scheme_wake(sched[0][0])
            return
        if sched:
            # A gate moved under a live schedule: fold the unreleased
            # batches back and repartition against the new stamp.
            pending = self._pending
            for _due, batch in sched:
                pending.extend(batch)
            sched.clear()
            pending.sort(key=lambda u: u.seq)
        self._stamp = stamp
        if not self._pending:
            return
        vp = core.vp_now
        budget = core.config.mem_width
        d_pending = core.d_pending
        releasable = []
        remaining = []
        for uop in self._pending:
            if uop.killed:
                continue
            if uop.seq <= vp and uop.seq not in d_pending:
                releasable.append(uop)
            else:
                remaining.append(uop)
        self._pending = remaining
        for uop in releasable[:budget]:
            self._release(uop, cycle)
        if len(releasable) > budget:
            # One future batch per cycle, each carrying its own release
            # cycle — identical cadence and age order to releasing
            # budget-at-a-time from a rescanned backlog.
            for i in range(budget, len(releasable), budget):
                sched.append((cycle + i // budget, releasable[i:i + budget]))
            core.schedule_scheme_wake(cycle + 1)

    def _release(self, uop, cycle):
        if (uop.committed
                and self.core.rename.arch_rat[uop.instr.rd] != uop.prd):
            # The load committed and a younger writer of the same
            # architectural register has since committed too, freeing
            # this physical register — which may already belong to a
            # younger in-flight uop.  No live consumer can still name
            # it (any waiting consumer would have had to commit before
            # that younger writer, which requires this very broadcast),
            # so the withheld wake is dead: releasing it now would be a
            # use-after-free of the register.
            return
        self.core.prf.set_ready(uop.prd)
        completed_at = uop.complete_cycle if uop.complete_cycle is not None else cycle
        self.core.stats.deferred_broadcast_cycles += max(0, cycle - completed_at)

    # -- recovery ------------------------------------------------------------

    def on_checkpoint_restore(self, uop, checkpoint):
        pending = self._pending
        if self._sched:
            # Scheduled batches may hold squashed loads: fold everything
            # back and let the next wake rebuild against fresh gates.
            for _due, batch in self._sched:
                pending.extend(batch)
            self._sched.clear()
            pending.sort(key=lambda u: u.seq)
        self._stamp = None
        self._pending = [u for u in pending if not u.killed]

    def on_flush_all(self):
        """Full flush: the pipeline empties, so every surviving pending
        load is by definition bound-to-commit — release immediately so
        later consumers (renamed against the architectural RAT) do not
        wait forever on a broadcast that would otherwise never come."""
        pending = self._pending
        if self._sched:
            for _due, batch in self._sched:
                pending.extend(batch)
            self._sched.clear()
            pending.sort(key=lambda u: u.seq)
        self._stamp = None
        for uop in pending:
            if not uop.killed:
                self.core.prf.set_ready(uop.prd)
        self._pending = []

    def extra_stats(self):
        return {
            "nda_deferred": self.deferred,
            "nda_immediate": self.immediate,
        }


# -- timing-model contributions (Section 5) -------------------------------

#: Split data-write/broadcast mux in the LSU writeback path.
_LSU_MUX_PS = 150.0


def _stage_deltas(cfg):
    """Adds a small LSU mux; removes spec-hit logic from the bypass."""
    return {
        "lsu": _LSU_MUX_PS,
        "regread_bypass": -spec_hit_bypass_delay(cfg),
    }


def _area_ffs(cfg):
    """Delayed-broadcast state: per-LDQ flags + release queue."""
    tag = YROT_TAG_BITS
    return (
        cfg.ldq_entries * (tag + 2)
        # Completion metadata held until the broadcast is released
        # (Figure 5b's decoupled data-write / broadcast staging).
        + cfg.ldq_entries * 30
        + cfg.mem_width * 64
    )


def _area_luts(cfg):
    return (
        cfg.ldq_entries * 9             # release scan
        + cfg.mem_width * 120           # split write/broadcast mux
        - spec_hit_luts(cfg)            # removed replay logic
    )


def _power(stats):
    return E_BROADCAST * stats.deferred_broadcasts


register(SchemeSpec(
    name="nda",
    factory=NDAScheme,
    doc="NDA-Permissive (Section 5): delayed ready broadcasts for"
        " speculative loads; removes speculative L1-hit scheduling.",
    timing=SchemeTiming(
        stage_deltas=_stage_deltas,
        area_luts=_area_luts,
        area_ffs=_area_ffs,
        power=_power,
    ),
))

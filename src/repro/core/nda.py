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

The mechanism depends only on *whether* a load is speculative, never on
the loaded value, so it introduces no new leakage.
"""

from bisect import insort
from operator import attrgetter

from repro.core.plugin import SchemeBase
from repro.core.registry import SchemeSpec, SchemeTiming, register
from repro.timing.area import YROT_TAG_BITS, spec_hit_luts
from repro.timing.critpath import spec_hit_bypass_delay
from repro.timing.power import E_BROADCAST


class NDAScheme(SchemeBase):
    """Non-speculative Data Access (permissive mode)."""

    name = "nda"
    allows_spec_hit_wakeup = False
    delay_label = "nda-budget-block"

    def __init__(self):
        super().__init__()
        # Completed loads whose broadcast is withheld, kept seq-sorted.
        self._pending = []
        self.deferred = 0
        self.immediate = 0

    def attach(self, core):
        super().attach(core)
        self._pending = []

    # -- memory -----------------------------------------------------------

    def on_load_complete(self, uop, cycle):
        if self.core.is_load_safe(uop.seq):
            self.immediate += 1
            return True
        self._defer(uop)
        return False

    def _defer(self, uop):
        insort(self._pending, uop, key=attrgetter("seq"))
        self.deferred += 1
        self.core.stats.deferred_broadcasts += 1

    def delay_subcause(self, uop):
        """Observability probe: is a source's broadcast withheld?"""
        withheld = {u.prd for u in self._pending
                    if not u.killed and u.prd is not None}
        if withheld and (uop.prs1 in withheld or uop.prs2 in withheld):
            return self.delay_label
        return None

    # -- visibility phase ---------------------------------------------------

    def on_visibility_update(self, cycle):
        """Release broadcasts for loads now bound-to-commit.

        At most ``mem_width`` broadcasts per cycle (Section 5.1), in
        age order — matching the in-order advance of the visibility
        point over the ROB.  While a releasable load still waits on
        the budget, the next cycle is booked; otherwise the pending
        loads are inert until the next visibility or memory-dependence
        event and need no further calls.
        """
        if not self._pending:
            return
        core = self.core
        vp = core.vp_now
        d_pending = core.d_pending
        budget = core.config.mem_width
        waiting = []
        blocked = False
        for uop in self._pending:
            if uop.killed:
                continue
            if uop.seq <= vp and uop.seq not in d_pending:
                if budget:
                    budget -= 1
                    self._release(uop, cycle)
                    continue
                blocked = True
            waiting.append(uop)
        self._pending = waiting
        if blocked:
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
        self._pending = [u for u in self._pending if not u.killed]

    def on_flush_all(self):
        """Full flush: the pipeline empties, so every surviving pending
        load is by definition bound-to-commit — release immediately so
        later consumers (renamed against the architectural RAT) do not
        wait forever on a broadcast that would otherwise never come."""
        for uop in self._pending:
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

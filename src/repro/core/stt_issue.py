"""STT-Issue: taint tracking delayed to the issue stage (Section 4.3).

The paper's novel microarchitecture.  Taints live in a *taint unit*
indexed by **physical** register.  Nothing happens at rename except
clearing the freshly-allocated destination's entry (a physical register
is always overwritten before use, which is also why no taint
checkpoints are needed — Section 4.3's stale-entry argument).

At issue-select time the taint unit computes the micro-op's YRoT from
its physical source registers (Figure 4, step 2).  If the micro-op is a
transmitter and tainted, a nop is issued instead — the slot is wasted
(step 4) — and the YRoT is back-propagated to the issue-queue entry
(step 5), masking its ready signal until an untaint broadcast arrives.

Because the taint check happens at issue against the *live* visibility
point, an instruction whose root became safe this very cycle still
executes — the one-cycle advantage over STT-Rename's masked wakeup
(Section 9.1).  Stores taint their address and data operands
independently, so partial address generation usually proceeds
untainted (Section 9.2's advantage over the unified STT-Rename store).

The untaint *broadcast* (the delayed visibility-point copy used for
ready-masking) is STT-Rename's, from
:class:`~repro.core.stt.STTSchemeBase`.  Back-propagated YRoTs only
exist after a first nop-issue (Figure 4, step 5), so delay attribution
engages from that point.
"""

from repro.core.registry import SchemeSpec, SchemeTiming, register
from repro.core.stt import STTSchemeBase
from repro.pipeline.uop import ADDR, DATA, WHOLE
from repro.timing.area import YROT_TAG_BITS
from repro.timing.power import E_BROADCAST

import math


class STTIssueScheme(STTSchemeBase):
    """Speculative Taint Tracking with issue-time taint computation."""

    name = "stt-issue"

    def __init__(self):
        super().__init__()
        self._taint_unit = []
        self.nops_issued = 0

    def attach(self, core):
        super().attach(core)
        self._taint_unit = [None] * core.config.num_phys_regs

    # -- rename ---------------------------------------------------------

    def on_rename_group(self, uops):
        """Group rename: clear the group's freshly-allocated entries.

        Allocation overwrites any stale taint before the register can
        be read again — the property that makes checkpoints
        unnecessary (Section 4.3).  Order within the group is
        irrelevant: the free list hands each destination out once.
        """
        taint_unit = self._taint_unit
        for uop in uops:
            prd = uop.prd
            if prd is not None:
                taint_unit[prd] = None

    # -- issue -------------------------------------------------------------

    def _live_root(self, preg):
        root = self._taint_unit[preg]
        if root is None:
            return None
        if root <= self.core.vp_now and root not in self.core.d_pending:
            self._taint_unit[preg] = None
            return None
        return root

    def _yrot_for_half(self, uop, half):
        if half == ADDR or (uop.is_load and half == WHOLE):
            pregs = (uop.prs1,)
        elif half == DATA:
            pregs = (uop.prs2,)
        else:
            pregs = (uop.prs1, uop.prs2)
        roots = [self._live_root(p) for p in pregs if p is not None]
        live = [r for r in roots if r is not None]
        return max(live) if live else None

    def blocks_issue(self, uop, half):
        """Ready-mask from a back-propagated YRoT (Figure 4, step 5)."""
        if uop.is_store:
            root = uop.yrot_addr if half == ADDR else uop.yrot_data
        else:
            root = uop.yrot
        if root is None:
            return False
        return root > self._broadcast_vp or root in self.core.d_pending

    def on_issue(self, uop, half, cycle):
        vp_now = self.core.vp_now

        if uop.is_store and half == DATA:
            # Latching store data is unobservable: never blocked.  Its
            # taint reaches consumers via the forwarding load's own
            # taint (the forwarding load is necessarily speculative).
            return True

        yrot = self._yrot_for_half(uop, half)

        yrot_unsafe = yrot is not None and (
            yrot > vp_now or yrot in self.core.d_pending
        )
        if uop.is_transmitter and yrot_unsafe:
            # Tainted transmitter: issue a nop, waste the slot, and
            # back-propagate the YRoT to mask the entry's ready signal.
            if uop.is_store:
                uop.yrot_addr = yrot
            else:
                uop.yrot = yrot
            self.nops_issued += 1
            return False

        if uop.writes_reg and (half == WHOLE or uop.is_load):
            if uop.is_load:
                speculative = uop.seq > vp_now
                dest_root = uop.seq if speculative else None
                if speculative:
                    self.loads_tainted += 1
            else:
                dest_root = yrot
            self._taint_unit[uop.prd] = dest_root
            if dest_root is not None:
                self.taints_applied += 1
        return True

    def on_flush_all(self):
        self._taint_unit = [None] * self.core.config.num_phys_regs

    def extra_stats(self):
        return {**super().extra_stats(), "stt_issue_nops": self.nops_issued}


# -- timing-model contributions (Section 4.3, Figure 4) -------------------

# Issue-path additions: taint unit + YRoT broadcast.
_TAINT_FLAT = 504.0
_TAINT_PER_ENTRY = 131.0
#: Each memory pipe is an extra untaint-broadcast source the taint
#: unit must arbitrate (bites only on the two-port Mega).
_TAINT_PER_MEM_PORT = 800.0
#: Taint-unit CAM access energy, charged on *every* issue.
_E_TAINT_LOOKUP = 0.10


def _stage_deltas(cfg):
    """The taint unit sits on the timing-sensitive issue path."""
    return {
        "issue": (
            _TAINT_FLAT
            + _TAINT_PER_ENTRY * cfg.iq_entries
            + _TAINT_PER_MEM_PORT * (cfg.mem_width - 1)
            + 20.0 * math.log2(max(2, cfg.num_phys_regs))
        ),
    }


def _area_ffs(cfg):
    """Physical-register taint table (no checkpoints)."""
    tag = YROT_TAG_BITS
    return (
        cfg.num_phys_regs * (tag + 1)   # table + valid bits
        + cfg.iq_entries * (tag + 2)    # YRoT field + ready mask
        + cfg.issue_width * 90          # taint-unit pipeline regs
    )


def _area_luts(cfg):
    return (
        cfg.issue_width * 2 * 50        # taint-unit comparators
        + cfg.num_phys_regs * 3         # table read/update muxing
        + cfg.iq_entries * 9            # broadcast compare
        + cfg.width * 40                # nop conversion / gating
    )


def _power(stats):
    """A CAM lookup per issue (useful or wasted) plus broadcasts."""
    issued = stats.committed_instructions + stats.wasted_issue_slots
    return _E_TAINT_LOOKUP * issued + E_BROADCAST * stats.committed_loads


register(SchemeSpec(
    name="stt-issue",
    factory=STTIssueScheme,
    doc="Speculative Taint Tracking, taints computed at issue"
        " (Section 4.3, the paper's novel design); flat taint-unit"
        " cost on the issue path.",
    timing=SchemeTiming(
        stage_deltas=_stage_deltas,
        area_luts=_area_luts,
        area_ffs=_area_ffs,
        power=_power,
    ),
))

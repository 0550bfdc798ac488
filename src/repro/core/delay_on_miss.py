"""Delay-on-miss: defer broadcasts only for L1-missing loads.

A selective-delay variant in the style of Sakalis et al.'s
*Efficient Invisible Speculative Execution through Selective Delay and
Value Prediction* (ISCA 2019): speculative loads that **hit** in the L1
(or forward from the store queue) broadcast immediately — on-core
effects are considered invisible — while loads that **miss** get NDA's
treatment, their ready broadcast withheld until bound-to-commit.

Relative to NDA-Permissive this recovers most of the IPC loss on
miss-light workloads (the common case: hits broadcast at full speed)
at the cost of a weaker guarantee: the hit/miss *timing* of a
speculative access remains observable, so it blocks data leakage
through dependents of missing loads but not cache-occupancy channels.
The paper's threat-model discussion is exactly about this trade; the
variant exists to place that point on the same grid.

Mechanically this is NDA with one extra gate: the LSU records whether
a load's access missed the L1 (``uop.l1_miss``, set at address
generation), and :meth:`~DelayOnMissScheme.on_load_complete` lets
non-misses through.  Everything else — the seq-ordered pending queue,
the ``mem_width`` release budget, the event-scheduled release wakes —
is inherited from :class:`~repro.core.nda.NDAScheme`.  Speculative
L1-hit wakeups stay disabled like NDA's: a missing load must never
wake consumers early, and the removed kill/replay network is the same
timing/area credit.
"""

from repro.core.nda import NDAScheme, _power
from repro.core.registry import SchemeSpec, SchemeTiming, register
from repro.timing.area import YROT_TAG_BITS, spec_hit_luts
from repro.timing.critpath import spec_hit_bypass_delay


class DelayOnMissScheme(NDAScheme):
    """NDA's delayed broadcast, applied only to L1-missing loads."""

    name = "delay-on-miss"
    delay_label = "delay-on-miss-defer"

    def on_load_complete(self, uop, cycle):
        if not uop.l1_miss or self.core.is_load_safe(uop.seq):
            self.immediate += 1
            return True
        self._defer(uop)
        return False

    def extra_stats(self):
        return {
            "dom_deferred": self.deferred,
            "dom_immediate": self.immediate,
        }


# -- timing-model contributions -------------------------------------------

#: NDA's split write/broadcast mux plus the hit/miss gate.
_LSU_MUX_PS = 180.0


def _stage_deltas(cfg):
    return {
        "lsu": _LSU_MUX_PS,
        "regread_bypass": -spec_hit_bypass_delay(cfg),
    }


def _area_ffs(cfg):
    # Staging only for misses: the release queue is provisioned for the
    # outstanding-miss window rather than the whole LDQ.
    tag = YROT_TAG_BITS
    return (
        cfg.ldq_entries * (tag + 2)
        + cfg.ldq_entries * 16
        + cfg.mem_width * 64
    )


def _area_luts(cfg):
    return (
        cfg.ldq_entries * 9             # release scan
        + cfg.mem_width * 140           # split mux + hit/miss gate
        - spec_hit_luts(cfg)            # removed replay logic
    )


register(SchemeSpec(
    name="delay-on-miss",
    factory=DelayOnMissScheme,
    doc="Selective delay (Sakalis et al. style): only L1-missing"
        " speculative loads defer their broadcast; hits run at full"
        " speed.",
    timing=SchemeTiming(
        stage_deltas=_stage_deltas,
        area_luts=_area_luts,
        area_ffs=_area_ffs,
        power=_power,
    ),
))

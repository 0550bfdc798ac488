"""What STT-Rename and STT-Issue share: the untaint broadcast.

The two designs differ only in *where* taints are computed — the
rename-time taint RAT of Sections 4.1/4.2 against the issue-time taint
unit of Section 4.3.  Both then mask a tainted transmitter's ready
signal until an untaint broadcast says its root is bound-to-commit,
and that broadcast reaches the issue queue one cycle after the
visibility point moves (the scheme keeps a one-cycle-delayed copy of
the visibility point for ready-masking).

The delay line is *event-scheduled*: the core invokes
:meth:`~STTSchemeBase.on_visibility_update` when the visibility point
changes, and the scheme books exactly one catch-up wake for the
following cycle while the broadcast still lags — stable cycles cost
nothing and never block idle-cycle fast-forward.

:class:`STTSchemeBase` registers no scheme.  Each design keeps its
``blocks_issue`` inline, since select calls it once per examined
issue-queue entry.
"""

from repro.core.plugin import SchemeBase
from repro.pipeline.uop import ADDR, DATA, WHOLE


class STTSchemeBase(SchemeBase):
    """Untaint broadcast, delay attribution and taint counters."""

    delay_label = "stt-taint-not-cleared"

    def __init__(self):
        super().__init__()
        # Visibility point as last *broadcast* to the issue queue: lags
        # the live value by one cycle.  Roots are sequence numbers, so
        # -1 means "no untaint broadcast seen yet".
        self._broadcast_vp = -1
        self._prev_vp = -1
        self.taints_applied = 0
        self.loads_tainted = 0

    def attach(self, core):
        super().attach(core)
        self._broadcast_vp = -1
        self._prev_vp = -1

    def delay_subcause(self, uop):
        if uop.op_is_store:
            if not uop.addr_issued and self.blocks_issue(uop, ADDR):
                return self.delay_label
            if not uop.data_issued and self.blocks_issue(uop, DATA):
                return self.delay_label
            return None
        return self.delay_label if self.blocks_issue(uop, WHOLE) else None

    def on_visibility_update(self, cycle):
        # Promote last cycle's visibility point to "broadcast" status:
        # the issue queue observes untaints one cycle after resolution.
        # Invoked when the visibility point moves; while the broadcast
        # still lags, one catch-up wake keeps the delay line ticking —
        # the cycle after that, state is stable and needs no calls.
        self._broadcast_vp = self._prev_vp
        vp = self.core.vp_now
        self._prev_vp = vp
        if self._broadcast_vp != vp:
            self.core.schedule_scheme_wake(cycle + 1)

    def extra_stats(self):
        return {
            "taints_applied": self.taints_applied,
            "loads_tainted": self.loads_tainted,
        }

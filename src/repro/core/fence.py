"""Fence: the conservative delay-all baseline.

The bluntest point in the defense space (the hardware analogue of
compiling with a fence after every branch): *every* transmitter — load,
store address generation, branch, indirect jump — is held in the issue
queue until it is bound-to-commit, i.e. until no older speculation
shadow is active.  No taint tracking, no delayed broadcasts; just a
sequence-number comparison against the live visibility point in the
ready mask.  Store *data* latching stays unobservable and is never
blocked, matching the other schemes.

The scheme exists for scenario diversity: it brackets the paper's
designs from below (STT and NDA recover most of the IPC this scheme
gives up) while costing almost nothing in timing, area, or power —
which is exactly the trade the paper's Figure 1 performance story is
about.  It is also the smallest complete example of adding a scheme
through the registry: one strategy class, one ``register`` call, all
in this file (plus a line in
:data:`repro.core.registry.SCHEME_MODULES`).

Implementation notes: the scheme keeps *no* per-cycle state — it never
overrides the visibility hook, so it schedules no wakes, and idle-cycle
fast-forward is never vetoed on its account.  Blocking is purely the
``blocks_issue`` ready mask, evaluated against the live visibility
point.  Progress is guaranteed because the oldest unresolved shadow's
caster is always safe with respect to its own shadow: branches resolve
in age order, advancing the visibility point past the blocked
transmitters behind them.
"""

from repro.core.plugin import SchemeBase
from repro.core.registry import KwargSpec, SchemeSpec, SchemeTiming, register
from repro.pipeline.uop import ADDR, DATA, WHOLE


class FenceScheme(SchemeBase):
    """Delay every transmitter until it is bound-to-commit.

    With ``loads_only=True`` the fence narrows to loads: store address
    generation, branches, and indirect jumps issue freely, and only
    load execution waits for bound-to-commit.  This is the conservative
    point for a Spectre-v1-only threat model (the universal gadget's
    transmitter is the dependent *load*), trading back much of the IPC
    the full fence gives up while still closing the cache-load channel.
    """

    name = "fence"

    #: Class default; an instance constructed with ``loads_only=True``
    #: shadows it and swaps in the narrowed ready mask below (keeping
    #: the full-fence hot path free of any per-call mode check —
    #: ``blocks_issue`` runs once per blocked ready entry per cycle).
    loads_only = False
    delay_label = "fence-bound-to-commit"

    def __init__(self, loads_only=False):
        super().__init__()
        if loads_only:
            self.loads_only = True
            self.blocks_issue = self._blocks_issue_loads_only

    def blocks_issue(self, uop, half):
        if not uop.is_transmitter:
            return False
        if uop.op_is_store and half == DATA:
            return False  # latching store data is unobservable
        core = self.core
        seq = uop.seq
        return seq > core.vp_now or seq in core.d_pending

    def delay_subcause(self, uop):
        # self.blocks_issue resolves the loads_only instance swap.
        if uop.op_is_store:
            if uop.addr_issued or not self.blocks_issue(uop, ADDR):
                return None  # the data half is never fence-blocked
            return self.delay_label
        return self.delay_label if self.blocks_issue(uop, WHOLE) else None

    def _blocks_issue_loads_only(self, uop, half):
        """Spectre-v1-only point: fence loads alone; everything else
        (store address generation, branches, jumps) issues freely."""
        if not uop.op_is_load:
            return False
        core = self.core
        seq = uop.seq
        return seq > core.vp_now or seq in core.d_pending


# -- timing-model contributions -------------------------------------------

#: One sequence comparator against the broadcast visibility point per
#: issue-queue entry, plus transmitter gating per select port.
_ISSUE_FLAT_PS = 120.0
_ISSUE_PER_ENTRY_PS = 3.0
#: Energy per blocked (re-examined) ready entry.
_E_BLOCKED = 0.02


def _stage_deltas(cfg):
    return {"issue": _ISSUE_FLAT_PS + _ISSUE_PER_ENTRY_PS * cfg.iq_entries}


def _area_ffs(cfg):
    # A "safe" latch per issue-queue entry.
    return cfg.iq_entries * 2.0


def _area_luts(cfg):
    # Sequence comparator per entry + per-slot gating.
    return cfg.iq_entries * 6.0 + cfg.width * 25.0


def _power(stats):
    return _E_BLOCKED * stats.taint_blocked_issues


register(SchemeSpec(
    name="fence",
    factory=FenceScheme,
    doc="Conservative delay-all baseline: every transmitter waits"
        " until bound-to-commit (fence-after-every-branch analogue).",
    kwargs={
        "loads_only": KwargSpec(
            bool, False,
            "Fence only loads (Spectre-v1-only conservative point):"
            " stores, branches, and jumps issue freely.",
        ),
    },
    timing=SchemeTiming(
        stage_deltas=_stage_deltas,
        area_luts=_area_luts,
        area_ffs=_area_ffs,
        power=_power,
    ),
))

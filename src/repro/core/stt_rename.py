"""STT-Rename: taint tracking during register renaming (Section 4.1/4.2).

Taints live in a *taint RAT* indexed by architectural register.  A
micro-op's YRoT (youngest root of taint) is the youngest root among its
source registers' taints; renaming a group computes YRoTs strictly in
program order so same-cycle dependencies chain through the group — the
serial dependency chain of Figure 3, whose single-cycle requirement is
what costs STT-Rename timing on wide cores (the registered
``stage_deltas`` charge for that chain; this module models its
*behaviour*).

Untainting is a broadcast: when the visibility point advances past a
root, issue-queue entries observe it one cycle later (the scheme keeps
a one-cycle-delayed copy of the visibility point for ready-masking).
This is the one-cycle disadvantage versus STT-Issue of Section 9.1.
The delay line is *event-scheduled*: the core invokes
:meth:`~STTRenameScheme.on_visibility_update` when the visibility
point changes, and the scheme books exactly one catch-up wake for the
following cycle while the broadcast still lags — stable cycles cost
nothing and never block idle-cycle fast-forward.

Checkpointing (Section 4.2): every branch checkpoint carries a copy of
the taint RAT.  Restored entries may be stale — roots may have become
non-speculative since the checkpoint — which the hardware handles with
a validity sweep; the model gets the same effect by re-validating
roots against the live visibility point on every read.

The ``split_store_taints`` flag enables the Section 9.2 optimisation:
two taints per store (address and data operand) so that address
generation is not blocked by a tainted data operand.
"""

from repro.core.plugin import SchemeBase
from repro.core.registry import KwargSpec, SchemeSpec, SchemeTiming, register
from repro.isa.registers import NUM_ARCH_REGS
from repro.pipeline.uop import ADDR, DATA, WHOLE
from repro.timing.area import YROT_TAG_BITS
from repro.timing.power import E_BROADCAST


class STTRenameScheme(SchemeBase):
    """Speculative Taint Tracking with rename-time taint computation."""

    name = "stt-rename"
    allows_spec_hit_wakeup = True
    uses_taint_checkpoints = True
    delay_label = "stt-taint-not-cleared"

    def __init__(self, split_store_taints=False):
        super().__init__()
        self.split_store_taints = split_store_taints
        self._taint_rat = [None] * NUM_ARCH_REGS
        # Visibility point as last *broadcast* to the issue queue: lags
        # the live value by one cycle.  Roots are sequence numbers, so
        # -1 means "no untaint broadcast seen yet".
        self._broadcast_vp = -1
        self._prev_vp = -1
        self.taints_applied = 0
        self.loads_tainted = 0

    def attach(self, core):
        super().attach(core)
        self._taint_rat = [None] * NUM_ARCH_REGS
        self._broadcast_vp = -1
        self._prev_vp = -1

    # -- taint reads ------------------------------------------------------

    def _live_root(self, arch_reg):
        """Current taint root of an architectural register, or None.

        Roots that have become non-speculative self-invalidate (the
        RTL's checkpoint-restore validity sweep, expressed as a
        read-time check against the live visibility point).
        """
        root = self._taint_rat[arch_reg]
        if root is None:
            return None
        if root <= self.core.vp_now and root not in self.core.d_pending:
            self._taint_rat[arch_reg] = None
            return None
        return root

    @staticmethod
    def _youngest(roots):
        live = [r for r in roots if r is not None]
        return max(live) if live else None

    # -- rename hooks --------------------------------------------------------

    def on_rename_group(self, uops):
        """Group-rename taint computation: one pass over the taint RAT.

        The paper's Section 4.2 structure made explicit: YRoTs for a
        whole fetch group are computed in a single in-order sweep —
        younger members observe older members' taint writes through the
        shared taint RAT (Figure 3's serial chain), and each branch's
        checkpoint copies the taint RAT exactly mid-sweep, after older
        members' writes and before younger ones.  One dispatch and one
        set of hoisted lookups serve the whole group.
        """
        core = self.core
        taint_rat = self._taint_rat
        vp_now = core.vp_now
        d_pending = core.d_pending
        rename = core.rename
        shadows_vp = core.shadows.visibility_point()
        youngest = self._youngest
        for uop in uops:
            checkpoint_id = uop.checkpoint_id
            if checkpoint_id is not None:
                rename.get_checkpoint(checkpoint_id).scheme_state = (
                    list(taint_rat))
            instr = uop.instr
            if instr.is_store:
                uop.yrot_addr = self._youngest(
                    self._live_root(r) for r in instr.address_source_regs
                )
                uop.yrot_data = self._youngest(
                    self._live_root(r) for r in instr.data_source_regs
                )
                # Unified micro-op taint covering both operands
                # (Section 9.2).
                uop.yrot = youngest((uop.yrot_addr, uop.yrot_data))
                continue

            # Inlined _live_root over the sources (hot path): a root is
            # live unless it became bound-to-commit, in which case it
            # self-invalidates, exactly like the single-uop read.
            yrot = None
            for reg in instr.source_regs:
                root = taint_rat[reg]
                if root is None:
                    continue
                if root <= vp_now and root not in d_pending:
                    taint_rat[reg] = None
                    continue
                if yrot is None or root > yrot:
                    yrot = root
            uop.yrot = yrot

            if uop.writes_reg:
                if instr.is_load:
                    seq = uop.seq
                    speculative = not (shadows_vp is None
                                      or seq <= shadows_vp)
                    dest_root = seq if speculative else None
                    if speculative:
                        self.loads_tainted += 1
                else:
                    dest_root = yrot
                taint_rat[instr.rd] = dest_root
                if dest_root is not None:
                    self.taints_applied += 1

    # -- checkpoints --------------------------------------------------------

    def on_checkpoint_restore(self, uop, checkpoint):
        self._taint_rat = list(checkpoint.scheme_state)

    def on_flush_all(self):
        self._taint_rat = [None] * NUM_ARCH_REGS

    # -- issue-side blocking --------------------------------------------------

    def blocks_issue(self, uop, half):
        if not uop.is_transmitter:
            return False
        if uop.is_store:
            if self.split_store_taints:
                # Split taints: only address generation is observable.
                root = uop.yrot_addr if half == ADDR else None
            else:
                root = uop.yrot
        else:
            root = uop.yrot
        if root is None:
            return False
        return root > self._broadcast_vp or root in self.core.d_pending

    def delay_subcause(self, uop):
        if uop.op_is_store:
            if not uop.addr_issued and self.blocks_issue(uop, ADDR):
                return self.delay_label
            if not uop.data_issued and self.blocks_issue(uop, DATA):
                return self.delay_label
            return None
        return self.delay_label if self.blocks_issue(uop, WHOLE) else None

    # -- visibility phase ---------------------------------------------------

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


# -- timing-model contributions (Sections 4.1/4.2, Figure 3) -------------

# Rename-path additions: serial YRoT comparator+mux chain.
_CHAIN_FLAT = 1500.0   # taint-RAT access
_CHAIN_LINK = 1268.0   # serial comparator+mux per older slot
_CHAIN_PORT = 520.0    # port/wiring growth, quadratic in chain length
# Untaint broadcast loading on every issue slot.
_BCAST_FLAT = 300.0
_BCAST_PER_ENTRY = 30.0
# Per-event energies.
_E_TAINT_RENAME = 0.05   # taint RAT read/write per rename
_E_CHECKPOINT = 0.3      # taint-RAT checkpoint copy per branch


def _stage_deltas(cfg):
    """Serial YRoT chain in rename; broadcast loading in issue."""
    links = cfg.width - 1
    return {
        "rename": _CHAIN_FLAT + _CHAIN_LINK * links + _CHAIN_PORT * links * links,
        "issue": _BCAST_FLAT + _BCAST_PER_ENTRY * cfg.iq_entries,
    }


def _area_ffs(cfg):
    """Taint RAT + a full copy per checkpoint (the FF surplus)."""
    tag = YROT_TAG_BITS
    return (
        32 * tag                       # taint RAT
        + cfg.max_branches * 32 * tag  # taint-RAT checkpoints
        + cfg.iq_entries * tag         # YRoT field per entry
    )


def _area_luts(cfg):
    """Serial chain comparators/muxes + broadcast compare + gating."""
    return (
        cfg.width * (cfg.width + 1) * 30  # chain comparators/muxes
        + 32 * 7                          # taint-RAT read/update
        + cfg.iq_entries * 9              # broadcast compare
        + cfg.width * 40                  # transmitter gating
    )


def _power(stats):
    """Every rename touches the taint RAT; every branch copies it."""
    return (
        _E_TAINT_RENAME * stats.fetched_instructions
        + _E_CHECKPOINT * stats.committed_branches
        + E_BROADCAST * stats.committed_loads
    )


register(SchemeSpec(
    name="stt-rename",
    factory=STTRenameScheme,
    doc="Speculative Taint Tracking, taints computed at rename"
        " (Section 4.1); serial YRoT chain costs timing on wide cores.",
    kwargs={
        "split_store_taints": KwargSpec(
            bool, False,
            "Two taints per store (address/data) so address generation"
            " is not blocked by tainted data (Section 9.2).",
        ),
    },
    timing=SchemeTiming(
        stage_deltas=_stage_deltas,
        area_luts=_area_luts,
        area_ffs=_area_ffs,
        power=_power,
    ),
    ipc_anchor=0.89,
))

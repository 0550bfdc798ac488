"""Secure-speculation scheme plugin interface and the unsafe baseline.

A scheme is a strategy object attached to one
:class:`~repro.pipeline.core.OoOCore`.  The core calls the hooks below
at fixed pipeline points; each of the paper's microarchitectures is
expressed purely through these hooks, so the substrate stays identical
across schemes — mirroring how the RTL designs modify a common BOOM.

Hook call sites (in per-cycle order):

* ``on_visibility_update`` — the visibility phase (after writeback,
  before issue), *event-scheduled*: the core invokes it only when the
  phase-3 visibility point changed since the scheme last saw it, when a
  memory-dependence speculation resolved (``d_pending`` shrank), or
  when the scheme booked the cycle itself via
  ``core.schedule_scheme_wake(cycle)``.  Untaint broadcasts and NDA's
  delayed broadcasts are released here; a scheme that needs the next
  cycle too (budgeted release queues, the STT one-cycle broadcast lag)
  schedules a wake before returning.  Idle-cycle fast-forward is gated
  on the same three triggers, so "no pending scheme wake" *is* the
  quiescence condition — there is no polled ``ff_quiescent`` any more.
* ``blocks_issue`` — during select, per issue-queue entry (and per
  store half): a True return masks the entry's ready signal.
* ``on_issue`` — when an entry wins selection; returning False turns
  the slot into a wasted nop (STT-Issue's tainted-transmitter replay).
* ``on_load_complete`` — when load data arrives; returning False defers
  the ready broadcast (NDA's split data-write / broadcast).
* ``on_rename_group`` — once per renamed fetch group, after the RAT
  pass and downstream admission; the scheme's only rename-time hook.
  An override walks the group in program order, so older members'
  effects (taint-RAT writes, say) are visible to younger members, and
  sees each branch's freshly allocated checkpoint through
  ``uop.checkpoint_id`` (STT-Rename copies its taint RAT into it
  there).
* ``on_checkpoint_restore`` / ``on_flush_all`` — recovery lifecycle.
"""

from repro.core.registry import SchemeSpec, register


def overridden_hook(scheme, name):
    """Bound hook method if ``scheme`` overrides it, else ``None``.

    The pipeline's hot paths (issue select, rename, load completion,
    the visibility phase) resolve their hooks through this once at
    construction: a scheme that keeps a default (no-op / permissive)
    implementation costs zero calls per micro-op instead of one dynamic
    dispatch each.
    """
    if getattr(type(scheme), name) is getattr(SchemeBase, name):
        return None
    return getattr(scheme, name)


class SchemeBase:
    """Default (permissive) implementations of every hook."""

    #: Scheme identifier used in reports.
    name = "baseline"
    #: Whether loads may speculatively wake consumers assuming an L1
    #: hit (NDA removes this logic; Section 5.1).
    allows_spec_hit_wakeup = True
    #: Attribution label for cycles/issues this scheme delays (see
    #: :mod:`repro.obs`); ``None`` for schemes that never delay.
    delay_label = None

    def __init__(self):
        self.core = None

    def attach(self, core):
        """Bind to a core.  Called once before simulation starts."""
        self.core = core

    # -- rename ---------------------------------------------------------

    def on_rename_group(self, uops):
        """One renamed fetch group, in program order.  Default: no-op.

        A branch/jalr member that allocated a rename checkpoint this
        group carries its id in ``uop.checkpoint_id``
        (``self.core.rename.get_checkpoint(id)`` returns it), so an
        override can attach scheme state to it mid-group.  A scheme
        that keeps this default costs no call per group.
        """

    def on_checkpoint_restore(self, uop, checkpoint):
        """Misprediction recovery restored ``checkpoint``."""

    def on_flush_all(self):
        """Full pipeline flush (ordering violation at the ROB head)."""

    # -- issue ------------------------------------------------------------

    def blocks_issue(self, uop, half):
        """Mask the ready signal of ``uop`` (or a store half) if True."""
        return False

    def delay_subcause(self, uop):
        """Cycle-accounting probe: why this un-issued ROB-head uop is
        being withheld by the scheme, or ``None`` if it is not.

        Called only by the observability layer (never on the disabled
        path), for a not-yet-issued uop (or a store with an un-issued
        half).  Implementations must be read-only and should return
        :attr:`delay_label` exactly when the scheme is currently
        masking the uop's (remaining) issue.
        """
        return None

    def on_issue(self, uop, half, cycle):
        """Entry won selection.  Return False to waste the slot (nop)."""
        return True

    # -- memory -----------------------------------------------------------

    def on_load_complete(self, uop, cycle):
        """Load data arrived.  Return True to broadcast ready now."""
        return True

    # -- visibility phase ---------------------------------------------------

    def on_visibility_update(self, cycle):
        """Visibility phase, invoked on the triggers documented above.

        Overriders must uphold the event contract: any state that would
        have to advance on the *next* cycle as well (a budget-limited
        release queue, a broadcast delay line still lagging) must be
        booked with ``self.core.schedule_scheme_wake(cycle + 1)`` —
        un-booked cycles are skipped, both by the dispatcher and by the
        idle-cycle fast-forward.
        """

    def extra_stats(self):
        """Scheme-specific counters merged into the run statistics."""
        return {}


class BaselineScheme(SchemeBase):
    """The unsafe baseline: an unmodified out-of-order core.

    Vulnerable to Spectre-style speculative side channels by
    construction — the attack tests assert exactly that.
    """


register(SchemeSpec(
    name="baseline",
    factory=BaselineScheme,
    doc="Unsafe out-of-order baseline: no speculation defense.",
))

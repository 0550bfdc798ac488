"""Cycle-attribution observability: where every pipeline slot went.

Two sinks, both strictly opt-in and zero-cost when disabled — the
core takes observability sinks at construction and devirtualises them
exactly like the scheme hooks (``None`` = no-op, never called):

* :class:`~repro.obs.account.CycleAccount` — top-down cycle
  accounting.  Every commit slot of every cycle is attributed to
  exactly one cause: a committed instruction, or one leaf stall
  cause.  The conservation property (``sum(leaf slots) +
  committed_instructions == width x cycles``) is tested and is the
  contract every consumer may rely on.  Campaign cells always carry
  one; ``python -m repro metrics`` reads the persisted accounts.
* :class:`~repro.obs.pipeview.PipeTracer` — per-uop pipeline event
  traces in gem5 O3PipeView format, viewable in Konata
  (``python -m repro pipeview``).

Attribution taxonomy
--------------------

Classification runs once per non-full commit cycle, top-down at the
commit boundary (after the commit phase, before the younger pipeline
phases), and charges all ``width - committed`` idle slots of that
cycle to a single leaf:

``flush_recovery``
    An ordering-violation flush fired this cycle; the machine spends
    the slot refilling from the flush point.
``drained``
    The halting cycle's leftover slots (HALT committed this cycle).
``rename_blocked_rob / _iq / _ldq / _stq / _preg / _ckpt``
    The ROB has work in flight, the front end presents a visible
    instruction, but rename cannot accept it: the named back-end
    resource (ROB / issue-queue / load-queue / store-queue entries,
    physical registers, branch checkpoints) is exhausted.
``scheme_delayed``
    The active secure-speculation scheme is the proximate cause of the
    idle slots, in either of two shapes.  *Direct*: the un-issued ROB
    head (or un-issued store half at the head) is being withheld by
    the scheme.  *Back-pressure*: rename is blocked on an exhausted
    back-end resource while the scheme withholds the oldest unissued
    issue-queue entry — resolution-released schemes rarely stall the
    head itself (a blocked uop implies an older unresolved caster
    still ahead of it in the ROB), so their cost surfaces as withheld
    work piling up until the issue queue (fence) or physical register
    file (STT, NDA) exhausts.  Only the oldest unissued entry is
    consulted, so transitive chains (an operand wait on a
    scheme-blocked producer) stay with the generic resource leaf.
    Broken down per scheme under
    ``cycacct.scheme.<sub-cause>``: ``stt-taint-not-cleared`` (STT
    variants: a source taint's YRoT has not cleared the visibility
    point), ``nda-budget-block`` (NDA: a source register's ready
    broadcast is withheld), ``delay-on-miss-defer`` (a deferred
    missing load gates the head), ``fence-bound-to-commit`` (the
    head transmitter waits to become bound-to-commit).
``waiting_operands``
    The un-issued ROB head is waiting for source operands (no scheme
    involvement).
``waiting_memory``
    The ROB head is a load in flight in the memory system, or a store
    with both halves issued awaiting completion.
``waiting_execute``
    The ROB head (non-memory) has issued and is executing, or is
    ready and contending for an issue slot.
``pipeline_fill``
    The ROB is empty but rename will dispatch this cycle — the window
    is refilling through the front end.
``frontend_redirect``
    Nothing visible to rename: fetch is stalled on a squash/flush
    redirect (branch mispredict recovery).
``frontend_empty``
    Nothing visible to rename for any other front-end reason
    (fetch-to-rename transit, fetch ran dry).

Precedence is the order above within each group: flush/drain first,
then rename back-pressure (with the scheme back-pressure probe
consulted before the generic resource leaf), then ROB-head drill-down
(scheme delay is checked before generic operand waits, so scheme cost
is never under-attributed), then the empty-ROB front-end causes.

Idle-cycle fast-forward windows are attributed by classifying once at
the window start — legal because fast-forward only engages when every
phase (and therefore the classification) is provably constant across
the window; a dedicated test pins fast-forward accounting against
pure stepping.

All counters ride ``SimStats.extra`` under the ``cycacct.`` namespace
(leaves, ``cycacct.scheme.<sub>``, per-label issue-block counts under
``cycacct.issue_blocks.``, and summed per-cycle occupancies under
``cycacct.occ.``), so they flow through the existing result store and
cluster wire without new schema.

What the core pays
------------------

The core makes three kinds of call into a ``CycleAccount``, and no
other: ``note_cycle`` once per stepped cycle (after commit),
``note_skip`` once per fast-forwarded window, and ``note_flush`` per
ordering-violation flush.  The cost therefore scales with stepped
cycles, not with issue events:

* the occupancy integrals (``cycacct.occ.rob/iq/ldq/stq``) are the
  structures' lengths read inline by those sinks, weighted by the
  window length for a skipped window; ``cycacct.occ.pregs`` is derived
  at the end as ``num_phys_regs x cycles`` minus the summed free-list
  length;
* ``cycacct.issue_blocks.<label>`` is ``SimStats.taint_blocked_issues``
  under the scheme's one delay label (``scheme`` when it has none):
  every block the issue stage charges is that scheme's, so the count
  is read off the statistics instead of being reported per event;
* classification runs once per stepped cycle with an idle commit
  slot, and once per skipped window.
"""

from repro.obs.account import CycleAccount, LEAF_CAUSES
from repro.obs.pipeview import PipeTracer, trace_pipeline

__all__ = [
    "CycleAccount",
    "LEAF_CAUSES",
    "PipeTracer",
    "trace_pipeline",
]

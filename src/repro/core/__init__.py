"""The paper's primary contribution: in-core secure speculation schemes.

This package is a *speculation-scheme engine*: pluggable strategies
over the out-of-order substrate in :mod:`repro.pipeline`, described by
a self-describing registry and driven by the kernel's event machinery.

Scheme contract (see :class:`~repro.core.plugin.SchemeBase` for the
full hook list):

* **Issue-side policy** — ``blocks_issue`` masks ready signals,
  ``on_issue`` may waste the slot (nop), ``on_load_complete`` may
  withhold a ready broadcast.
* **Event-scheduled releases** — there is no per-cycle polling.  The
  visibility hook (``on_visibility_update``) runs only when the
  visibility point moved, a memory-dependence speculation resolved, or
  the scheme booked the cycle via
  ``core.schedule_scheme_wake(cycle)``; schemes with multi-cycle
  behaviour (NDA's budgeted release queue, STT's one-cycle broadcast
  lag) book exactly the cycles they need.  "No booked wake" is also
  the kernel's fast-forward quiescence condition, so idle windows skip
  in O(1) regardless of the active scheme.
* **Self-description** — every scheme registers a
  :class:`~repro.core.registry.SchemeSpec`: canonical name, kwargs
  schema, grid membership, doc line, and timing-model parameters
  (critical-path stage deltas, LUT/FF area contributions, power
  terms).  ``SCHEME_NAMES``, the experiment tables, the CLI choices,
  and the :mod:`repro.timing` models all derive from the registry —
  adding a scheme is one module plus one line in
  :data:`~repro.core.registry.SCHEME_MODULES`
  (:mod:`repro.core.fence` is the smallest complete example).

Registered schemes:

* :class:`~repro.core.stt_rename.STTRenameScheme` — Speculative Taint
  Tracking with taint computation during register rename (Section 4.1),
  including the same-cycle YRoT dependency chain and taint-RAT
  checkpointing (Section 4.2) and the unified-store partial-issue
  behaviour (Section 9.2).
* :class:`~repro.core.stt_issue.STTIssueScheme` — the paper's novel
  STT-Issue design (Section 4.3): tainting delayed to the issue stage,
  physical-register taint table, wasted-slot nops, and ready-mask
  back-propagation.
* :class:`~repro.core.nda.NDAScheme` — NDA-Permissive (Section 5):
  split data-write / broadcast with delayed broadcasts for speculative
  loads, no speculative L1-hit scheduling.
* :class:`~repro.core.fence.FenceScheme` — conservative delay-all
  baseline bracketing the design space from below.
* :class:`~repro.core.delay_on_miss.DelayOnMissScheme` — selective
  delay: only L1-missing speculative loads defer their broadcast.

The :class:`~repro.core.shadows.ShadowTracker` implements Section 6's
C-shadows and the visibility point; D-shadows are kept per load (the
core's ``d_pending``).
"""

from repro.core.shadows import ShadowTracker
from repro.core.plugin import BaselineScheme, SchemeBase
from repro.core.registry import (
    KwargSpec,
    SchemeSpec,
    SchemeTiming,
    get_spec,
    iter_specs,
    register,
    scheme_names,
    secure_scheme_names,
)
from repro.core.stt_rename import STTRenameScheme
from repro.core.stt_issue import STTIssueScheme
from repro.core.nda import NDAScheme
from repro.core.fence import FenceScheme
from repro.core.delay_on_miss import DelayOnMissScheme
from repro.core.factory import SCHEME_NAMES, make_scheme

__all__ = [
    "ShadowTracker",
    "SchemeBase",
    "BaselineScheme",
    "STTRenameScheme",
    "STTIssueScheme",
    "NDAScheme",
    "FenceScheme",
    "DelayOnMissScheme",
    "SchemeSpec",
    "SchemeTiming",
    "KwargSpec",
    "register",
    "get_spec",
    "iter_specs",
    "scheme_names",
    "secure_scheme_names",
    "SCHEME_NAMES",
    "make_scheme",
]

"""Self-describing speculation-scheme registry.

One :class:`SchemeSpec` per scheme is the *single* place a scheme's
identity lives: its canonical name, constructor, kwargs schema,
membership in the standard campaign grid, one-line description, and its
timing-model parameters (area / power / critical-path contributions).
Everything else derives from here —

* ``repro.core.factory.SCHEME_NAMES`` and :func:`make_scheme` (the
  construction seam used by the pipeline, the campaign engine, and the
  cluster wire format);
* ``repro.harness.experiments.SCHEMES`` (the secure schemes evaluated
  in every table/figure);
* the ``python -m repro`` CLI's ``--scheme``/``--schemes`` choices and
  the ``schemes`` listing subcommand;
* :func:`repro.timing.area.estimate_area`,
  :func:`repro.timing.power.estimate_power`, and
  :meth:`repro.timing.critpath.CriticalPathModel.delays_for_scheme`,
  which apply each spec's :class:`SchemeTiming` contributions on top of
  the baseline substrate models.

Adding a scheme is therefore a one-file change: write the scheme
module (strategy class + a ``register(SchemeSpec(...))`` call carrying
its timing parameters) and list the module in :data:`SCHEME_MODULES`.
See :mod:`repro.core.fence` for the smallest complete example.

Scheme modules import this module; this module imports scheme modules
only lazily (inside :func:`_ensure_loaded`), so there is no circular
import at module-body time.
"""

import importlib
from dataclasses import dataclass, field


def _no_stage_deltas(config):
    """Baseline timing: no per-stage delay contributions."""
    return {}


def _no_area(config):
    """Baseline area: no LUT/FF contributions."""
    return 0.0


def _no_power(stats):
    """Baseline power: no extra dynamic energy."""
    return 0.0


@dataclass(frozen=True)
class KwargSpec:
    """Schema entry for one scheme constructor keyword argument."""

    type: type
    default: object
    doc: str = ""


@dataclass(frozen=True)
class SchemeTiming:
    """A scheme's contributions to the synthesis-substitute models.

    All callables take the structural configuration record (the same
    ``CoreConfig`` the IPC simulator uses) except ``power``, which takes
    a run's :class:`~repro.pipeline.stats.SimStats`:

    * ``stage_deltas(config)`` — picoseconds added to (or, negative,
      removed from) named pipeline stages; applied on top of
      :meth:`~repro.timing.critpath.CriticalPathModel.baseline_delays`.
    * ``area_luts(config)`` / ``area_ffs(config)`` — combinational-term
      and state-bit proxies added to the baseline census (negative
      values model removed logic).
    * ``power(stats)`` — extra dynamic energy for one run, in the
      same arbitrary units as :mod:`repro.timing.power`'s event terms.
    """

    stage_deltas: callable = _no_stage_deltas
    area_luts: callable = _no_area
    area_ffs: callable = _no_area
    power: callable = _no_power


@dataclass(frozen=True)
class SchemeSpec:
    """Registry entry: everything the stack needs to know of a scheme."""

    #: Canonical name (lower-case, dash-separated).  Underscored
    #: spellings are accepted as aliases everywhere.
    name: str
    #: Strategy class; ``factory(**kwargs)`` builds an instance.
    factory: type
    #: One-line description (CLI listings, docs).
    doc: str = ""
    #: Constructor keyword schema: kwarg name -> :class:`KwargSpec`.
    kwargs: dict = field(default_factory=dict)
    #: Member of the standard campaign grid (``SCHEME_NAMES``)?
    grid: bool = True
    #: Timing-model parameters.
    timing: SchemeTiming = field(default_factory=SchemeTiming)
    #: Paper anchor: the scheme's suite-mean IPC normalized to baseline
    #: on the Mega configuration (Figure 6's arithmetic mean; ``None``
    #: for schemes the paper does not plot).  Approximate by nature —
    #: consumed for *relative ordering* validation (the campaign smoke
    #: test asserts measured cells respect the anchors' ordering), not
    #: as a point target.
    ipc_anchor: float = None


#: Modules registering scheme specs, in canonical evaluation order
#: (baseline first, then the paper's schemes, then later variants).
#: This is the registry's loading manifest — the one list to extend
#: when a new scheme module lands.
SCHEME_MODULES = (
    "repro.core.plugin",
    "repro.core.stt_rename",
    "repro.core.stt_issue",
    "repro.core.nda",
    "repro.core.fence",
    "repro.core.delay_on_miss",
)

_SPECS = {}
_LOADED = False


def register(spec):
    """Register (or idempotently re-register) one scheme spec."""
    if not isinstance(spec, SchemeSpec):
        raise TypeError("register() takes a SchemeSpec")
    _SPECS[spec.name] = spec
    return spec


def _ensure_loaded():
    global _LOADED
    if not _LOADED:
        for module in SCHEME_MODULES:
            importlib.import_module(module)
        _LOADED = True


def canonical_name(name):
    """Canonical spelling of a scheme name (underscores -> dashes).

    Pure string normalisation — no registry lookup — so it is usable
    as an ``argparse`` ``type=`` callable ahead of ``choices``
    validation.
    """
    return str(name).strip().lower().replace("_", "-")


def get_spec(name):
    """Spec for ``name`` (aliases accepted); raises ValueError if unknown."""
    _ensure_loaded()
    spec = _SPECS.get(canonical_name(name))
    if spec is None:
        raise ValueError(
            "unknown scheme %r (choose from %s)"
            % (name, ", ".join(scheme_names()))
        )
    return spec


def iter_specs():
    """All registered specs, in canonical evaluation order."""
    _ensure_loaded()
    return tuple(_SPECS.values())


def scheme_names(grid_only=False):
    """Registered scheme names, in canonical evaluation order."""
    _ensure_loaded()
    return tuple(
        spec.name for spec in _SPECS.values()
        if spec.grid or not grid_only
    )


def grid_scheme_names():
    """Schemes belonging to the standard campaign grid."""
    return scheme_names(grid_only=True)


def secure_scheme_names():
    """Grid schemes excluding the unsafe baseline — the table columns."""
    return tuple(n for n in grid_scheme_names() if n != "baseline")


def make_scheme(name, **kwargs):
    """Build a secure-speculation scheme by name.

    Keyword arguments are validated against the spec's kwargs schema:
    unknown names and wrong types raise ``TypeError`` before the
    constructor runs, so a typo'ed campaign fails fast instead of
    simulating the default configuration under the intended key.
    """
    spec = get_spec(name)
    schema = spec.kwargs
    for key, value in kwargs.items():
        entry = schema.get(key)
        if entry is None:
            raise TypeError(
                "scheme %r takes no kwarg %r (schema: %s)"
                % (spec.name, key, ", ".join(sorted(schema)) or "none")
            )
        if not isinstance(value, entry.type):
            raise TypeError(
                "scheme %r kwarg %r expects %s, got %r"
                % (spec.name, key, entry.type.__name__, value)
            )
    return spec.factory(**kwargs)

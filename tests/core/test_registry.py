"""Contract tests for the speculation-scheme registry.

The registry is the single source of truth for scheme names,
constructor kwargs, grid membership, and timing-model parameters;
these tests pin the derivations that the rest of the stack — factory,
experiments, CLI, timing models, wire format — relies on staying in
sync with it.
"""

import pytest

from repro.core import factory
from repro.core.registry import (
    KwargSpec,
    SchemeSpec,
    get_spec,
    grid_scheme_names,
    iter_specs,
    make_scheme,
    scheme_names,
    secure_scheme_names,
)
from repro.pipeline.config import MEGA, named_configs
from repro.pipeline.stats import SimStats
from repro.timing.area import estimate_area
from repro.timing.critpath import StageDelays, scheme_stage_delays
from repro.timing.power import estimate_power
from repro.timing.synthesis import synthesize

_STAGE_NAMES = set(StageDelays(0, 0, 0, 0, 0, 0, 0).as_dict())


def test_canonical_names_and_order():
    names = scheme_names()
    # The paper's four schemes first, in evaluation order, then the
    # later variants.
    assert names[:4] == ("baseline", "stt-rename", "stt-issue", "nda")
    assert "fence" in names and "delay-on-miss" in names
    assert len(names) == len(set(names))


def test_factory_names_derive_from_registry():
    assert factory.SCHEME_NAMES == grid_scheme_names()
    assert secure_scheme_names() == tuple(
        n for n in grid_scheme_names() if n != "baseline"
    )


def test_experiments_schemes_derive_from_registry():
    from repro.harness.experiments import SCHEMES

    assert SCHEMES == secure_scheme_names()


def test_specs_are_self_consistent():
    for spec in iter_specs():
        assert isinstance(spec, SchemeSpec)
        assert spec.name == spec.name.lower()
        assert "_" not in spec.name
        assert spec.doc, "scheme %s has no description" % spec.name
        # The canonical name round-trips through construction.
        assert spec.factory().name == spec.name
        for key, entry in spec.kwargs.items():
            assert isinstance(entry, KwargSpec), (spec.name, key)


def test_unknown_name_rejected_everywhere():
    for call in (
        lambda: get_spec("ghost-loads"),
        lambda: make_scheme("ghost-loads"),
        lambda: estimate_area(MEGA, "ghost-loads"),
        lambda: scheme_stage_delays(MEGA, "ghost-loads"),
        lambda: estimate_power(MEGA, "ghost-loads", SimStats(cycles=1)),
    ):
        with pytest.raises(ValueError):
            call()


def test_alias_spellings_accepted():
    assert get_spec("STT_Rename").name == "stt-rename"
    assert make_scheme("delay_on_miss").name == "delay-on-miss"


def test_kwargs_schema_validation():
    scheme = make_scheme("stt-rename", split_store_taints=True)
    assert scheme.split_store_taints is True
    with pytest.raises(TypeError):
        make_scheme("stt-rename", split_store_tains=True)  # typo
    with pytest.raises(TypeError):
        make_scheme("stt-rename", split_store_taints="yes")  # wrong type
    with pytest.raises(TypeError):
        make_scheme("nda", split_store_taints=True)  # wrong scheme


def test_timing_parameters_present_for_every_scheme():
    """Every registered scheme must run through the whole timing stack:
    stage deltas with valid stage names, a positive area census, a
    finite power estimate, and a successful model synthesis."""
    stats = SimStats(cycles=1000, committed_instructions=1500,
                     fetched_instructions=1800, committed_loads=300,
                     committed_branches=200)
    for spec in iter_specs():
        for config in named_configs():
            deltas = spec.timing.stage_deltas(config)
            assert set(deltas) <= _STAGE_NAMES, spec.name
            assert isinstance(spec.timing.area_luts(config), (int, float))
            assert isinstance(spec.timing.area_ffs(config), (int, float))

            area = estimate_area(config, spec.name)
            assert area.luts > 0 and area.ffs > 0, spec.name

            delays = scheme_stage_delays(config, spec.name)
            assert all(v > 0 for v in delays.as_dict().values()), spec.name

            result = synthesize(config, spec.name)
            assert result.frequency_mhz > 0, spec.name

            power = estimate_power(config, spec.name, stats)
            assert power.total > 0, spec.name


def test_cli_choices_derive_from_registry():
    """The CLI's --scheme/--schemes options must offer exactly the
    registered names — a new registry entry is immediately reachable."""
    from repro.__main__ import build_parser

    subcommands = build_parser()._subparsers._group_actions[0].choices
    checked = set()
    for command, action in subcommands.items():
        for option in action._actions:
            if option.dest in ("scheme", "schemes") and option.choices:
                assert tuple(option.choices) == scheme_names(), option.dest
                checked.add((command, option.option_strings[0]))
    assert checked == {("grid", "--schemes"), ("profile", "--scheme"),
                       ("pipeview", "--scheme")}


def test_new_variants_reach_the_grid_and_wire_format():
    """fence / delay-on-miss run end-to-end: grid membership, cell
    keys, and the cluster wire round-trip."""
    from repro.harness.cluster.protocol import spec_from_wire, spec_to_wire
    from repro.harness.store import simulation_key

    for name in ("fence", "delay-on-miss"):
        assert name in grid_scheme_names()
        key = simulation_key("503.bwaves", MEGA, name)
        assert len(key) == 64
        spec = ("503.bwaves", MEGA, name, (), 1.0, 2017)
        benchmark, config, scheme, kwargs, scale, seed = spec_from_wire(
            spec_to_wire(spec)
        )
        assert scheme == name
        assert config.fingerprint() == MEGA.fingerprint()
        assert make_scheme(scheme).name == name

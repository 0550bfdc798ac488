"""Shared fixtures for the test suite."""

import json
import pathlib
import threading

import pytest

from repro import MEGA, SMALL, OoOCore, make_scheme, run_reference
from repro.core.registry import scheme_names
from repro.pipeline.core import SimulationResult
from repro.workloads.generator import WorkloadProfile, generate_program

#: Every registered scheme, straight from the registry — new variants
#: automatically join the scheme-parametrised tests.
ALL_SCHEMES = scheme_names()

#: The 56-cell golden grid: one JSON envelope (``{"key",
#: "model_version", "meta", "result"}``) per cell, written by
#: ``tests/pipeline/test_kernel_equivalence.py --regenerate``.
GOLDEN_DIR = pathlib.Path(__file__).parent / "pipeline" / "golden_store"


@pytest.fixture(scope="session")
def golden_results():
    """Every golden cell as ``{key: SimulationResult}``."""
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    if not paths:
        pytest.fail(
            "golden fixture missing at %s — regenerate with 'PYTHONPATH=src"
            " python tests/pipeline/test_kernel_equivalence.py"
            " --regenerate'" % GOLDEN_DIR)
    results = {}
    for path in paths:
        with open(path) as handle:
            envelope = json.load(handle)
        results[envelope["key"]] = SimulationResult.from_dict(
            envelope["result"])
    return results


@pytest.fixture(params=ALL_SCHEMES)
def scheme_name(request):
    """Parametrise a test over every scheme."""
    return request.param


def run_all_schemes(program, config=MEGA, **core_kwargs):
    """Run a program under every scheme; returns {name: result}."""
    results = {}
    for name in ALL_SCHEMES:
        core = OoOCore(program, config=config, scheme=make_scheme(name),
                       **core_kwargs)
        results[name] = core.run()
    return results


def assert_matches_reference(program, result, context=""):
    """Assert a pipeline result's architectural state equals the oracle."""
    ref = run_reference(program, max_steps=5_000_000)
    for reg in range(32):
        assert result.regs[reg] == ref.state.read_reg(reg), (
            "%s: register x%d mismatch: pipeline %d vs reference %d"
            % (context, reg, result.regs[reg], ref.state.read_reg(reg))
        )
    ref_memory = {a: v for a, v in ref.state.memory.items() if v != 0}
    got_memory = {a: v for a, v in result.memory.items() if v != 0}
    assert got_memory == ref_memory, "%s: memory mismatch" % context


def small_profile(name="test", **overrides):
    """A fast-to-simulate workload profile for integration tests."""
    params = dict(
        name=name,
        iterations=8,
        body_templates=6,
        body_blocks=2,
        working_set_words=256,
        ring_words=32,
        scratch_words=16,
    )
    params.update(overrides)
    return WorkloadProfile(**params)


def small_program(name="test", seed=1, **overrides):
    return generate_program(small_profile(name, **overrides), seed=seed)


def bounded(call, seconds=120):
    """``call()``'s value, or the exception it raised, on a thread the
    test waits at most ``seconds`` for: a call that hangs fails the
    test instead of blocking it."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "still running after %ss" % seconds
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]

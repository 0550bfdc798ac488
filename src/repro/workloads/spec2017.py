"""Assembly of the full SPEC CPU2017 proxy suite."""

from repro.workloads import program_cache
from repro.workloads.characteristics import SPEC_BENCHMARKS
# Unused here, but perfbench's tracer wraps ``spec2017.cached_program``.
# spec_suite calls through the module instead, so the tracer's wrap of
# ``program_cache.cached_spec_program`` times its lookups.
from repro.workloads.program_cache import cached_program  # noqa: F401


def spec_suite(scale=1.0, seed=2017, benchmarks=None):
    """Generate the proxy suite; returns ``[(name, Program), ...]``.

    ``scale`` multiplies every profile's iteration count, trading run
    time for measurement stability (benches use small scales; the
    harness's defaults aim for a few thousand dynamic instructions per
    benchmark).  ``benchmarks`` optionally restricts to a subset by
    name.

    Programs come from the content-addressed
    :mod:`~repro.workloads.program_cache` through
    :func:`~repro.workloads.program_cache.cached_spec_program`, so
    repeated requests for the same (benchmark, scale, seed) — sixteen
    grid cells per benchmark, every worker loop — generate each program
    once per process, and key it once per process too.
    """
    selected = benchmarks or SPEC_BENCHMARKS
    return [(name, program_cache.cached_spec_program(name, scale=scale,
                                                     seed=seed))
            for name in selected]

"""Thin runner for the gem5-proxy configurations.

The paper could not evaluate ``namd``, ``parest``, and ``povray`` on
gem5, so Table 5's comparisons exclude them; :data:`GEM5_EXCLUDED`
mirrors that and the harness applies the same exclusion to the BOOM
side when comparing (Section 7's note).
"""

from repro.analysis.ipc import suite_mean_ipc
from repro.core.factory import make_scheme
from repro.gem5.configs import gem5_config
from repro.pipeline.core import OoOCore
from repro.workloads.spec2017 import spec_suite

#: Benchmarks the paper could not run on gem5 (Section 7).
GEM5_EXCLUDED = ("508.namd", "510.parest", "511.povray")


class Gem5Model:
    """Runs the SPEC proxy suite under a gem5-proxy configuration."""

    def __init__(self, which, scale=1.0, seed=2017):
        self.config = gem5_config(which)
        self.scale = scale
        self.seed = seed

    def benchmarks(self):
        from repro.workloads.characteristics import SPEC_BENCHMARKS

        return [name for name in SPEC_BENCHMARKS if name not in GEM5_EXCLUDED]

    def run_suite(self, scheme_name, benchmarks=None):
        """Run ``benchmarks`` (default: every non-excluded one) in the
        order given; returns {name: result}."""
        if benchmarks is None:
            benchmarks = self.benchmarks()
        results = {}
        for name, program in spec_suite(
            scale=self.scale, seed=self.seed, benchmarks=benchmarks
        ):
            core = OoOCore(
                program, config=self.config, scheme=make_scheme(scheme_name),
                warm_caches=True,
            )
            results[name] = core.run()
        return results


def gem5_ipc_loss(which, scheme_name, scale=1.0, seed=2017):
    """(baseline_ipc, loss_fraction) for one scheme on a gem5 config."""
    model = Gem5Model(which, scale=scale, seed=seed)
    baseline = model.run_suite("baseline")
    scheme = model.run_suite(scheme_name)
    base_ipc = suite_mean_ipc(list(baseline.values()))
    scheme_ipc = suite_mean_ipc(list(scheme.values()))
    if base_ipc == 0:
        return 0.0, 0.0
    return base_ipc, 1.0 - scheme_ipc / base_ipc

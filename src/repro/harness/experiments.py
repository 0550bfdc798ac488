"""One experiment per paper table/figure.

Each ``experiment_*`` function takes the
:class:`~repro.harness.runner.CampaignRunner` it is handed and nothing
else, produces the paper artefact as structured data, and renders a
text report.  ``python -m repro run all`` regenerates the whole
evaluation section; ``tests/harness/test_paper_claims.py`` checks the
paper's claims against the reports' data.
"""

from dataclasses import dataclass, field

from repro.analysis.ipc import normalized_ipc, suite_mean_ipc, suite_normalized_ipc
from repro.core.registry import grid_scheme_names, secure_scheme_names
from repro.analysis.performance import scheme_performance
from repro.analysis.reporting import format_table, text_bar_chart
from repro.analysis.trends import (
    REDWOOD_COVE_IPC,
    extrapolate,
    fit_trend,
    halved_slope_estimate,
)
from repro.core.factory import make_scheme
from repro.gem5.configs import GEM5_EXCLUDED, gem5_config
from repro.memsys.hierarchy import MemConfig
from repro.pipeline.config import LARGE, MEDIUM, MEGA, named_configs
from repro.pipeline.core import OoOCore
from repro.timing.area import estimate_area
from repro.timing.power import estimate_power
from repro.timing.synthesis import relative_timing, synthesize
from repro.workloads import program_cache

#: Secure schemes evaluated in every table/figure, derived from the
#: scheme registry (the paper's three designs plus later variants).
SCHEMES = secure_scheme_names()


@dataclass
class ExperimentReport:
    """Rendered text + structured data for one experiment."""

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self):
        return "%s\n%s\n%s" % (self.title, "=" * len(self.title), self.text)


def _simulate_direct(runner, benchmark, config, scheme_name,
                     **scheme_kwargs):
    """One warm-cache core built outside the runner's cell path.

    Table 5's gem5-proxy rows and both ablations simulate here: on the
    runner's program for ``benchmark`` (its scale and seed), without
    its cache, store or cycle accounting.
    """
    program = program_cache.cached_spec_program(
        benchmark, scale=runner.scale, seed=runner.seed)
    return OoOCore(program, config=config,
                   scheme=make_scheme(scheme_name, **scheme_kwargs),
                   warm_caches=True).run()


# ----------------------------------------------------------------------
# Table 1: configurations and baseline absolute IPC.
# ----------------------------------------------------------------------

def experiment_table1(runner):
    rows = []
    data = {}
    for config in named_configs():
        results = runner.suite_results(config, "baseline")
        ipc = suite_mean_ipc(results)
        data[config.name] = ipc
        rows.append(
            [config.name, config.width, config.mem_width, config.rob_entries,
             ipc]
        )
    text = format_table(
        ["Config", "Core Width", "Memory Ports", "ROB Entries", "SPEC2017 IPC"],
        rows,
        title="Table 1: BOOM configurations, baseline absolute IPC",
    )
    text += (
        "\nIntel Redwood Cove reference: width 6, SPEC2017 IPC %.2f (from"
        " the paper's Table 1)." % REDWOOD_COVE_IPC
    )
    return ExperimentReport("table1", "Table 1 — configurations", text, data)


# ----------------------------------------------------------------------
# Figure 6: per-benchmark normalized IPC at Mega.
# ----------------------------------------------------------------------

def experiment_figure6(runner):
    config = MEGA
    baseline = {
        name: runner.run(name, config, "baseline") for name in runner.benchmarks
    }
    data = {}
    rows = []
    for name in runner.benchmarks:
        row = [name]
        per_scheme = {}
        for scheme in SCHEMES:
            result = runner.run(name, config, scheme)
            value = normalized_ipc(result, baseline[name])
            per_scheme[scheme] = value
            row.append(value)
        data[name] = per_scheme
        rows.append(row)

    means = {}
    baseline_results = list(baseline.values())
    for scheme in SCHEMES:
        scheme_results = [runner.run(n, config, scheme) for n in runner.benchmarks]
        means[scheme] = suite_normalized_ipc(scheme_results, baseline_results)
    rows.append(["arithmetic-mean"] + [means[s] for s in SCHEMES])
    data["arithmetic-mean"] = means

    text = format_table(
        ["Benchmark"] + list(SCHEMES),
        rows,
        title="Figure 6: IPC normalized to baseline (%s config)" % config.name,
    )
    return ExperimentReport("figure6", "Figure 6 — normalized IPC", text, data)


# ----------------------------------------------------------------------
# Figure 7: normalized IPC per scheme across all four configurations.
# ----------------------------------------------------------------------

def experiment_figure7(runner):
    configs = named_configs()
    data = {}
    sections = []
    for scheme in SCHEMES:
        per_config = {}
        rows = []
        for name in runner.benchmarks:
            row = [name]
            for config in configs:
                base = runner.run(name, config, "baseline")
                result = runner.run(name, config, scheme)
                value = normalized_ipc(result, base)
                per_config.setdefault(config.name, {})[name] = value
                row.append(value)
            rows.append(row)
        mean_row = ["arithmetic-mean"]
        for config in configs:
            baseline_results = runner.suite_results(config, "baseline")
            scheme_results = runner.suite_results(config, scheme)
            mean = suite_normalized_ipc(scheme_results, baseline_results)
            per_config[config.name]["arithmetic-mean"] = mean
            mean_row.append(mean)
        rows.append(mean_row)
        data[scheme] = per_config
        sections.append(
            format_table(
                ["Benchmark"] + [config.name for config in configs],
                rows,
                title="Figure 7 (%s): normalized IPC per configuration" % scheme,
            )
        )
    return ExperimentReport(
        "figure7", "Figure 7 — IPC across configurations",
        "\n\n".join(sections), data,
    )


# ----------------------------------------------------------------------
# Figure 8: relative IPC vs absolute IPC, with trend lines.
# ----------------------------------------------------------------------

def experiment_figure8(runner):
    data = {}
    lines = []
    baseline_ipcs = {}
    for config in named_configs():
        baseline_ipcs[config.name] = suite_mean_ipc(
            runner.suite_results(config, "baseline")
        )
    for scheme in SCHEMES:
        xs, ys = [], []
        for config in named_configs():
            baseline_results = runner.suite_results(config, "baseline")
            scheme_results = runner.suite_results(config, scheme)
            xs.append(baseline_ipcs[config.name])
            ys.append(suite_normalized_ipc(scheme_results, baseline_results))
        fit = fit_trend(xs, ys)
        redwood = extrapolate(fit)
        data[scheme] = {
            "points": list(zip(xs, ys)),
            "slope": fit.slope,
            "intercept": fit.intercept,
            "redwood_cove_linear": redwood,
        }
        lines.append(
            "%-11s points: %s | trend y = %.3f x + %.3f | linear @IPC %.2f"
            " -> %.3f"
            % (
                scheme,
                " ".join("(%.2f, %.3f)" % (x, y) for x, y in zip(xs, ys)),
                fit.slope,
                fit.intercept,
                REDWOOD_COVE_IPC,
                redwood,
            )
        )
    text = "Figure 8: relative IPC vs baseline absolute IPC\n" + "\n".join(lines)
    return ExperimentReport("figure8", "Figure 8 — IPC trend", text, data)


# ----------------------------------------------------------------------
# Figure 9: achieved synthesis frequency per configuration.
# ----------------------------------------------------------------------

def experiment_figure9(runner=None):
    data = {}
    sections = []
    for config in named_configs():
        per_scheme = {}
        labels, values = [], []
        for scheme in ("baseline",) + SCHEMES:
            result = synthesize(config, scheme)
            per_scheme[scheme] = {
                "mhz": result.frequency_mhz,
                "critical_stage": result.critical_stage,
            }
            labels.append("%-10s (%s)" % (scheme, result.critical_stage[:6]))
            values.append(result.frequency_mhz)
        data[config.name] = per_scheme
        sections.append(
            text_bar_chart(
                labels, values,
                title="Figure 9 (%s BOOM): achieved MHz" % config.name,
                max_value=max(values),
            )
        )
    return ExperimentReport(
        "figure9", "Figure 9 — synthesis timing", "\n\n".join(sections), data
    )


# ----------------------------------------------------------------------
# Figure 10: relative timing vs absolute IPC, with trend.
# ----------------------------------------------------------------------

def experiment_figure10(runner):
    data = {}
    lines = []
    for scheme in SCHEMES:
        xs, ys = [], []
        for config in named_configs():
            xs.append(suite_mean_ipc(runner.suite_results(config, "baseline")))
            ys.append(relative_timing(config, scheme))
        fit = fit_trend(xs, ys)
        data[scheme] = {"points": list(zip(xs, ys)), "slope": fit.slope}
        lines.append(
            "%-11s %s | trend slope %.3f"
            % (
                scheme,
                " ".join("(%.2f, %.3f)" % (x, y) for x, y in zip(xs, ys)),
                fit.slope,
            )
        )
    text = (
        "Figure 10: relative timing (vs baseline) across baseline absolute"
        " IPC\n" + "\n".join(lines)
    )
    return ExperimentReport("figure10", "Figure 10 — timing trend", text, data)


# ----------------------------------------------------------------------
# Figure 1 / Table 3: performance = IPC x timing (+ Redwood Cove).
# ----------------------------------------------------------------------

def experiment_table3(runner):
    data = {}
    rows = []
    config_names = [c.name for c in named_configs()]
    for scheme in SCHEMES:
        xs, perfs = [], []
        per_config = {}
        for config in named_configs():
            baseline_results = runner.suite_results(config, "baseline")
            scheme_results = runner.suite_results(config, scheme)
            baseline_ipc = suite_mean_ipc(baseline_results)
            rel_ipc = suite_normalized_ipc(scheme_results, baseline_results)
            point = scheme_performance(config, scheme, rel_ipc, baseline_ipc)
            per_config[config.name] = point.relative_performance
            xs.append(baseline_ipc)
            perfs.append(point.relative_performance)
        fit = fit_trend(xs, perfs)
        intel = halved_slope_estimate(fit)
        per_config["intel"] = intel
        data[scheme] = per_config
        rows.append(
            [scheme] + [per_config[name] for name in config_names] + [intel]
        )
    text = format_table(
        ["Scheme"] + config_names + ["Intel (halved slope)"],
        rows,
        title=(
            "Table 3 / Figure 1: normalized performance (IPC x timing);"
            " Intel = Redwood Cove-class estimate at IPC %.2f" % REDWOOD_COVE_IPC
        ),
    )
    return ExperimentReport(
        "table3", "Table 3 / Figure 1 — performance", text, data
    )


# ----------------------------------------------------------------------
# Table 4: area and power at the fixed synthesis frequency.
# ----------------------------------------------------------------------

def experiment_table4(runner):
    config = MEGA
    baseline_area = estimate_area(config, "baseline")
    baseline_results = runner.suite_results(config, "baseline")
    baseline_power = _suite_power(config, "baseline", baseline_results)

    rows = []
    data = {}
    for scheme in SCHEMES:
        area = estimate_area(config, scheme)
        rel_luts, rel_ffs = area.relative_to(baseline_area)
        scheme_results = runner.suite_results(config, scheme)
        power = _suite_power(config, scheme, scheme_results)
        rel_power = power / baseline_power
        data[scheme] = {"luts": rel_luts, "ffs": rel_ffs, "power": rel_power}
        rows.append([scheme, rel_luts, rel_ffs, rel_power])
    text = format_table(
        ["Scheme", "LUTs", "FFs", "Power"],
        rows,
        title=(
            "Table 4: area and power normalized to baseline"
            " (%s config, fixed 50 MHz)" % config.name
        ),
    )
    return ExperimentReport("table4", "Table 4 — area and power", text, data)


def _suite_power(config, scheme, results):
    total = 0.0
    for result in results:
        total += estimate_power(config, scheme, result.stats).total
    return total / max(1, len(results))


# ----------------------------------------------------------------------
# Table 5: BOOM vs gem5 IPC losses.
# ----------------------------------------------------------------------

def experiment_table5(runner):
    comparable = [b for b in runner.benchmarks if b not in GEM5_EXCLUDED]
    rows = []
    data = {}
    for config in (MEDIUM, LARGE, MEGA):
        baseline_results = runner.suite_results(config, "baseline", comparable)
        base_ipc = suite_mean_ipc(baseline_results)
        row = ["BOOM " + config.name, base_ipc]
        losses = {}
        for scheme in SCHEMES:
            scheme_results = runner.suite_results(config, scheme, comparable)
            loss = 1.0 - suite_normalized_ipc(scheme_results, baseline_results)
            losses[scheme] = loss
            row.append("%.1f%%" % (100.0 * loss))
        data["boom-" + config.name] = {"baseline_ipc": base_ipc, **losses}
        rows.append(row)

    for which, scheme in (("stt", "stt-rename"), ("nda", "nda")):
        config = gem5_config(which)
        # The gem5 rows average the same suite as the BOOM rows above.
        baseline = [_simulate_direct(runner, name, config, "baseline")
                    for name in comparable]
        scheme_res = [_simulate_direct(runner, name, config, scheme)
                      for name in comparable]
        base_ipc = suite_mean_ipc(baseline)
        loss = 1.0 - suite_normalized_ipc(scheme_res, baseline)
        data["gem5-" + which] = {"baseline_ipc": base_ipc, scheme: loss}
        row = ["gem5 (%s cfg)" % which, base_ipc]
        for s in SCHEMES:
            row.append("%.1f%%" % (100.0 * loss) if s == scheme else "N/A")
        rows.append(row)

    text = format_table(
        ["Configuration", "Baseline IPC"]
        + ["%s loss" % scheme for scheme in SCHEMES],
        rows,
        title=(
            "Table 5: IPC loss, BOOM configurations vs gem5-proxy"
            " configurations (namd/parest/povray excluded, per the paper)"
        ),
    )
    return ExperimentReport("table5", "Table 5 — BOOM vs gem5", text, data)


# ----------------------------------------------------------------------
# Section 8.1 / 9.2: the exchange2 forwarding anomaly.
# ----------------------------------------------------------------------

def experiment_exchange2(runner):
    config = MEGA
    benchmark = "548.exchange2"
    rows = []
    data = {}
    for scheme in ("baseline",) + SCHEMES:
        result = runner.run(benchmark, config, scheme)
        stats = result.stats
        data[scheme] = {
            "ipc": stats.ipc,
            "stl_forward_errors": stats.stl_forward_errors,
            "flushes": stats.order_violation_flushes,
            "partial_store_issues": stats.partial_store_issues,
        }
        rows.append(
            [scheme, stats.ipc, stats.stl_forward_errors,
             stats.order_violation_flushes, stats.partial_store_issues]
        )
    rename_errors = data["stt-rename"]["stl_forward_errors"]
    nda_errors = data["nda"]["stl_forward_errors"]
    ratio = rename_errors / nda_errors if nda_errors else None
    text = format_table(
        ["Scheme", "IPC", "STL fwd errors", "Violation flushes",
         "Partial store issues"],
        rows,
        title="Section 9.2: exchange2 store-to-load forwarding anomaly",
    )
    if ratio is None:
        text += ("\nSTT-Rename incurs %d forwarding errors, NDA none"
                 % rename_errors)
    else:
        text += ("\nSTT-Rename incurs %.1fx the forwarding errors of NDA"
                 % ratio)
    text += " (paper reports 1350x on full SPEC runs)."
    data["error_ratio_vs_nda"] = ratio
    return ExperimentReport(
        "exchange2", "Section 9.2 — exchange2 anomaly", text, data
    )


# ----------------------------------------------------------------------
# Ablation: split store taints for STT-Rename (Section 9.2 proposal).
# ----------------------------------------------------------------------

def experiment_ablation_store_taints(runner):
    rows = []
    data = {}
    for label, split in (("unified (paper design)", False),
                         ("split taints (Section 9.2 fix)", True)):
        result = _simulate_direct(runner, "548.exchange2", MEGA,
                                  "stt-rename", split_store_taints=split)
        data[label] = {
            "ipc": result.stats.ipc,
            "stl_forward_errors": result.stats.stl_forward_errors,
        }
        rows.append([label, result.stats.ipc, result.stats.stl_forward_errors])
    text = format_table(
        ["STT-Rename store tainting", "IPC", "STL fwd errors"],
        rows,
        title="Ablation: unified vs split store taints on exchange2",
    )
    return ExperimentReport(
        "ablation-store-taints", "Ablation — split store taints", text, data
    )


# ----------------------------------------------------------------------
# Ablation: the 1-cycle L1 optimism (Section 9.5).
# ----------------------------------------------------------------------

def experiment_ablation_l1_latency(runner):
    scheme = "nda"
    rows = []
    data = {}
    sample = runner.benchmarks[::4]
    for latency in (1, 2, 4):
        mem = MemConfig(l1_latency=latency)
        config = MEGA.scaled(name="mega-l1-%d" % latency, mem=mem)
        base_results, scheme_results = [], []
        for name in sample:
            base_results.append(
                _simulate_direct(runner, name, config, "baseline"))
            scheme_results.append(
                _simulate_direct(runner, name, config, scheme))
        base_ipc = suite_mean_ipc(base_results)
        loss = 1.0 - suite_normalized_ipc(scheme_results, base_results)
        data[latency] = {"baseline_ipc": base_ipc, "loss": loss}
        rows.append([latency, base_ipc, "%.1f%%" % (100 * loss)])
    text = format_table(
        ["L1 latency (cycles)", "Baseline IPC", "%s IPC loss" % scheme],
        rows,
        title=(
            "Ablation (Section 9.5): idealised 1-cycle L1 understates"
            " scheme losses"
        ),
    )
    return ExperimentReport(
        "ablation-l1-latency", "Ablation — L1 latency", text, data
    )


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
#
# Each entry carries the experiment callable *and* the grid slice it
# reads through the runner cache, declared side by side so they cannot
# drift (a drift used to silently de-parallelise ``run --jobs``: the
# pre-population step would warm the wrong slice and the experiment
# would fall back to serial simulation).  ``needs`` is a zero-argument
# callable returning ``(configs, schemes, benchmarks)`` —
# ``benchmarks=None`` meaning the runner's full selection — or ``None``
# for experiments that bypass the cache entirely (the ablations build
# cores through ``_simulate_direct``; figure9 is analytic).  Table 5
# declares only its BOOM rows; its gem5-proxy rows are direct builds.


@dataclass(frozen=True)
class Experiment:
    """Registry entry: the callable plus the grid slice it consumes."""

    func: callable
    needs: callable = None


def _all_schemes():
    return grid_scheme_names()


def _needs_full_grid():
    return named_configs(), _all_schemes(), None


def _needs_baseline_only():
    return named_configs(), ("baseline",), None


def _needs_mega_all():
    return [MEGA], _all_schemes(), None


def _needs_table5():
    from repro.workloads.characteristics import SPEC_BENCHMARKS

    comparable = tuple(b for b in SPEC_BENCHMARKS if b not in GEM5_EXCLUDED)
    return [MEDIUM, LARGE, MEGA], _all_schemes(), comparable


def _needs_exchange2():
    return [MEGA], _all_schemes(), ("548.exchange2",)


EXPERIMENTS = {
    "table1": Experiment(experiment_table1, needs=_needs_baseline_only),
    "figure6": Experiment(experiment_figure6, needs=_needs_mega_all),
    "figure7": Experiment(experiment_figure7, needs=_needs_full_grid),
    "figure8": Experiment(experiment_figure8, needs=_needs_full_grid),
    "figure9": Experiment(experiment_figure9),  # analytic, cache-free
    "figure10": Experiment(experiment_figure10, needs=_needs_baseline_only),
    "table3": Experiment(experiment_table3, needs=_needs_full_grid),
    # Figure 1 plots Table 3's data (same callable, same needs).
    "figure1": Experiment(experiment_table3, needs=_needs_full_grid),
    "table4": Experiment(experiment_table4, needs=_needs_mega_all),
    "table5": Experiment(experiment_table5, needs=_needs_table5),
    "exchange2": Experiment(experiment_exchange2, needs=_needs_exchange2),
    # The ablations build their own cores with ad-hoc configs and never
    # consult the runner cache.
    "ablation-store-taints": Experiment(experiment_ablation_store_taints),
    "ablation-l1-latency": Experiment(experiment_ablation_l1_latency),
}


def experiment_ids():
    return sorted(EXPERIMENTS)


def experiment_grid_needs(experiment_id):
    """Grid cells an experiment reads, from its registry declaration.

    Returns ``(configs, schemes, benchmarks)`` — ``benchmarks=None``
    meaning the runner's full selection — or ``None`` for cache-free
    experiments.  Callers use this to pre-populate *only* the slices a
    requested experiment will consume, instead of the whole standard
    grid.
    """
    entry = EXPERIMENTS.get(experiment_id)
    if entry is None or entry.needs is None:
        return None
    return entry.needs()


def run_experiment(experiment_id, runner):
    """Run one experiment by id on ``runner``; returns an
    :class:`ExperimentReport`."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            "unknown experiment %r (choose from %s)"
            % (experiment_id, ", ".join(experiment_ids()))
        )
    return EXPERIMENTS[experiment_id].func(runner)

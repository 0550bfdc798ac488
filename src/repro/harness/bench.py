"""Simulator-throughput benchmarking and profiling.

Not a paper artefact: this measures the *model itself* — simulated
cycles per wall-clock second and committed kilo-instructions per second
(KIPS) — so kernel performance regressions show up in the BENCH
trajectory instead of silently inflating every campaign.

One canonical workload suite (:func:`throughput_suite`) is shared by

* ``python -m repro bench`` — runs the suite, prints a JSON report;
* ``benchmarks/bench_simulator_throughput.py`` — the pytest-benchmark
  wrapper timing the same workloads;
* ``python -m repro profile`` — a cProfile wrapper over one grid cell
  for targeted optimisation work.

The suite deliberately spans the kernel's performance regimes:

* ``streaming-warm`` — high-IPC, issue/rename-bound (warm caches);
* ``chase-cold``     — serial DRAM misses, idle-cycle fast-forward's
  best case (the event-heap jumps whole miss latencies at once);
* ``forwarding-cold`` — dense store-to-load traffic: forwarding,
  partial store issue, ordering-violation flushes;
* ``shadowed-miss-cold`` — independent misses completing under slow
  branch shadows: the secure-scheme release-window regime (withheld
  NDA broadcasts draining on a budget, STT untaint catch-ups) that the
  other workloads barely touch;
* ``mixed``          — generated SPEC-proxy-style blend of branches,
  ALU chains, mul/div, and memory traffic.
"""

import cProfile
import io
import json
import os
import platform
import pstats
import subprocess
import sys
import time

from repro.core.factory import make_scheme
from repro.pipeline.config import MEGA, boom_config
from repro.pipeline.core import OoOCore
from repro.workloads.generator import WorkloadProfile, generate_program
from repro.workloads.kernels import (
    chase_kernel,
    forwarding_kernel,
    shadowed_miss_kernel,
    streaming_kernel,
)


#: Labels of the canonical throughput workloads, in suite order —
#: usable at pytest collection time without building any program.
THROUGHPUT_LABELS = ("streaming-warm", "chase-cold", "forwarding-cold",
                     "shadowed-miss-cold", "mixed")


def throughput_suite(scale=1.0):
    """The canonical throughput workloads: ``[(label, program, warm)]``.

    Labels match :data:`THROUGHPUT_LABELS`.  ``scale`` multiplies
    iteration counts (smoke runs vs. tighter measurements), mirroring
    the campaign engine's ``--scale``.
    """
    its = lambda n: max(2, int(round(n * scale)))  # noqa: E731
    return [
        ("streaming-warm",
         streaming_kernel(iterations=its(300), array_words=1024), True),
        ("chase-cold",
         chase_kernel(iterations=its(300), ring_words=4096), False),
        ("forwarding-cold",
         forwarding_kernel(iterations=its(200), slots=8, array_words=1024),
         False),
        ("shadowed-miss-cold",
         shadowed_miss_kernel(iterations=its(250), guard_words=4096,
                              victim_words=4096),
         False),
        ("mixed",
         generate_program(
             WorkloadProfile(name="mixed", iterations=its(30),
                             body_templates=8, body_blocks=3,
                             working_set_words=2048, ring_words=64,
                             scratch_words=32),
             seed=7,
         ), False),
    ]


#: program id -> recorded trace, memoised per process so the (one-time,
#: untimed) recording cost is paid once per suite program, not per
#: repeat — production campaigns amortise it the same way through the
#: trace cache.
_TRACE_MEMO = {}


def _trace_for(program):
    # The memo pins the program object itself so an id() can never be
    # recycled onto a different program while its entry is alive.
    entry = _TRACE_MEMO.get(id(program))
    if entry is None or entry[0] is not program:
        from repro.isa.trace import record_trace

        _TRACE_MEMO[id(program)] = entry = (program, record_trace(program))
    return entry[1]


def host_metadata():
    """Where a bench number came from: interpreter, OS, CPUs, git rev.

    Throughput is only comparable within a host/interpreter pair, so
    every BENCH_*.json records the provenance needed to bucket the
    trajectory.  Best-effort: the git revision is ``None`` outside a
    checkout (or without a git binary) rather than an error.
    """
    rev = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if probe.returncode == 0:
            rev = probe.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_revision": rev,
    }


def _run_once(program, config, scheme_name, warm):
    trace = _trace_for(program)  # recorded outside the timed region
    core = OoOCore(program, config=config, scheme=make_scheme(scheme_name),
                   warm_caches=warm, trace=trace)
    start = time.perf_counter()
    result = core.run()
    wall = time.perf_counter() - start
    return core, result, wall


def _bench_scheme(suite, config, scheme_name, repeats):
    """Best-of-N the suite under one scheme: (workloads, totals)."""
    workloads = []
    total_cycles = 0
    total_instructions = 0
    total_wall = 0.0
    for label, program, warm in suite:
        best_wall = None
        for _ in range(max(1, repeats)):
            core, result, wall = _run_once(program, config, scheme_name, warm)
            if best_wall is None or wall < best_wall:
                best_wall = wall
        cycles = result.cycles
        instructions = result.stats.committed_instructions
        total_cycles += cycles
        total_instructions += instructions
        total_wall += best_wall
        workloads.append({
            "workload": label,
            "wall_seconds": round(best_wall, 6),
            "cycles": cycles,
            "instructions": instructions,
            "ipc": round(result.ipc, 4),
            "cycles_per_second": round(cycles / best_wall, 1),
            "committed_kips": round(instructions / best_wall / 1000.0, 3),
            "fast_forwarded_cycles": core.ff_skipped_cycles,
        })
    totals = {
        "wall_seconds": round(total_wall, 6),
        "cycles": total_cycles,
        "instructions": total_instructions,
        "cycles_per_second": round(total_cycles / total_wall, 1),
        "committed_kips": round(total_instructions / total_wall / 1000.0, 3),
    }
    return workloads, totals


def run_throughput_bench(config=MEGA, scheme_name="baseline", scale=1.0,
                         repeats=3, schemes=None):
    """Measure the throughput suite; returns a JSON-ready report dict.

    Each workload is simulated ``repeats`` times and the fastest run is
    reported (standard best-of-N to shed scheduler noise).  The
    ``aggregate`` entry is the headline number: total simulated cycles
    of the suite divided by total (best) wall time.

    With ``schemes`` (an iterable of scheme names) the suite runs once
    per scheme over the *same* generated programs and the report gains
    a ``schemes`` section keyed by name — this is how the BENCH
    trajectory tracks kernel speed on NDA/STT cells, not just the
    baseline; ``aggregate`` then sums over every scheme.
    """
    suite = throughput_suite(scale=scale)
    if schemes is None:
        workloads, totals = _bench_scheme(suite, config, scheme_name, repeats)
        return {
            "benchmark": "simulator_throughput",
            "config": config.name,
            "scheme": scheme_name,
            "scale": scale,
            "repeats": repeats,
            "host": host_metadata(),
            "workloads": workloads,
            "aggregate": totals,
        }

    per_scheme = {}
    total_cycles = 0
    total_instructions = 0
    total_wall = 0.0
    for name in schemes:
        workloads, totals = _bench_scheme(suite, config, name, repeats)
        per_scheme[name] = {"workloads": workloads, "aggregate": totals}
        total_cycles += totals["cycles"]
        total_instructions += totals["instructions"]
        total_wall += totals["wall_seconds"]
    return {
        "benchmark": "simulator_throughput",
        "config": config.name,
        "scale": scale,
        "repeats": repeats,
        "host": host_metadata(),
        "schemes": per_scheme,
        "aggregate": {
            "wall_seconds": round(total_wall, 6),
            "cycles": total_cycles,
            "instructions": total_instructions,
            "cycles_per_second": round(total_cycles / total_wall, 1),
            "committed_kips": round(total_instructions / total_wall / 1000.0,
                                    3),
        },
    }


def format_bench_report(report, indent=2):
    """Render a bench report as JSON text (the CLI contract)."""
    return json.dumps(report, indent=indent, sort_keys=False)


# -- report comparison -----------------------------------------------------


def _report_schemes(report):
    """Normalise both report shapes to ``{scheme: {workloads, aggregate}}``.

    Single-scheme reports key their one section under the recorded
    scheme name, so old single-scheme BENCH files stay comparable
    against newer multi-scheme ones.
    """
    if "schemes" in report:
        return report["schemes"]
    return {report.get("scheme", "baseline"): {
        "workloads": report.get("workloads", []),
        "aggregate": report.get("aggregate", {}),
    }}


#: Host-metadata keys whose disagreement invalidates a throughput
#: comparison.  ``git_revision`` is deliberately absent: differing
#: revisions are the *point* of a before/after comparison.
_HOST_COMPARE_KEYS = ("python", "implementation", "platform", "cpu_count")


def _delta_row(label, old_totals, new_totals):
    old_cps = old_totals.get("cycles_per_second")
    new_cps = new_totals.get("cycles_per_second")
    row = {"workload": label, "old_cps": old_cps, "new_cps": new_cps,
           "speedup": None, "delta_pct": None}
    if old_cps and new_cps:
        row["speedup"] = round(new_cps / old_cps, 3)
        row["delta_pct"] = round(100.0 * (new_cps - old_cps) / old_cps, 1)
    return row


def compare_bench_reports(old, new):
    """Structured delta between two bench reports (old -> new).

    Produces per-scheme, per-workload cycles-per-second rows, a
    per-scheme aggregate row, and the overall-aggregate row, plus
    ``host_mismatches`` — human-readable disagreements between the two
    reports' host metadata (interpreter, platform, CPU count) that make
    wall-clock throughput numbers incomparable.  Schemes or workloads
    present in only one report are listed in ``only_old``/``only_new``
    rather than silently dropped.
    """
    mismatches = []
    old_host = old.get("host", {})
    new_host = new.get("host", {})
    for key in _HOST_COMPARE_KEYS:
        if old_host.get(key) != new_host.get(key):
            mismatches.append("%s: %r -> %r"
                              % (key, old_host.get(key), new_host.get(key)))
    for key in ("config", "scale"):
        if old.get(key) != new.get(key):
            mismatches.append("%s: %r -> %r"
                              % (key, old.get(key), new.get(key)))

    old_schemes = _report_schemes(old)
    new_schemes = _report_schemes(new)
    shared = [name for name in old_schemes if name in new_schemes]
    schemes = {}
    for name in shared:
        old_by_label = {w["workload"]: w
                        for w in old_schemes[name].get("workloads", [])}
        new_by_label = {w["workload"]: w
                        for w in new_schemes[name].get("workloads", [])}
        rows = [_delta_row(label, old_by_label[label], new_by_label[label])
                for label in old_by_label if label in new_by_label]
        schemes[name] = {
            "workloads": rows,
            "aggregate": _delta_row("aggregate",
                                    old_schemes[name].get("aggregate", {}),
                                    new_schemes[name].get("aggregate", {})),
            "only_old": sorted(set(old_by_label) - set(new_by_label)),
            "only_new": sorted(set(new_by_label) - set(old_by_label)),
        }
    return {
        "host_mismatches": mismatches,
        "schemes": schemes,
        "only_old": sorted(set(old_schemes) - set(new_schemes)),
        "only_new": sorted(set(new_schemes) - set(old_schemes)),
        "aggregate": _delta_row("aggregate", old.get("aggregate", {}),
                                new.get("aggregate", {})),
    }


def _format_delta_rows(rows, out):
    width = max([len(r["workload"]) for r in rows] + [9])
    header = "%-*s  %14s  %14s  %9s  %8s" % (
        width, "workload", "old cyc/s", "new cyc/s", "speedup", "delta")
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        if row["speedup"] is None:
            out.append("%-*s  %14s  %14s  %9s  %8s"
                       % (width, row["workload"],
                          row["old_cps"] if row["old_cps"] is not None
                          else "-",
                          row["new_cps"] if row["new_cps"] is not None
                          else "-",
                          "-", "-"))
        else:
            out.append("%-*s  %14.1f  %14.1f  %8.3fx  %+7.1f%%"
                       % (width, row["workload"], row["old_cps"],
                          row["new_cps"], row["speedup"],
                          row["delta_pct"]))


def format_bench_comparison(comparison):
    """Render :func:`compare_bench_reports` output as an aligned text
    table (one block per shared scheme, overall aggregate last)."""
    out = []
    if comparison["host_mismatches"]:
        out.append("WARNING: reports come from different hosts/settings; "
                   "throughput deltas are not comparable:")
        for line in comparison["host_mismatches"]:
            out.append("  %s" % line)
        out.append("")
    for name, section in comparison["schemes"].items():
        out.append("scheme: %s" % name)
        _format_delta_rows(section["workloads"] + [section["aggregate"]],
                           out)
        for key, noun in (("only_old", "old"), ("only_new", "new")):
            if section[key]:
                out.append("  (workloads only in %s report: %s)"
                           % (noun, ", ".join(section[key])))
        out.append("")
    for key, noun in (("only_old", "old"), ("only_new", "new")):
        if comparison[key]:
            out.append("(schemes only in %s report: %s)"
                       % (noun, ", ".join(comparison[key])))
    out.append("overall:")
    _format_delta_rows([comparison["aggregate"]], out)
    return "\n".join(out)


# -- profiling -------------------------------------------------------------


#: ``--sort`` choices for :func:`profile_cell` (``cumtime`` is the
#: pstats alias for ``cumulative``; both accepted for muscle memory).
PROFILE_SORTS = ("cumulative", "cumtime", "tottime")


def profile_cell(benchmark="chase-cold", config_name="mega",
                 scheme_name="baseline", scale=1.0, top=25,
                 sort="cumulative", as_json=False):
    """cProfile one grid cell; returns (report, result).

    ``benchmark`` names a throughput-suite workload (see
    :func:`throughput_suite`); the profile covers exactly one
    :meth:`OoOCore.run`, excluding workload generation and warm-up.
    ``report`` is the classic pstats text dump, or — with
    ``as_json=True`` — a JSON-ready dict whose ``functions`` list holds
    the top ``top`` rows under the chosen ``sort`` order, for scripted
    regression triage.
    """
    if sort not in PROFILE_SORTS:
        raise ValueError("unknown profile sort %r (choose from %s)"
                         % (sort, ", ".join(PROFILE_SORTS)))
    config = boom_config(config_name)
    if benchmark not in THROUGHPUT_LABELS:
        raise ValueError("unknown bench workload %r (choose from %s)"
                         % (benchmark, ", ".join(THROUGHPUT_LABELS)))
    for label, program, warm in throughput_suite(scale=scale):
        if label == benchmark:
            break
    core = OoOCore(program, config=config, scheme=make_scheme(scheme_name),
                   warm_caches=warm, trace=_trace_for(program))
    profiler = cProfile.Profile()
    profiler.enable()
    result = core.run()
    profiler.disable()
    if as_json:
        return _profile_json(profiler, benchmark, config_name, scheme_name,
                             sort, top, result), result
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return buffer.getvalue(), result


def _profile_json(profiler, benchmark, config_name, scheme_name, sort, top,
                  result):
    """Top-N profile rows as a JSON-ready dict (``--json`` contract)."""
    stats = pstats.Stats(profiler, stream=io.StringIO())
    # pstats rows: (file, line, func) -> (calls, prim_calls, tottime,
    # cumtime, callers); sort here instead of round-tripping the text.
    key = 2 if sort == "tottime" else 3
    rows = sorted(stats.stats.items(), key=lambda item: item[1][key],
                  reverse=True)[:max(1, top)]
    functions = [
        {
            "function": func,
            "file": filename,
            "line": line,
            "calls": calls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        }
        for (filename, line, func), (calls, _prim, tottime, cumtime,
                                     _callers) in rows
    ]
    return {
        "benchmark": benchmark,
        "config": config_name,
        "scheme": scheme_name,
        "sort": sort,
        "top": top,
        "simulated_cycles": result.cycles,
        "committed_instructions": result.stats.committed_instructions,
        "host": host_metadata(),
        "functions": functions,
    }

"""The throughput workload suite, and cProfile over one of its cells.

Not a paper artefact: these workloads exercise the *model itself*.
Simulator speed is measured end to end by ``perfbench/run.py``, the
benchmark of record; this module serves the two per-cell tools that
look inside one ``OoOCore.run()``:

* ``python -m repro profile`` — :func:`profile_cell`, a cProfile wrapper
  over one workload for targeted optimisation work;
* ``python -m repro pipeview`` — :func:`repro.obs.trace_pipeline`, a
  per-uop O3PipeView trace of one workload.

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
import os
import platform
import pstats
import subprocess
import sys

from repro.core.factory import make_scheme
from repro.isa.trace import record_trace
from repro.pipeline.config import boom_config
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


def throughput_workload(label, scale=1.0):
    """One suite workload by label: ``(program, warm)``.

    Raises ``ValueError`` naming the valid labels for anything else.
    """
    if label not in THROUGHPUT_LABELS:
        raise ValueError("unknown bench workload %r (choose from %s)"
                         % (label, ", ".join(THROUGHPUT_LABELS)))
    for name, program, warm in throughput_suite(scale=scale):
        if name == label:
            return program, warm


def host_metadata():
    """Where a timing came from: interpreter, OS, CPUs, git rev.

    Timings are only comparable within a host/interpreter pair, so
    ``profile --json`` reports and perfbench's recorded baselines carry
    the provenance needed to bucket them.  Best-effort: the git
    revision is ``None`` outside a checkout (or without a git binary)
    rather than an error.
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


# -- profiling -------------------------------------------------------------


#: ``--sort`` choices for :func:`profile_cell` (``cumtime`` is the
#: pstats alias for ``cumulative``; both accepted for muscle memory).
PROFILE_SORTS = ("cumulative", "cumtime", "tottime")


def profile_cell(benchmark="chase-cold", config_name="mega",
                 scheme_name="baseline", scale=1.0, top=25,
                 sort="cumulative", as_json=False):
    """cProfile one throughput-suite cell; returns (report, result).

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
    program, warm = throughput_workload(benchmark, scale=scale)
    core = OoOCore(program, config=config, scheme=make_scheme(scheme_name),
                   warm_caches=warm, trace=record_trace(program))
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

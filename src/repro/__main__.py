"""Command-line front end for the campaign engine: ``python -m repro``.

Subcommands:

``list``
    Print every experiment id.
``grid``
    Populate the (benchmark x config x scheme) grid on the chosen
    backend and print a cache/store/simulated summary.
``run EXPERIMENT [EXPERIMENT ...]``
    Run named experiments (or ``all``) and print their reports.  The
    grid slices those experiments read — declared in the experiment
    registry itself — are first populated on the chosen backend (one
    ``grid pre-populated`` summary line), so the experiments
    themselves are served from cache.
``store``
    Maintain the persistent result store: ``store verify`` decodes
    every cell and drops corrupt and stale ones, ``store gc`` evicts
    everything outside the standard campaign grid for the given
    scale/seed and reports the bytes reclaimed, ``store stats`` prints
    the format, cell count, bytes on disk, the bytes of the cells'
    payloads (statistics and records, as stored and before
    compression) with their compression ratio, and the failure count,
    and ``store failures`` lists recorded cell failures (exit 1 when
    any exists).
``schemes``
    List every registered speculation scheme straight from the scheme
    registry: canonical name, grid membership, kwargs schema, and the
    one-line description each scheme declares about itself.
``profile``
    cProfile one throughput-suite cell (default: ``chase-cold`` on
    mega/baseline) and print the top cumulative entries — the per-cell
    view beneath ``perfbench/run.py``'s campaign numbers.  ``--sort
    tottime`` reorders, ``--json`` emits the rows structurally.
``pipeview``
    Trace one throughput workload per-uop and dump it in gem5
    O3PipeView format — open the output in Konata to scrub through
    fetch/rename/issue/complete/retire of every instruction.
``metrics``
    Aggregate the ``cycacct.`` cycle-attribution extras stored with
    every campaign cell into a per-scheme stall breakdown (slots per
    leaf cause, scheme-delay sub-causes, conservation check).

Shared flags: ``--scale`` and ``--seed`` select the workload build,
``--benchmarks`` restricts the suite to the named SPEC proxies,
``--progress [human|json]`` streams done/total + cells/sec + ETA +
per-worker attribution to stderr (``json`` emits JSONL snapshots for
scripts), ``--store-dir`` relocates the persistent store, and
``--no-store`` disables it entirely (purely in-memory run).
``grid`` and ``run`` pick their backend with ``--executor
{pool,cluster}``: ``pool`` (the default) simulates on ``--jobs N``
processes, in-process at the default of 1; ``cluster`` serves a
loopback coordinator to ``--local-workers`` threads.  Results stream
into the store as cells finish, so an interrupted campaign resumes by
running the same command again against the same store.
"""

import argparse
import os
import sys

from repro.core.registry import (
    canonical_name,
    grid_scheme_names,
    iter_specs,
    scheme_names,
)
from repro.harness.bench import PROFILE_SORTS, THROUGHPUT_LABELS, profile_cell
from repro.harness.executor import PoolExecutor
from repro.harness.experiments import (
    EXPERIMENTS,
    experiment_grid_needs,
    experiment_ids,
    run_experiment,
)
from repro.harness.progress import make_progress
from repro.harness.runner import CampaignRunner
from repro.harness.store import (
    DEFAULT_STORE_DIR,
    ResultStore,
    StoreFormatError,
)
from repro.pipeline.config import boom_config
from repro.workloads.characteristics import SPEC_BENCHMARKS


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run ShadowBinding reproduction campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print every experiment id")

    def add_common(p):
        p.add_argument("--scale", type=float, default=1.0,
                       help="workload iteration multiplier (default 1.0)")
        p.add_argument("--seed", type=int, default=2017,
                       help="workload generation seed (default 2017)")
        p.add_argument("--benchmarks", nargs="+", metavar="NAME",
                       choices=SPEC_BENCHMARKS,
                       help="restrict to these benchmarks")
        p.add_argument("--store-dir", default=DEFAULT_STORE_DIR,
                       help="persistent store root (default %(default)s)")
        p.add_argument("--no-store", action="store_true",
                       help="skip the on-disk store (in-memory only)")
        p.add_argument("--progress", nargs="?", const="human",
                       choices=("human", "json"), default=None,
                       help="stream progress to stderr: human status"
                            " lines (default when given bare) or"
                            " machine-readable JSONL snapshots")

    def add_executor(p):
        p.add_argument("--executor", choices=("pool", "cluster"),
                       default="pool",
                       help="execution backend (default %(default)s)")
        p.add_argument("--jobs", type=int, default=1,
                       help="pool executor: worker processes (default 1:"
                            " in-process)")
        p.add_argument("--local-workers", type=_positive_int, default=1,
                       help="cluster executor: in-process worker threads"
                            " (default 1)")

    def add_selection(p):
        p.add_argument("--configs", nargs="+", metavar="NAME",
                       help="BOOM config names (default: all four)")
        p.add_argument("--schemes", nargs="+", metavar="NAME",
                       type=canonical_name, choices=scheme_names(),
                       help="scheme names (default: the standard grid,"
                            " %s)" % ", ".join(grid_scheme_names()))

    grid = sub.add_parser("grid", help="populate the simulation grid")
    add_common(grid)
    add_executor(grid)
    add_selection(grid)

    run = sub.add_parser("run", help="run named experiments (or 'all')")
    add_common(run)
    add_executor(run)
    run.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                     help="experiment ids, or 'all'")

    schemes = sub.add_parser(
        "schemes", help="list registered speculation schemes")
    schemes.add_argument("--verbose", action="store_true",
                         help="also print kwargs schemas")

    store = sub.add_parser(
        "store", help="maintain the persistent result store")
    store.add_argument("action",
                       choices=("verify", "gc", "stats", "failures"),
                       help="verify: drop corrupt and stale cells; gc:"
                            " evict cells outside the standard grid"
                            " (reports bytes reclaimed); stats: format,"
                            " cells, bytes on disk, compression ratio,"
                            " failures; failures: list recorded cell"
                            " failures (exit 1 when any exist)")
    store.add_argument("--store-dir", default=DEFAULT_STORE_DIR,
                       help="persistent store root (default %(default)s)")
    store.add_argument("--scale", type=float, default=1.0,
                       help="gc: grid scale to keep (default 1.0)")
    store.add_argument("--seed", type=int, default=2017,
                       help="gc: grid seed to keep (default 2017)")
    store.add_argument("--benchmarks", nargs="+", metavar="NAME",
                       choices=SPEC_BENCHMARKS,
                       help="gc: restrict the kept grid to these"
                            " benchmarks")

    profile = sub.add_parser(
        "profile",
        help="cProfile one throughput-suite cell (top cumulative entries)")
    profile.add_argument("--benchmark", default="chase-cold",
                         choices=THROUGHPUT_LABELS,
                         help="throughput workload (default chase-cold)")
    profile.add_argument("--config", default="mega",
                         help="BOOM config name (default mega)")
    profile.add_argument("--scheme", default="baseline",
                         type=canonical_name, choices=scheme_names(),
                         help="scheme name (default baseline)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="workload iteration multiplier (default 1.0)")
    profile.add_argument("--top", type=int, default=25,
                         help="profile entries to print (default 25)")
    profile.add_argument("--sort", default="cumulative",
                         choices=PROFILE_SORTS,
                         help="pstats sort key (default cumulative)")
    profile.add_argument("--json", action="store_true",
                         help="emit the top entries as JSON instead of"
                              " the pstats text dump (for scripted"
                              " regression triage)")

    pipeview = sub.add_parser(
        "pipeview",
        help="dump a Konata-compatible O3PipeView trace of one workload")
    pipeview.add_argument("benchmark", choices=THROUGHPUT_LABELS,
                          help="throughput workload to trace")
    pipeview.add_argument("--config", default="mega",
                          help="BOOM config name (default mega)")
    pipeview.add_argument("--scheme", default="baseline",
                          type=canonical_name, choices=scheme_names(),
                          help="scheme name (default baseline)")
    pipeview.add_argument("--scale", type=float, default=1.0,
                          help="workload iteration multiplier"
                               " (default 1.0)")
    pipeview.add_argument("--limit", type=int, default=5000,
                          help="max uops captured (default 5000; later"
                               " uops are dropped, not sampled)")
    pipeview.add_argument("--output", metavar="PATH", default=None,
                          help="write the trace to PATH instead of"
                               " stdout")

    metrics = sub.add_parser(
        "metrics",
        help="per-scheme stall-attribution report over a result store")
    metrics.add_argument("store_dir", nargs="?", default=DEFAULT_STORE_DIR,
                         help="persistent store root"
                              " (default %(default)s)")
    return parser


def make_runner(args):
    store = None if args.no_store else ResultStore(args.store_dir)
    if store is not None:
        # Persist generated programs next to the result store so
        # repeated processes (and forked pool workers) skip generation.
        from repro.workloads.program_cache import configure_disk_cache

        configure_disk_cache(os.path.join(args.store_dir, "programs"))
    return CampaignRunner(scale=args.scale, seed=args.seed,
                          benchmarks=args.benchmarks, store=store)


def make_cli_executor(args):
    """The Executor ``--executor`` names, built from its flags."""
    if args.executor == "cluster":
        from repro.harness.cluster import ClusterExecutor

        return ClusterExecutor(local_workers=args.local_workers)
    return PoolExecutor(jobs=args.jobs)


def _selected_configs(args):
    return ([boom_config(name) for name in args.configs]
            if args.configs else None)


def cmd_grid(args):
    runner = make_runner(args)
    schemes = tuple(args.schemes) if args.schemes else grid_scheme_names()
    summary = runner.run_grid(configs=_selected_configs(args),
                              schemes=schemes,
                              executor=make_cli_executor(args),
                              progress=make_progress(args.progress))
    print(_summary_line("grid", summary))
    return 0 if not summary.get("failed") else 1


def _summary_line(label, summary):
    line = ("%s: %d cells — %d simulated, %d from store, %d cached"
            % (label, summary["total"], summary["simulated"],
               summary["from_store"], summary["cached"]))
    if summary.get("failed"):
        line += ", %d failed" % summary["failed"]
    return line


def _needed_cells(experiment_ids_, runner):
    """Every grid cell the requested experiments will read.

    Only these are pre-populated — asking for one small
    experiment never pays for the full standard grid.  A cell several
    experiments share is listed once per experiment;
    :meth:`~repro.harness.runner.CampaignRunner.run_cell_batch` dedups
    by cell key, the one definition of cell identity.
    """
    cells = []
    for experiment_id in experiment_ids_:
        needs = experiment_grid_needs(experiment_id)
        if needs is None:
            continue
        configs, schemes, benchmarks = needs
        selected = [b for b in (benchmarks or runner.benchmarks)
                    if b in runner.benchmarks]
        cells.extend((benchmark, config, scheme)
                     for config in configs
                     for scheme in schemes
                     for benchmark in selected)
    return cells


def cmd_run(args):
    ids = list(args.experiments)
    if ids == ["all"]:
        # One id per experiment callable: figure1 and table3 share one.
        ids = list({EXPERIMENTS[i].func: i for i in experiment_ids()}.values())
    unknown = [i for i in ids if i not in experiment_ids()]
    if unknown:
        print("unknown experiment(s): %s (choose from %s)"
              % (", ".join(unknown), ", ".join(experiment_ids())),
              file=sys.stderr)
        return 2
    runner = make_runner(args)
    cells = _needed_cells(ids, runner)
    if cells:
        summary = runner.run_cell_batch(
            cells, executor=make_cli_executor(args),
            progress=make_progress(args.progress))
        print(_summary_line("grid pre-populated", summary))
    for experiment_id in ids:
        report = run_experiment(experiment_id, runner=runner)
        print(report)
        print()
    return 0


def _format_bytes(count):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return ("%d %s" % (count, unit) if unit == "B"
                    else "%.1f %s" % (count, unit))
        count /= 1024.0


def cmd_store(args):
    store = ResultStore(args.store_dir)
    if args.action == "verify":
        summary = store.verify()
        print("store verify (%s): %d scanned, %d kept, %d corrupt dropped,"
              " %d stale dropped"
              % (store.root, summary["scanned"], summary["kept"],
                 summary["corrupt"], summary["stale"]))
        return 0
    if args.action == "stats":
        stats = store.stats()
        print("store stats (%s): format %s" % (store.root, stats["format"]))
        print("  cells: %d" % stats["cells"])
        print("  disk: %s (statistics and records %s of raw %s, ratio %s)"
              % (_format_bytes(stats["disk_bytes"]),
                 _format_bytes(stats["live_bytes"]),
                 _format_bytes(stats["raw_bytes"]),
                 "%.2fx" % stats["compression_ratio"]
                 if stats["compression_ratio"] else "n/a"))
        print("  failures recorded: %d" % stats["failures"])
        return 0
    if args.action == "failures":
        failures = store.failures()
        for record in failures:
            print("%s  %s/%s/%s  %s x%d (worker %s): %s"
                  % (record.key[:12], record.benchmark,
                     record.config_name or "-", record.scheme_name,
                     record.kind, record.attempts,
                     record.worker or "?", record.error))
        print("store failures (%s): %d recorded"
              % (store.root, len(failures)))
        return 1 if failures else 0
    runner = CampaignRunner(scale=args.scale, seed=args.seed,
                            benchmarks=args.benchmarks)
    from repro.pipeline.config import named_configs

    keep = [
        runner.cell_key(benchmark, config, scheme)
        for config in named_configs()
        for scheme in grid_scheme_names()
        for benchmark in runner.benchmarks
    ]
    summary = store.gc(keep)
    print("store gc (%s): %d scanned, %d kept, %d dropped, %s reclaimed"
          % (store.root, summary["scanned"], summary["kept"],
             summary["dropped"], _format_bytes(summary["bytes_reclaimed"])))
    return 0


def cmd_schemes(args):
    for spec in iter_specs():
        grid = "grid" if spec.grid else "    "
        print("%-14s [%s] %s" % (spec.name, grid, spec.doc))
        if args.verbose and spec.kwargs:
            for key, entry in sorted(spec.kwargs.items()):
                print("    %s: %s = %r  %s"
                      % (key, entry.type.__name__, entry.default, entry.doc))
    return 0


def cmd_profile(args):
    import json

    report, result = profile_cell(
        benchmark=args.benchmark, config_name=args.config,
        scheme_name=args.scheme, scale=args.scale, top=args.top,
        sort=args.sort, as_json=args.json,
    )
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print("profiled %s on %s/%s: %s"
          % (args.benchmark, args.config, args.scheme,
             result.stats.summary()))
    print(report)
    return 0


def cmd_pipeview(args):
    from repro.obs import trace_pipeline

    tracer, result = trace_pipeline(
        args.benchmark, config=boom_config(args.config),
        scheme_name=args.scheme, scale=args.scale, limit=args.limit,
    )
    text = tracer.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %d uop record(s) to %s (open with Konata)"
              % (len(tracer.records), args.output), file=sys.stderr)
    else:
        sys.stdout.write(text)
    print("traced %s on %s/%s: %s"
          % (args.benchmark, args.config, args.scheme,
             result.stats.summary()), file=sys.stderr)
    if tracer.dropped:
        print("trace truncated: %d uop(s) beyond --limit %d dropped"
              % (tracer.dropped, args.limit), file=sys.stderr)
    return 0


def cmd_metrics(args):
    from repro.analysis.stalls import (
        format_stall_report,
        store_stall_breakdown,
    )

    store = ResultStore(args.store_dir)
    breakdown = store_stall_breakdown(store)
    if not breakdown:
        print("no cycle-accounted results under %s — run a campaign"
              " first (accounting is always on for campaign cells)"
              % store.root, file=sys.stderr)
        return 1
    print(format_stall_report(breakdown))
    return 0


_COMMANDS = {
    "grid": cmd_grid,
    "store": cmd_store,
    "schemes": cmd_schemes,
    "profile": cmd_profile,
    "pipeview": cmd_pipeview,
    "metrics": cmd_metrics,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("\n".join(experiment_ids()))
        return 0
    handler = _COMMANDS.get(args.command, cmd_run)
    # Commands may point the process-global program disk cache at their
    # store dir (make_runner); scope that to the command so embedded
    # callers (tests invoking main() in-process) never leak one run's
    # cache directory into the next.
    from repro.workloads.program_cache import configure_disk_cache, disk_cache_dir

    previous = disk_cache_dir()
    try:
        return handler(args)
    except StoreFormatError as exc:
        # The message says what to do with the directory; a stack
        # trace would only bury it.
        print(exc, file=sys.stderr)
        return 1
    finally:
        configure_disk_cache(previous)


if __name__ == "__main__":
    sys.exit(main())

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
``serve``
    Host a campaign as a cluster coordinator: bind a TCP port, serve
    grid cells to any number of ``work`` clients (work-stealing), and
    stream results into the store.  Prints the ``work --connect`` line
    to attach workers from other hosts.  The campaign journals itself
    next to the store; ``serve --resume`` replays the journal (queue
    order, attempt counts, quarantines) after a coordinator crash.
    Deterministic cell failures are recorded and skipped by default;
    ``--fail-fast`` restores abort-on-first-error.
``work``
    Join a cluster as a worker: ``--connect HOST:PORT``, pull cells,
    simulate, report, repeat until the coordinator drains.  Transient
    connection loss retries with capped exponential backoff
    (``--max-reconnects``); ``--cell-timeout`` converts hung cells
    into reported timeouts.
``store``
    Maintain the persistent result store: ``store verify`` quarantines
    corrupt cells aside (``.corrupt``) and drops stale ones,
    ``store gc`` evicts everything outside the standard campaign grid
    for the given scale/seed and reports the bytes reclaimed,
    ``store stats`` prints cell/segment counts, bytes on disk,
    compression ratio, and the count of unmigrated JSON-per-cell files,
    ``store compact`` folds live records into fresh sealed segments,
    ``store migrate`` converts JSON-per-cell files from earlier
    releases into segment records in place (the store reads nothing
    else), and ``store failures`` lists recorded cell failures (exit 1
    when any exist).
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
loopback coordinator (``--bind``) to ``--local-workers`` threads and
to any ``work --connect`` client.
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
from repro.harness.store import DEFAULT_STORE_DIR, ResultStore
from repro.pipeline.config import boom_config
from repro.workloads.characteristics import SPEC_BENCHMARKS

#: Default coordinator port (the SPEC vintage; above the privileged range).
DEFAULT_PORT = 2017


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
        p.add_argument("--bind", metavar="HOST:PORT", default="127.0.0.1:0",
                       help="cluster executor bind address"
                            " (default %(default)s; port 0 = ephemeral)")
        p.add_argument("--local-workers", type=int, default=1,
                       help="cluster executor: in-process worker threads"
                            " (default 1; remote workers attach via"
                            " 'work --connect')")

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

    serve = sub.add_parser(
        "serve", help="host a campaign for cluster workers (coordinator)")
    add_common(serve)
    add_selection(serve)
    serve.add_argument("--host", default="0.0.0.0",
                       help="bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="bind port (default %(default)s; 0 = ephemeral)")
    serve.add_argument("--local-workers", type=int, default=0,
                       help="also run N in-process worker threads"
                            " (default 0: wait for remote workers)")
    serve.add_argument("--heartbeat-timeout", type=float, default=10.0,
                       help="seconds of worker silence before its cells"
                            " are requeued (default 10)")
    serve.add_argument("--resume", action="store_true",
                       help="replay the campaign journal from a crashed"
                            " coordinator (queue order, attempts,"
                            " quarantines) before serving")
    serve.add_argument("--fail-fast", action="store_true",
                       help="abort the campaign on the first cell"
                            " failure (default: record and continue)")
    serve.add_argument("--max-cell-attempts", type=int, default=None,
                       help="worker deaths holding one cell before it is"
                            " quarantined as poisoned (default 3)")

    work = sub.add_parser(
        "work", help="join a cluster campaign as a worker")
    work.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="coordinator address")
    work.add_argument("--name", default=None,
                      help="worker name (default host-pid-tid)")
    work.add_argument("--heartbeat-interval", type=float, default=2.0,
                      help="seconds between heartbeats (default 2)")
    work.add_argument("--max-cells", type=int, default=None,
                      help="stop after N cells (default: until drained)")
    work.add_argument("--max-reconnects", type=int, default=5,
                      help="reconnect attempts (capped exponential"
                           " backoff) after losing the coordinator"
                           " (default 5; 0 = give up immediately)")
    work.add_argument("--cell-timeout", type=float, default=None,
                      help="per-cell wall-clock deadline in seconds;"
                           " a hung cell is reported as a timeout"
                           " failure (default: none)")
    work.add_argument("--program-cache-dir", default=None, metavar="DIR",
                      help="persist generated programs under DIR so"
                           " repeated worker processes skip generation"
                           " (default: $REPRO_PROGRAM_CACHE_DIR)")

    schemes = sub.add_parser(
        "schemes", help="list registered speculation schemes")
    schemes.add_argument("--verbose", action="store_true",
                         help="also print kwargs schemas")

    store = sub.add_parser(
        "store", help="maintain the persistent result store")
    store.add_argument("action",
                       choices=("verify", "gc", "stats", "compact",
                                "migrate", "failures"),
                       help="verify: quarantine corrupt cells aside and"
                            " drop stale ones; gc: evict cells outside"
                            " the standard grid (reports bytes"
                            " reclaimed); stats: cell/segment counts,"
                            " bytes on disk, compression ratio,"
                            " unmigrated JSON files; compact: fold live"
                            " records into fresh sealed segments;"
                            " migrate: convert JSON-per-cell files from"
                            " earlier releases into segments in place"
                            " (no other command reads them); failures:"
                            " list recorded cell failures (exit 1 when"
                            " any exist)")
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


def parse_hostport(text, default_port=DEFAULT_PORT):
    """``HOST:PORT`` / ``HOST`` / ``:PORT`` -> (host, port)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port
    return host or "127.0.0.1", int(port)


def _announce(address):
    host, port = address
    connect_host = "<this-host>" if host in ("0.0.0.0", "::") else host
    print("cluster coordinator serving on %s:%d" % (host, port))
    print("attach workers with: python -m repro work --connect %s:%d"
          % (connect_host, port))


def make_cli_executor(args):
    """The Executor ``--executor`` names, built from its flags."""
    if args.executor == "cluster":
        from repro.harness.cluster import ClusterExecutor

        host, port = parse_hostport(args.bind, default_port=0)
        return ClusterExecutor(host=host, port=port,
                               local_workers=args.local_workers,
                               on_serving=_announce)
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


def cmd_serve(args):
    from repro.harness.cluster import ClusterExecutor
    from repro.harness.cluster.coordinator import DEFAULT_MAX_CELL_ATTEMPTS
    from repro.harness.journal import journal_path

    runner = make_runner(args)
    schemes = tuple(args.schemes) if args.schemes else grid_scheme_names()
    executor = ClusterExecutor(
        host=args.host, port=args.port, local_workers=args.local_workers,
        heartbeat_timeout=args.heartbeat_timeout, on_serving=_announce,
        fail_fast=args.fail_fast,
        max_cell_attempts=(DEFAULT_MAX_CELL_ATTEMPTS
                           if args.max_cell_attempts is None
                           else args.max_cell_attempts),
        journal_path=(None if args.no_store
                      else journal_path(args.store_dir)),
        resume=args.resume,
    )
    summary = runner.run_grid(configs=_selected_configs(args),
                              schemes=schemes, executor=executor,
                              progress=make_progress(args.progress
                                                     or "human"))
    print(_summary_line("campaign drained", summary))
    stats = executor.last_stats
    if stats and stats["workers"]:
        attribution = ", ".join(
            "%s:%d" % (name, count)
            for name, count in sorted(stats["workers"].items()))
        print("workers: %s (requeues: %d)"
              % (attribution, stats["requeues"]))
    if stats and stats.get("telemetry"):
        from repro.obs.telemetry import format_rollup

        print(format_rollup(stats["telemetry"]))
    if stats and (stats.get("failed") or stats.get("quarantined")):
        print("failures: %d deterministic/timeout, %d quarantined"
              " — inspect with: python -m repro store failures"
              % (stats["failed"], stats["quarantined"]), file=sys.stderr)
    return 0 if not summary.get("failed") else 1


def cmd_work(args):
    from repro.harness.cluster import ClusterWorker

    if args.program_cache_dir:
        from repro.workloads.program_cache import configure_disk_cache

        configure_disk_cache(args.program_cache_dir)
    host, port = parse_hostport(args.connect)
    worker = ClusterWorker(host, port, name=args.name,
                           heartbeat_interval=args.heartbeat_interval,
                           max_cells=args.max_cells,
                           max_reconnects=args.max_reconnects,
                           cell_timeout=args.cell_timeout)
    completed = worker.run()
    if worker.rejected:
        print("worker rejected by coordinator after %d cell(s): %s"
              % (completed, worker.last_error), file=sys.stderr)
        return 1
    if worker.disconnected:
        print("worker lost its coordinator after %d cell(s)"
              " (%d reconnect(s) spent): %s"
              % (completed, worker.reconnects, worker.last_error),
              file=sys.stderr)
        return 1
    print("worker done: %d cell(s) simulated" % completed)
    if worker.reconnects:
        print("worker survived %d reconnect(s)" % worker.reconnects,
              file=sys.stderr)
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
        print("store verify (%s): %d scanned, %d kept, %d corrupt set"
              " aside, %d stale dropped"
              % (store.root, summary["scanned"], summary["kept"],
                 summary["corrupt"], summary["stale"]))
        return 0
    if args.action == "stats":
        stats = store.stats()
        print("store stats (%s): format %s" % (store.root, stats["format"]))
        print("  cells: %d segment-backed, %d legacy JSON%s"
              % (stats["cells"], stats["legacy_cells"],
                 " — run 'store migrate' to convert"
                 if stats["legacy"] else ""))
        print("  segments: %d (%s; live %s of raw %s, ratio %s)"
              % (stats["segments"], _format_bytes(stats["segment_bytes"]),
                 _format_bytes(stats["live_bytes"]),
                 _format_bytes(stats["raw_bytes"]),
                 "%.2fx" % stats["compression_ratio"]
                 if stats["compression_ratio"] else "n/a"))
        print("  disk: %s total (manifest %s, legacy %s)"
              % (_format_bytes(stats["disk_bytes"]),
                 _format_bytes(stats["manifest_bytes"]),
                 _format_bytes(stats["legacy_bytes"])))
        print("  failures recorded: %d" % stats["failures"])
        return 0
    if args.action == "compact":
        summary = store.compact()
        print("store compact (%s): %d cells, %d -> %d segment(s),"
              " %s -> %s%s"
              % (store.root, summary["cells"],
                 summary["segments_before"], summary["segments_after"],
                 _format_bytes(summary["bytes_before"]),
                 _format_bytes(summary["bytes_after"]),
                 ", %d corrupt dropped" % summary["corrupt_dropped"]
                 if summary["corrupt_dropped"] else ""))
        return 0
    if args.action == "migrate":
        summary = store.migrate()
        print("store migrate (%s): %d cell(s) migrated, %d skipped"
              % (store.root, summary["migrated"], summary["skipped"]))
        return 0 if not summary["skipped"] else 1
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
    "serve": cmd_serve,
    "work": cmd_work,
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
    # store dir (make_runner) or a --program-cache-dir; scope that to
    # the command so embedded callers (tests invoking main() in-process)
    # never leak one run's cache directory into the next.
    from repro.workloads.program_cache import configure_disk_cache, disk_cache_dir

    previous = disk_cache_dir()
    try:
        return handler(args)
    finally:
        configure_disk_cache(previous)


if __name__ == "__main__":
    sys.exit(main())

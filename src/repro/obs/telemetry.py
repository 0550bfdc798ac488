"""Cluster telemetry: per-cell frame stamps and campaign rollups.

Telemetry travels on the *wire frame* as an optional ``telemetry``
sibling of the result payload — deliberately not inside the stored
:class:`~repro.pipeline.core.SimulationResult`, so stores stay
byte-identical across serial / pool / cluster / chaotic runs.  Old
coordinators ignore the extra key; old workers simply do not send it
(the protocol version is unchanged).

The worker stamps each frame via :func:`cell_telemetry`; the
coordinator feeds frames into a :class:`TelemetryAggregate`, whose
:meth:`~TelemetryAggregate.rollup` rides ``coordinator.stats()`` out
to the CLI.
"""


def cell_telemetry(result, wall_seconds, peak_rss_kb=None,
                   diagnostics=None):
    """Build one frame's ``telemetry`` dict from a finished cell.

    ``diagnostics`` is the executor-side extras dict (e.g. fast-forward
    engagement from :func:`repro.harness.parallel.
    last_cell_diagnostics`); unknown keys pass through untouched.
    """
    stats = result.stats
    telemetry = {
        "wall_seconds": round(wall_seconds, 6),
        "simulated_cycles": result.cycles,
        "committed_instructions": stats.committed_instructions,
        "replayed_uops": stats.replayed_uops,
    }
    if peak_rss_kb is not None:
        telemetry["peak_rss_kb"] = int(peak_rss_kb)
    if diagnostics:
        for key, value in diagnostics.items():
            telemetry.setdefault(key, value)
    return telemetry


def _accumulate(bucket, telemetry):
    bucket["cells"] += 1
    bucket["wall_seconds"] += float(telemetry.get("wall_seconds") or 0.0)
    for key in ("simulated_cycles", "committed_instructions",
                "replayed_uops", "ff_skipped_cycles"):
        value = telemetry.get(key)
        if value:
            bucket[key] = bucket.get(key, 0) + int(value)
    rss = telemetry.get("peak_rss_kb")
    if rss and int(rss) > bucket.get("peak_rss_kb", 0):
        bucket["peak_rss_kb"] = int(rss)


class TelemetryAggregate:
    """Per-worker / per-scheme rollup of cell telemetry frames.

    Not thread-safe by itself; the coordinator adds frames under its
    own lock.
    """

    __slots__ = ("cells", "wall_seconds", "per_worker", "per_scheme")

    def __init__(self):
        self.cells = 0
        self.wall_seconds = 0.0
        self.per_worker = {}
        self.per_scheme = {}

    def add(self, worker, scheme, telemetry):
        if not telemetry:
            return
        self.cells += 1
        self.wall_seconds += float(telemetry.get("wall_seconds") or 0.0)
        _accumulate(
            self.per_worker.setdefault(
                worker or "?", {"cells": 0, "wall_seconds": 0.0}),
            telemetry,
        )
        _accumulate(
            self.per_scheme.setdefault(
                scheme or "?", {"cells": 0, "wall_seconds": 0.0}),
            telemetry,
        )

    def rollup(self):
        """JSON-ready summary (empty dict when nothing was stamped)."""
        if not self.cells:
            return {}
        return {
            "cells": self.cells,
            "wall_seconds": round(self.wall_seconds, 6),
            "per_worker": {
                name: dict(bucket, wall_seconds=round(
                    bucket["wall_seconds"], 6))
                for name, bucket in sorted(self.per_worker.items())
            },
            "per_scheme": {
                name: dict(bucket, wall_seconds=round(
                    bucket["wall_seconds"], 6))
                for name, bucket in sorted(self.per_scheme.items())
            },
        }

    def format(self):
        """Short human-readable rollup (one line per worker/scheme)."""
        return format_rollup(self.rollup())


def format_rollup(rollup):
    """Render a :meth:`TelemetryAggregate.rollup` dict as text.

    A module function (not a method) so callers holding only the
    JSON-ready rollup — the CLI reading ``coordinator.stats()`` — can
    format it without rebuilding an aggregate.
    """
    if not rollup or not rollup.get("cells"):
        return "telemetry: no frames recorded"
    lines = ["telemetry: %d cells, %.2fs simulated wall time"
             % (rollup["cells"], rollup["wall_seconds"])]
    for name, bucket in sorted(rollup.get("per_worker", {}).items()):
        lines.append(
            "  worker %-16s cells=%-5d wall=%.2fs peak_rss=%sKB"
            % (name, bucket["cells"], bucket["wall_seconds"],
               bucket.get("peak_rss_kb", "?")))
    for name, bucket in sorted(rollup.get("per_scheme", {}).items()):
        lines.append(
            "  scheme %-16s cells=%-5d wall=%.2fs cycles=%d replays=%d"
            % (name, bucket["cells"], bucket["wall_seconds"],
               bucket.get("simulated_cycles", 0),
               bucket.get("replayed_uops", 0)))
    return "\n".join(lines)

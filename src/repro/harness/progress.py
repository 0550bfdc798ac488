"""Live progress and ETA reporting for campaign execution.

One :class:`ProgressReporter` is shared by every execution backend
(serial loop, multiprocessing pool, cluster coordinator): the runner
calls :meth:`ProgressReporter.begin` with the number of cells actually
going to execute, the backend calls :meth:`ProgressReporter.cell_done`
once per completed cell (attributing it to a worker), and the reporter
renders throttled status lines like::

    [grid] 12/32 cells | 3.1 cells/s | eta 6s | worker-1:5 worker-2:7

A cell whose simulation raised on the cluster backend settles through
:meth:`ProgressReporter.cell_failed` instead; the status line appends
``N failed`` only when nonzero, so clean campaigns render without it.

All methods are thread-safe — pool completions and cluster serve
threads report concurrently.  ``stream=None`` keeps the reporter
silent while still accumulating counters, which is how programmatic
callers (and tests) read progress without console noise.

``mode="json"`` swaps the human status line for machine-readable
JSONL: each emission is one :meth:`ProgressReporter.snapshot` dict on
a single line (same throttling), so scripts driving a campaign can
consume progress without parsing the human format.
"""

import json
import sys
import threading
import time


class ProgressReporter:
    """Counts completed cells; renders done/total, cells/sec, ETA."""

    def __init__(self, label="grid", stream=None, min_interval=0.5,
                 mode="human"):
        if mode not in ("human", "json"):
            raise ValueError("unknown progress mode %r" % (mode,))
        self.label = label
        self.stream = stream
        self.min_interval = min_interval
        self.mode = mode
        self.total = 0
        self.done = 0
        self.failed = 0
        self.per_worker = {}
        self._lock = threading.Lock()
        self._started = None
        self._last_render = 0.0
        self._rendered_done = -1

    # -- lifecycle --------------------------------------------------------

    def begin(self, total):
        """Arm the reporter for ``total`` cells (resets counters)."""
        with self._lock:
            self.total = int(total)
            self.done = 0
            self.failed = 0
            self.per_worker = {}
            self._started = time.monotonic()
            self._last_render = 0.0
            self._rendered_done = -1
        return self

    def cell_done(self, worker=None):
        """Record one completed cell, attributed to ``worker``."""
        with self._lock:
            if self._started is None:
                self._started = time.monotonic()
            self.done += 1
            if worker is not None:
                self.per_worker[worker] = self.per_worker.get(worker, 0) + 1
            line = self._maybe_render_locked()
        if line is not None:
            print(line, file=self.stream)

    def cell_failed(self, worker=None):
        """Record one cell that settled as a failure, reported by
        ``worker``."""
        with self._lock:
            if self._started is None:
                self._started = time.monotonic()
            self.failed += 1
            line = self._maybe_render_locked()
        if line is not None:
            print(line, file=self.stream)

    def finish(self):
        """Emit the final status line (unless it was just rendered)."""
        with self._lock:
            if self.stream is None or self._rendered_done == self.done:
                return
            line = self._render_locked()
        print(line, file=self.stream)

    # -- reading ----------------------------------------------------------

    def snapshot(self):
        """Current counters as a dict (thread-safe copy)."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self):
        elapsed = self._elapsed_locked()
        rate = self.done / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self._settled_locked())
        return {
            "label": self.label,
            "done": self.done,
            "failed": self.failed,
            "total": self.total,
            "elapsed_seconds": elapsed,
            "cells_per_second": rate,
            "eta_seconds": remaining / rate if rate > 0 else None,
            "per_worker": dict(self.per_worker),
        }

    def render(self):
        """The status line for the current counters."""
        with self._lock:
            return self._render_locked()

    # -- internals --------------------------------------------------------

    def _elapsed_locked(self):
        if self._started is None:
            return 0.0
        return time.monotonic() - self._started

    def _settled_locked(self):
        return self.done + self.failed

    def _maybe_render_locked(self):
        if self.stream is None:
            return None
        now = time.monotonic()
        if (now - self._last_render < self.min_interval
                and self._settled_locked() < self.total):
            return None
        self._last_render = now
        self._rendered_done = self.done
        return self._render_locked()

    def _render_locked(self):
        if self.mode == "json":
            return json.dumps(self._snapshot_locked(), sort_keys=True)
        elapsed = self._elapsed_locked()
        rate = self.done / elapsed if elapsed > 0 else 0.0
        parts = ["[%s] %d/%d cells" % (self.label, self.done, self.total)]
        if self.failed:
            parts.append("%d failed" % self.failed)
        parts.append("%.1f cells/s" % rate)
        settled = self._settled_locked()
        remaining = max(0, self.total - settled)
        if settled >= self.total and self.total:
            parts.append("done in %.1fs" % elapsed)
        elif rate > 0:
            parts.append("eta %.0fs" % (remaining / rate))
        else:
            parts.append("eta ?")
        if self.per_worker:
            attribution = " ".join(
                "%s:%d" % (worker, count)
                for worker, count in sorted(self.per_worker.items())
            )
            parts.append(attribution)
        return " | ".join(parts)


def make_progress(enabled, label="grid", stream=None):
    """A reporter printing to ``stream`` (stderr) when enabled, else None.

    ``enabled`` is falsy (silent), truthy (human line), or one of the
    mode strings ``"human"`` / ``"json"`` — the CLI's ``--progress
    [MODE]`` maps straight through.
    """
    if not enabled:
        return None
    mode = enabled if isinstance(enabled, str) else "human"
    return ProgressReporter(label=label,
                            stream=stream if stream is not None else sys.stderr,
                            mode=mode)

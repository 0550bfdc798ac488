#!/usr/bin/env python
"""Store-scale smoke: a 10^4-cell result store end to end, on a clock.

Builds a synthetic campaign store (the cells
:mod:`repro.harness.storebench` generates), then drives every
maintenance and analysis path a large campaign depends on —
``store verify``, ``store stats``, ``store gc`` with its ``VACUUM``,
bulk ``load_many``, the statistics-only ``metrics`` scan and its
conservation check — and asserts each answer is correct, not just
alive.
The whole run must finish inside a time budget, so CI catches store
operations degrading from an index scan toward a decode per cell.

Usage::

    PYTHONPATH=src python scripts/store_scale_smoke.py \
        [--cells 10000] [--budget 120]
"""

import argparse
import shutil
import sys
import tempfile
import time

from repro.analysis.stalls import store_stall_breakdown
from repro.harness.store import ResultStore
from repro.harness.storebench import synthetic_key, synthetic_result


def fail(message):
    print("FAIL: %s" % message)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=10000,
                        help="campaign size to build (default 10000)")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-clock budget in seconds (default 120)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = tempfile.mkdtemp(prefix="store-scale-smoke-")
    laps = []

    def lap(label):
        laps.append((label, time.perf_counter() - started))

    try:
        store = ResultStore(root)
        keys = []
        for index in range(args.cells):
            key = synthetic_key(index)
            store.save(key, synthetic_result(index), {"index": index})
            keys.append(key)
        store.close()
        lap("populate")

        store = ResultStore(root)
        if len(store) != args.cells:
            return fail("len() %d != %d" % (len(store), args.cells))
        if sorted(store.keys()) != sorted(keys):
            return fail("keys() disagrees with the written campaign")
        lap("keys")

        verdict = store.verify()
        if verdict != {"scanned": args.cells, "kept": args.cells,
                       "corrupt": 0, "stale": 0}:
            return fail("verify() on a healthy store: %r" % (verdict,))
        lap("verify")

        stats = store.stats()
        if stats["cells"] != args.cells:
            return fail("stats() miscounts cells: %r" % (stats,))
        if stats["compression_ratio"] <= 1.0:
            return fail("record compression never engaged")
        lap("stats")

        sample = keys[:: max(1, args.cells // 500)]
        loaded = store.load_many(sample)
        if len(loaded) != len(sample):
            return fail("load_many returned %d of %d cells"
                        % (len(loaded), len(sample)))
        probe = sample[len(sample) // 2]
        index = keys.index(probe)
        if loaded[probe].to_dict() != synthetic_result(index).to_dict():
            return fail("load_many round-trip drifted for cell %d" % index)
        lap("load_many")

        # The metrics hot path: ``python -m repro metrics``'s scan,
        # which reads only statistics, served from the rows.  Every
        # cell's account conserves, so every rollup must.
        breakdown = store_stall_breakdown(store)
        rows = sum(entry["cells"] for entry in breakdown.values())
        if rows != args.cells:
            return fail("metrics rolled up %d cells (want %d)"
                        % (rows, args.cells))
        violated = sorted(scheme for scheme, entry in breakdown.items()
                          if not entry["conserved"])
        if violated:
            return fail("metrics conservation VIOLATED for %s"
                        % ", ".join(violated))
        lap("metrics scan")

        keep = keys[: args.cells // 2]
        summary = store.gc(keep)
        if summary["kept"] != len(keep) or summary["dropped"] != (
                args.cells - len(keep)):
            return fail("gc summary wrong: %r" % (summary,))
        if summary["bytes_reclaimed"] <= 0:
            return fail("gc dropped half the store but reclaimed 0 bytes")
        if len(store) != len(keep):
            return fail("post-gc len() %d != %d" % (len(store), len(keep)))
        if store.load(keep[0]) is None or store.load(keys[-1]) is not None:
            return fail("gc kept/dropped the wrong cells")
        lap("gc+vacuum")
        store.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    elapsed = time.perf_counter() - started
    previous = 0.0
    for label, mark in laps:
        print("  %-12s %6.2fs" % (label, mark - previous))
        previous = mark
    if elapsed > args.budget:
        return fail("%.1fs exceeded the %.0fs budget"
                    % (elapsed, args.budget))
    print("store-scale smoke: %d cells verified, scanned, and gc'd in"
          " %.1fs (budget %.0fs)" % (args.cells, elapsed, args.budget))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Campaign engine tour: content-addressed cache, store, parallelism.

Runs a small (2 benchmarks x 2 configs x 2 schemes) grid three ways:

1. in parallel, cold, persisting every cell to a temporary store;
2. again from a fresh runner sharing the store — zero new simulations;
3. with two same-named but differently-parameterised configurations,
   showing that content-addressed keys keep their results apart (the
   bug class a name-keyed cache cannot avoid).

Run: ``python examples/campaign.py``

The same engine drives the command line::

    python -m repro grid --jobs 8
    python -m repro run figure6 --scale 0.1
"""

import tempfile

from repro.harness.executor import PoolExecutor
from repro.harness.runner import CampaignRunner
from repro.harness.store import ResultStore
from repro.pipeline.config import MEDIUM, MEGA

BENCHMARKS = ("503.bwaves", "548.exchange2")
SCHEMES = ("baseline", "nda")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)

        print("== cold parallel run ==")
        runner = CampaignRunner(scale=0.1, benchmarks=BENCHMARKS, store=store)
        summary = runner.run_grid(configs=(MEDIUM, MEGA), schemes=SCHEMES,
                                  executor=PoolExecutor(jobs=4))
        print("  %(total)d cells: %(simulated)d simulated, "
              "%(from_store)d from store, %(cached)d cached" % summary)

        print("== warm run, fresh process (simulated must be 0) ==")
        rerun = CampaignRunner(scale=0.1, benchmarks=BENCHMARKS,
                               store=ResultStore(tmp))
        summary = rerun.run_grid(configs=(MEDIUM, MEGA), schemes=SCHEMES,
                                 executor=PoolExecutor(jobs=4))
        print("  %(total)d cells: %(simulated)d simulated, "
              "%(from_store)d from store, %(cached)d cached" % summary)

        print("== same name, different parameters, distinct results ==")
        narrow = MEGA.scaled(name="custom", width=1, issue_width=1)
        wide = MEGA.scaled(name="custom")
        a = rerun.run(BENCHMARKS[0], narrow, "baseline")
        b = rerun.run(BENCHMARKS[0], wide, "baseline")
        print("  %-28s IPC %.3f" % ("custom (width 1)", a.stats.ipc))
        print("  %-28s IPC %.3f" % ("custom (width 4)", b.stats.ipc))
        assert a is not b and a.stats.cycles != b.stats.cycles


if __name__ == "__main__":
    main()

"""The throughput suite under every scheme: right answers, cheap obs.

Every throughput workload runs under every registered scheme on MEGA
at scale 0.1.  Each cell must halt in the reference interpreter's
registers and memory.  With observability off, ``core.run()`` makes no
Python call into ``repro/obs/``; with ``CycleAccount`` attached, the
suite stays under a ceiling of such calls per committed uop.  Call
counts come from cProfile, so they repeat exactly from run to run,
where a wall-clock comparison would measure the host.
"""

import cProfile
import os
import pstats

import pytest

import repro.obs
from repro.core.factory import make_scheme
from repro.harness.bench import THROUGHPUT_LABELS, throughput_suite
from repro.obs import CycleAccount
from repro.pipeline.config import MEGA
from repro.pipeline.core import OoOCore
from tests.conftest import ALL_SCHEMES, assert_matches_reference

SCALE = 0.1

#: Python calls into ``repro/obs/`` per committed uop with cycle
#: accounting on, over the whole suite: 2.71 on CPython 3.10, 3.11 and
#: 3.12 alike (20,987 calls for 7,746 uops): one sink call per stepped
#: cycle or skipped window, plus classification of the cycles with an
#: idle commit slot.  A ceiling rather than an equality, since a
#: CPython release may inline comprehensions or calls.  Lower it as
#: accounting gets cheaper.
OBS_CALLS_PER_UOP_CEILING = 2.8

_OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__)) + os.sep


def profiled_run(program, warm, scheme_name, account=None):
    """One ``core.run()`` under cProfile: (result, calls into repro/obs/)."""
    core = OoOCore(program, config=MEGA, scheme=make_scheme(scheme_name),
                   warm_caches=warm, account=account)
    profiler = cProfile.Profile()
    profiler.enable()
    result = core.run()
    profiler.disable()
    calls = sum(
        row[1] for (filename, _line, _func), row
        in pstats.Stats(profiler).stats.items()
        if os.path.abspath(filename).startswith(_OBS_DIR)
    )
    return result, calls


@pytest.fixture(scope="module")
def suite():
    return {label: (program, warm)
            for label, program, warm in throughput_suite(scale=SCALE)}


@pytest.fixture(scope="module")
def obs_off_runs(suite):
    """(label, scheme) -> (result, obs calls) for every cell, obs off."""
    return {(label, scheme): profiled_run(program, warm, scheme)
            for label, (program, warm) in suite.items()
            for scheme in ALL_SCHEMES}


@pytest.mark.parametrize("label", THROUGHPUT_LABELS)
def test_throughput_cell_matches_reference(suite, obs_off_runs, label,
                                           scheme_name):
    result, _calls = obs_off_runs[label, scheme_name]
    assert result.halted
    assert_matches_reference(suite[label][0], result,
                             context="%s/%s" % (label, scheme_name))


def test_obs_off_run_makes_no_obs_calls(obs_off_runs):
    calling = {cell: calls for cell, (_result, calls) in obs_off_runs.items()
               if calls}
    assert not calling, "obs-off runs called into repro/obs/: %r" % calling


def test_cycle_account_obs_calls_per_uop_ceiling(suite, obs_off_runs):
    calls = uops = 0
    for label, (program, warm) in suite.items():
        for scheme in ALL_SCHEMES:
            result, cell_calls = profiled_run(program, warm, scheme,
                                              account=CycleAccount())
            assert cell_calls > 0, "%s/%s: no accounting" % (label, scheme)
            # Accounting observes the machine; it never changes it.
            assert result.cycles == obs_off_runs[label, scheme][0].cycles
            calls += cell_calls
            uops += result.stats.committed_instructions
    assert calls / uops <= OBS_CALLS_PER_UOP_CEILING, (
        "%d calls into repro/obs/ for %d committed uops: %.2f per uop,"
        " above the ceiling of %.2f"
        % (calls, uops, calls / uops, OBS_CALLS_PER_UOP_CEILING))

"""The package runs on the standard library alone.

CI's tier-1 job installs only the test tools, so any third-party import
reachable from the CLI or the analysis path breaks every campaign.  The
check runs in a fresh interpreter with NumPy blocked, so a copy already
imported into the test process cannot hide the dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
sys.modules["numpy"] = None  # any 'import numpy' now raises ImportError
import repro.__main__
import repro.harness.experiments
from repro.analysis.trends import fit_trend
fit = fit_trend([1, 2, 3, 4], [1, 3, 2, 5])
print(repr(fit.slope), repr(fit.intercept))
"""


def test_cli_and_trend_fit_need_no_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    slope, intercept = (float(v) for v in proc.stdout.split())
    assert abs(slope - 1.1) < 1e-12
    assert abs(intercept) < 1e-12

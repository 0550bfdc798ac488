"""Linear trend fitting and the Redwood Cove extrapolation.

The paper places each configuration at its baseline absolute IPC on
the x-axis and fits a linear trend through the relative metric
(Figures 1, 8, 10), then extrapolates to an Intel Redwood Cove-class
core at SPEC2017 IPC 2.03.  Because linear growth of the *loss* is
pessimistic, Table 3's Intel column uses a **halved-slope** estimate:
the loss beyond the widest measured point grows at half the fitted
rate.
"""

import statistics
from dataclasses import dataclass

#: SPEC CPU2017 IPC of Intel Redwood Cove (paper Table 1, from [31]).
REDWOOD_COVE_IPC = 2.03


@dataclass(frozen=True)
class TrendFit:
    """A least-squares line y = slope * x + intercept."""

    slope: float
    intercept: float
    xs: tuple
    ys: tuple

    def at(self, x):
        return self.slope * x + self.intercept


def fit_trend(xs, ys):
    """Least-squares linear fit; returns a :class:`TrendFit`."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    slope, intercept = statistics.linear_regression(xs, ys)
    return TrendFit(slope, intercept, tuple(xs), tuple(ys))


def extrapolate(fit, target_ipc=REDWOOD_COVE_IPC):
    """Full-slope linear extrapolation (the pessimistic estimate)."""
    return fit.at(target_ipc)


def halved_slope_estimate(fit, target_ipc=REDWOOD_COVE_IPC):
    """Paper's "less pessimistic" estimate: growth beyond the widest
    measured configuration continues at half the fitted slope."""
    max_x = max(fit.xs)
    anchor = fit.at(max_x)
    if target_ipc <= max_x:
        return fit.at(target_ipc)
    return anchor + 0.5 * fit.slope * (target_ipc - max_x)

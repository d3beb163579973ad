"""Statistics helpers used by the analysis layer.

The paper's Section 5.1 interprets execution-time curves through their
**y-intercept** (incompressible infrastructure overhead) and **slope**
(data scalability), obtained by linear regression over the measured
points.  :func:`linear_fit` implements exactly that regression and is
what `repro.model.metrics` builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LinearFit", "linear_fit"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = intercept + slope * x``.

    Attributes
    ----------
    intercept:
        The y-intercept — in the paper's reading, the time spent to
        process *zero* data sets, i.e. the fixed cost of accessing the
        infrastructure (Table 2, first column).
    slope:
        Seconds per additional data set (Table 2, second column).
    r_squared:
        Coefficient of determination of the fit; the paper notes the
        measured curves are "almost straight lines", which shows up as
        r² close to 1.
    """

    intercept: float
    slope: float
    r_squared: float


def linear_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Least-squares linear regression of *y* against *x*.

    Raises
    ------
    ValueError
        If fewer than two points are given or the x values are all
        identical (the slope would be undefined).
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError(f"x and y lengths differ: {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise ValueError("linear_fit needs at least two points")
    if np.ptp(xs) == 0:
        raise ValueError("all x values identical; slope undefined")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = intercept + slope * xs
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(intercept=float(intercept), slope=float(slope), r_squared=r_squared)

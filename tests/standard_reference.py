"""The standard-bound optimizer as it was before its grid and evaluators were fused, kept as a test oracle.

``standard_delay_bound`` here builds its pre-scan with ``np.geomspace``,
evaluates it through ``effective_bandwidth_rate`` and ``np.where`` layers,
and runs golden-section on a float evaluator that calls ``_r_theta``.  The
library's optimizer must give every field and every raised error of this
one bit for bit.  Do not edit it to follow the library.
"""

import math
from typing import Callable

import numpy as np

from sncbounds.martingale import _bound_terms
from sncbounds.standard import StandardBoundResult
from sncbounds.traffic import MmooParams

_PRESCAN_POINTS = 256
_EDGE = 1e-9


def effective_bandwidth_rate(theta, params: MmooParams):
    """Dominant rate r_theta; accepts scalars or numpy arrays.

    Uses the rationalized form 2*mu*P/(sqrt(Delta)+b) when b > 0 to avoid
    cancellation at small theta.
    """
    theta = np.asarray(theta, dtype=float)
    lam, mu, peak = params.lam, params.mu, params.peak
    b = lam + mu - theta * peak
    sq = np.sqrt(b * b + 4.0 * mu * theta * peak)
    r = np.where(b > 0, 2.0 * mu * peak / (sq + b), (sq - b) / (2.0 * theta))
    return r if r.ndim else float(r)


def _r_theta(theta: float, params: MmooParams) -> float:
    """``effective_bandwidth_rate`` for one float: the same IEEE operations.

    Add, multiply, divide and square root are correctly rounded in both
    ``math`` and NumPy, so the two agree bit for bit.
    """
    lam, mu, peak = params.lam, params.mu, params.peak
    b = lam + mu - theta * peak
    sq = math.sqrt(b * b + 4.0 * mu * theta * peak)
    return 2.0 * mu * peak / (sq + b) if b > 0 else (sq - b) / (2.0 * theta)


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _log_objective(params: MmooParams, const: float, cm: float, k: float, exponent):
    """Array and float evaluators of ``const - log(cm - k*r_theta) + exponent(theta, r_theta)``.

    Both give +inf where the margin ``cm - k*r_theta`` is not positive or
    is NaN (on arrays, through the log of a margin at or below zero) and
    where the value is NaN.  Both take the logarithm with ``np.log``:
    ``math.log`` differs from it in the last bit on some inputs.
    """

    def on_array(th: np.ndarray) -> np.ndarray:
        r = effective_bandwidth_rate(th, params)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = const - np.log(cm - k * r) + exponent(th, r)
        return np.where(np.isnan(vals), np.inf, vals)

    def on_float(th: float) -> float:
        r = _r_theta(th, params)
        margin = cm - k * r
        if not margin > 0:
            return math.inf
        val = const - float(np.log(margin)) + exponent(th, r)
        return math.inf if math.isnan(val) else val

    return on_array, on_float


def _minimize_theta(params: MmooParams, const: float, cm: float, k: float, exponent,
                    theta_max: float) -> tuple[float, float, bool]:
    """Minimize ``const - log(cm - k*r_theta) + exponent(theta, r_theta)`` over (0, theta_max).

    Returns the minimizer, the minimum and whether the minimizer lies at an
    end of the inset interval.
    """
    on_array, on_float = _log_objective(params, const, cm, k, exponent)
    grid = np.geomspace(_EDGE * theta_max, theta_max * (1.0 - _EDGE), _PRESCAN_POINTS)
    vals = on_array(grid)
    i = int(np.argmin(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    th, fv = _golden_min(on_float, lo, hi, tol=1e-12 * theta_max)
    if vals[i] < fv:
        th, fv = float(grid[i]), float(vals[i])
    return th, fv, min(th, theta_max - th) <= 2.0 * _EDGE * theta_max


def standard_delay_bound(scenario, sched, d: float) -> StandardBoundResult:
    """The library's ``standard_delay_bound`` on this module's optimizer."""
    minima = [_minimize_theta(scenario.params,
                              1.0 + math.log(t.cm) if t.euler else math.log(t.cm),
                              t.cm, t.k, t.exponent, t.consts.gamma)
              for t in _bound_terms(scenario, sched, d)]
    value = 0.0
    for _, fv, _ in minima:
        value += math.exp(fv)
    return StandardBoundResult(value, minima[0][0], any(edge for _, _, edge in minima))

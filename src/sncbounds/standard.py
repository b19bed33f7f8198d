"""Classical SNC per-flow delay bounds via effective bandwidths.

The single-source MGF is approximated by its dominant exponential
exp(theta*r_theta*t), where

    b       = lam + mu - theta*P
    Delta   = b^2 + 4*mu*theta*P
    r_theta = (-b + sqrt(Delta)) / (2*theta)

is the effective bandwidth (between mean rate p*P and peak P, nondecreasing
in theta).  The discretized union/Chernoff sample-path argument then gives

    inf_{theta: c > r_theta}  L * exp(-theta*(C - n2*r_theta)*u - theta*sigma)

with L = c*e/(c - r_theta).  The feasible set is the open interval
(0, gamma): the effective-bandwidth equation r_theta = c has the martingale
decay rate gamma as its unique root.  So no root is searched for.

One term table, two evaluators: ``martingale._bound_terms`` gives each
scheduler's terms, each with its reduced system (the scenario's per-flow
capacity, the GPS-reduced system or EDF's rescaled capacity), its
prefactor L and its exponent(theta, r_theta).  The martingale bound
evaluates the exponent at theta = gamma; this module takes the infimum
over (0, gamma) of the reduced system, term by term, and sums the minima.
A result carries that sum, the first term's minimizer and whether any
minimum lies at an end of its interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .martingale import SchedulerSpec, _bound_terms
from .traffic import MmooParams, Scenario

__all__ = [
    "StandardBoundResult",
    "effective_bandwidth_rate",
    "standard_delay_bound",
]

_PRESCAN_POINTS = 256
_EDGE = 1e-9  # relative inset of the optimization interval


@dataclass(frozen=True)
class StandardBoundResult:
    """Optimized bound value and the first term's minimizing exponent.

    A two-term EDF bound minimizes each term on its own and sums the
    minima.  ``at_edge`` is true when the minimum of any term lies at an
    end of its optimization interval, within the ``_EDGE`` inset (and the
    golden-section tolerance): the objective still fell toward the end, so
    the bound may be loose or vacuous.
    """

    value: float
    theta_star: float
    at_edge: bool


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

    A 256-point log-spaced pre-scan brackets the minimum; golden-section
    refines it.  The pre-scan minimum is the fallback if the objective is
    not unimodal, so the result never exceeds the scanned values.  Float
    dust can push the feasibility margin to or below zero at the right
    endpoint when the utilization is extreme; such points are treated as
    infeasible (+inf).

    The pre-scan evaluates all 256 points at once on NumPy arrays; the
    golden-section steps evaluate one point at a time on Python floats,
    where NumPy's per-call overhead would dominate.  The two evaluators run
    the same IEEE operations in the same order, and both take the logarithm
    with ``np.log``, so they agree bit for bit and the result does not
    depend on which of them produced a value.
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


def standard_delay_bound(scenario: Scenario, sched: SchedulerSpec, d: float) -> StandardBoundResult:
    """Classical delay bound P(W1 > d) <= value for each scheduler.

    The sum over the scheduler's terms (``martingale._bound_terms``) of the
    infimum over (0, gamma) of L * exp(exponent(theta, r_theta)) on the
    term's reduced system, with L = cm*e/(cm - k*r_theta), or
    cm/(cm - k*r_theta) without ``euler``; FIFO's, for one, is
    inf L e^{-theta C d}.  ``theta_star`` is the first term's minimizer.
    """
    minima = [_minimize_theta(scenario.params,
                              1.0 + math.log(t.cm) if t.euler else math.log(t.cm),
                              t.cm, t.k, t.exponent, t.consts.gamma)
              for t in _bound_terms(scenario, sched, d)]
    value = 0.0
    for _, fv, _ in minima:
        value += math.exp(fv)
    return StandardBoundResult(value, minima[0][0], any(edge for _, _, edge in minima))

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
over (0, gamma) of the reduced system, term by term (``_minimize_theta``
takes one term), and sums the minima.
A result carries that sum, the first term's minimizer and whether any
minimum lies at an end of its interval.

Each infimum is a 256-point log-spaced pre-scan on NumPy arrays and about
55 golden-section steps on Python floats around its minimum.  The library
builds the pre-scan grid itself (``_prescan_grid``, byte for byte the
``np.geomspace`` of the same ends), and r_theta has one array definition,
shared with ``effective_bandwidth_rate``, and one float definition, inline
in the golden-section evaluator; the two give the same bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParamsError
from .martingale import SchedulerSpec, _bound_terms
from .traffic import MmooParams, Scenario

__all__ = [
    "StandardBoundResult",
    "effective_bandwidth_rate",
    "standard_delay_bound",
]

_PRESCAN_POINTS = 256
_EDGE = 1e-9  # relative inset of the optimization interval
_IDX = np.arange(float(_PRESCAN_POINTS))


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


def _rate_constants(params: MmooParams) -> tuple[float, float, float, float]:
    """lam + mu, 4*mu, 2*mu*P and P: the constants of r_theta."""
    lam, mu, peak = params.lam, params.mu, params.peak
    return lam + mu, 4.0 * mu, 2.0 * mu * peak, peak


def _rate_on_array(theta: np.ndarray, lam_mu: float, mu4: float, two_mu_peak: float,
                   peak: float) -> np.ndarray:
    """r_theta on an array of at least one dimension, with b = lam + mu - theta*P.

    Uses the rationalized form 2*mu*P/(sqrt(Delta)+b) where b > 0 to avoid
    cancellation at small theta.  Both branches are computed, so the
    caller silences the division warnings of the branch it discards.
    """
    b = lam_mu - theta * peak
    sq = np.sqrt(b * b + mu4 * theta * peak)
    r = (sq - b) / (2.0 * theta)
    np.copyto(r, two_mu_peak / (sq + b), where=b > 0)
    return r


def effective_bandwidth_rate(theta, params: MmooParams):
    """Dominant rate r_theta; accepts scalars or numpy arrays.

    At theta = 0 the rationalized branch gives the mean rate p*P; the 0/0
    of the discarded branch raises no warning.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _rate_on_array(theta.reshape(-1), *_rate_constants(params))
    return r.reshape(theta.shape) if theta.ndim else float(r[0])


def _prescan_grid(theta_max: float) -> np.ndarray:
    """256 log-spaced points from ``_EDGE*theta_max`` to ``theta_max*(1-_EDGE)``.

    The ufunc calls of ``np.geomspace`` over these ends, in its order, so
    the points equal it byte for byte without its per-call overhead:
    ``log10`` of both ends, equal steps of their difference over 255 from
    the first, ``10**`` of each, and both ends set exactly (which makes
    ``geomspace``'s own setting of the last exponent moot).  ``_minimize_theta``
    passes only a ``theta_max`` whose lower end is a normal double.
    """
    lo, hi = _EDGE * theta_max, theta_max * (1.0 - _EDGE)
    ls, le = np.log10(lo), np.log10(hi)
    grid = _IDX * ((le - ls) / (_PRESCAN_POINTS - 1))
    grid += ls
    grid = np.power(10.0, grid)
    grid[0], grid[-1] = lo, hi
    return grid


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


def _log_objective(params: MmooParams, term):
    """Array and float evaluators of one term's log L + exponent(theta, r_theta).

    The value is ``const - log(cm - k*r_theta) + exponent(theta, r_theta)``,
    with ``const`` = log(cm) + 1, or log(cm) without ``euler``.  Both give
    +inf where the margin ``cm - k*r_theta`` is not positive or is NaN (on
    arrays, through the log of a margin at or below zero) and where the
    value is NaN.  The float one computes r_theta inline with the
    IEEE operations of ``_rate_on_array`` in the same order; add, multiply,
    divide and square root are correctly rounded in both ``math`` and
    NumPy, so the two agree bit for bit.  Both take the logarithm with
    ``np.log``: ``math.log`` differs from it in the last bit on some inputs.
    """
    lam_mu, mu4, two_mu_peak, peak = rates = _rate_constants(params)
    cm, k, exponent = term.cm, term.k, term.exponent
    const = 1.0 + math.log(cm) if term.euler else math.log(cm)
    log, sqrt, inf, to_float = np.log, math.sqrt, math.inf, float

    def on_array(th: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            r = _rate_on_array(th, *rates)
            vals = const - log(cm - k * r) + exponent(th, r)
        vals[np.isnan(vals)] = inf
        return vals

    def on_float(th: float) -> float:
        b = lam_mu - th * peak
        sq = sqrt(b * b + mu4 * th * peak)
        r = two_mu_peak / (sq + b) if b > 0 else (sq - b) / (2.0 * th)
        margin = cm - k * r
        if not margin > 0:
            return inf
        val = const - to_float(log(margin)) + exponent(th, r)
        return val if val == val else inf  # NaN is +inf

    return on_array, on_float


def _minimize_theta(params: MmooParams, term) -> tuple[float, float, bool]:
    """Minimize one term of ``martingale._bound_terms`` over (0, gamma).

    The objective (``_log_objective``) is the log of L = cm*e/(cm -
    k*r_theta), or cm/(cm - k*r_theta) without ``euler``, plus the term's
    exponent, and gamma (``theta_max``) is the decay rate of the term's
    reduced system.  Returns the minimizer, the minimum and whether the
    minimizer lies at an end of the inset interval.  A gamma whose inset
    end ``_EDGE*gamma`` is below the smallest normal double (gamma below
    about 2e-299) raises ``InvalidParamsError``: the log-spaced grid would
    start at a subnormal or zero theta.

    A 256-point log-spaced pre-scan (``_prescan_grid``) brackets the
    minimum; golden-section refines it.  The pre-scan minimum is the
    fallback if the objective is not unimodal, so the result never exceeds
    the scanned values.  Float dust can push the feasibility margin to or
    below zero at the right endpoint when the utilization is extreme; such
    points are treated as infeasible (+inf).

    The pre-scan evaluates all 256 points at once on NumPy arrays, in one
    ``errstate`` block; the golden-section steps evaluate one point at a
    time on Python floats, where NumPy's per-call overhead would dominate.
    The two evaluators of ``_log_objective`` agree bit for bit, so the
    result does not depend on which of them produced a value.
    """
    theta_max = term.consts.gamma
    if _EDGE * theta_max < sys.float_info.min:
        raise InvalidParamsError(
            f"decay rate gamma={theta_max:.6g} is too small for the standard bound's "
            f"optimizer: {_EDGE:g}*gamma is below the smallest normal double")
    on_array, on_float = _log_objective(params, term)
    grid = _prescan_grid(theta_max)
    vals = on_array(grid)
    i = int(vals.argmin())
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, _PRESCAN_POINTS - 1)])
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
    minima = [_minimize_theta(scenario.params, t) for t in _bound_terms(scenario, sched, d)]
    value = 0.0
    for _, fv, _ in minima:
        value += math.exp(fv)
    return StandardBoundResult(value, minima[0][0], any(edge for _, _, edge in minima))

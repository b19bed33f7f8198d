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
prefactor L and its exponent theta*(a + b*r_theta).  The martingale bound
evaluates the exponent at theta = gamma; this module takes the infimum
over (0, gamma) of the reduced system, term by term (``_minimize_theta``
takes one term), and sums the minima.
A result carries that sum, the first term's minimizer and whether any
minimum lies at an end of its interval.

Each infimum is a 256-point pre-scan on NumPy arrays, which brackets the
minimum, and Newton steps on Python floats to the root of the objective's
derivative inside that bracket.  The pre-scan runs on the r axis, where the
closed-form inverse theta(r) = (lam + mu)(r - p*P)/(r (P - r)) (Kelly, "Notes
on effective bandwidths", 1996) maps (p*P, c) onto (0, gamma), with no square
root.  The points' thetas, r and log(c - r) depend on the reduced system
alone, so each system's axis is built once (``_axis``, a bounded cache keyed
by the source, c and gamma) and every delay and flow count on it shares it;
a call forms only the exponent on that axis.  A reported value is the float
objective, whose r_theta has the bits of ``effective_bandwidth_rate``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .martingale import SchedulerSpec, _bound_terms
from .traffic import MmooParams, Scenario

__all__ = [
    "StandardBoundResult",
    "effective_bandwidth_rate",
    "standard_delay_bound",
]

_EDGE = 1e-9  # relative inset of the optimization interval
# log-steps of the 2 x 128 pre-scan's gaps: up to the split, then from a step short of it down
_LOG_STEPS = np.stack([np.arange(128) / 127, np.arange(128)[::-1] / 128])
_S_TOL = 1e-7  # relative Newton step in s that ends a refinement


@dataclass(frozen=True)
class StandardBoundResult:
    """Optimized bound value and the first term's minimizing exponent.

    A two-term EDF bound minimizes each term on its own and sums the
    minima.  ``at_edge`` is true when the minimum of any term lies at an
    end of its optimization interval: its minimizer is within twice the
    ``_EDGE`` inset of 0 or gamma, so the objective still fell toward the
    end, and the bound may be loose or vacuous.
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


def _log_objective(params: MmooParams, term):
    """Float and slope evaluators of one term's log L + theta*(a + b*r_theta).

    The value f is ``const - log(cm - k*r_theta) + theta*(a + b*r_theta)``,
    with ``const`` = log(cm) + 1, or log(cm) without ``euler``, and +inf
    where the margin ``cm - k*r_theta`` is not positive.  r_theta is
    computed with the IEEE operations of ``_rate_on_array``, in the same
    order, so it has the bits of ``effective_bandwidth_rate``; the log is
    ``np.log`` (``math.log`` differs in the last bit on some inputs).  Near
    gamma the margin cancels, to +inf under extreme utilization.

    The slope gives df/ds and d2f/ds2 in s = -log(1 - theta/gamma), where
    df/ds = (gamma - theta) f' has no pole at gamma; with m = cm - k r,
    f' = k r'/m + a + b (r + theta r') and f'' = k r''/m + (k r'/m)^2 +
    b (2 r' + theta r''), where theta r^2 + q r = mu P, q = lam + mu - theta P,
    gives r' = r (P - r)/sqrt(Delta) and r'' = r' (P - 2 r - P (2 mu - q)/sqrt(Delta))/sqrt(Delta).
    """
    lam_mu, mu4, two_mu_peak, peak = _rate_constants(params)
    cm, k, gamma, a, b = term.cm, term.k, term.consts.gamma, term.a, term.b
    const = 1.0 + math.log(cm) if term.euler else math.log(cm)
    log, sqrt, inf, to_float = np.log, math.sqrt, math.inf, float

    def on_float(th: float) -> float:
        q = lam_mu - th * peak
        sq = sqrt(q * q + mu4 * th * peak)
        r = two_mu_peak / (sq + q) if q > 0 else (sq - q) / (2.0 * th)
        margin = cm - k * r
        return const - to_float(log(margin)) + th * (a + b * r) if margin > 0 else inf

    def slope(th: float) -> tuple[float, float]:
        q = lam_mu - th * peak
        sq = sqrt(q * q + mu4 * th * peak)
        r = two_mu_peak / (sq + q) if q > 0 else (sq - q) / (2.0 * th)
        margin = cm - k * r
        if not margin > 0:
            return inf, inf
        dr = r * (peak - r) / sq
        d2r = dr * (peak - 2.0 * r - peak * (0.5 * mu4 - q) / sq) / sq
        u = k * dr / margin
        f1 = u + a + b * (r + th * dr)
        f2 = k * d2r / margin + u * u + b * (2.0 * dr + th * d2r)
        w = gamma - th
        return w * f1, w * (w * f2 - f1)

    return on_float, slope


def _above_mean(theta: float, lam_mu: float, m: float, peak: float) -> float:
    """r_theta - m, m = p*P, without cancellation: the positive root of the
    effective-bandwidth equation in x = r - m, theta x^2 + q x = theta m (P - m)."""
    q = lam_mu - theta * (peak - 2.0 * m)
    t = theta * m * (peak - m)
    sq = math.sqrt(q * q + 4.0 * theta * t)
    return 2.0 * t / (sq + q) if q > 0 else (sq - q) / (2.0 * theta)


@functools.lru_cache(maxsize=256)
def _axis(params: MmooParams, c: float, gamma: float) -> tuple:
    """The pre-scan's thetas, effective bandwidths and log(c - r), read-only 2 x 128 arrays.

    They depend on the reduced system alone (the source, its per-flow
    capacity c and decay rate gamma), not on the delay or the flow count,
    so each system's axis is built once and shared by every term on it.
    Between the mean rate m = p*P and c, row 0 is log-spaced in r - m from
    theta = ``_EDGE``*gamma up to gamma/2, row 1 in g = c - r on to theta =
    gamma*(1 - ``_EDGE``) =: T.  With both gaps, theta = (lam + mu)(r - m)/(r
    (P - c + g)) and the margin cm - k*r = k*g cancel nowhere.  The end g
    solves T g^2 - M g + K = 0 (kk, mm below), M = lam + mu + T (2c - P),
    K = (lam + mu)(c - m) - T c (P - c), with K at least _EDGE*gamma*c*(P - c)
    to stay below theta(c) where gamma rounds above it.  256 systems take
    at most about 1.7 MB.
    """
    lam_mu, peak, m = params.lam + params.mu, params.peak, params.mean_rate
    span, dc = c - m, c * (peak - c)
    inset, t_top = _EDGE * gamma, gamma - _EDGE * gamma
    bottom = _above_mean(inset, lam_mu, m, peak)
    split = _above_mean(0.5 * gamma, lam_mu, m, peak)
    kk = max(lam_mu * span - t_top * dc, inset * dc)
    mm = lam_mu + t_top * (2.0 * c - peak)
    top = 2.0 * kk / (mm + math.sqrt(mm * mm - 4.0 * t_top * kk))
    # per row: log-ratio of its gaps, signed end gap, r - m and c - r at gap 0
    cols = np.array([math.log(split / bottom), math.log((span - split) / top), bottom, -top,
                     0.0, span, span, 0.0]).reshape(4, 2, 1)
    gap = np.exp(cols[0] * _LOG_STEPS) * cols[1]
    delta = cols[2] + gap
    gap = cols[3] - gap
    r = m + delta
    theta = lam_mu * delta / (r * ((peak - c) + gap))
    axis = theta, r, np.log(gap)
    for x in axis:
        x.setflags(write=False)
    return axis


def _prescan(params: MmooParams, term) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pre-scan's thetas, effective bandwidths and values, as 2 x 128 arrays.

    The first two are the term's system's shared ``_axis``; a value is
    theta*(a + b*r) - log(c - r), the objective less its constant.
    """
    theta, r, log_gap = _axis(params, term.cm / term.k, term.consts.gamma)
    return theta, r, theta * (term.a + term.b * r) - log_gap


def _refine(slope, lo: float, start: float, hi: float, gamma: float) -> float:
    """The theta in [lo, hi] where df/ds changes sign, in s = -log(1 - theta/gamma).

    Newton's method on s from ``start``, bisecting where the objective is not
    convex (d2f/ds2 <= 0) and where a Newton step leaves the bracket that
    each evaluated sign narrows, up to the first step below ``_S_TOL``
    relative to s.  A start at an end sloping outward returns it.
    """
    s0, s, s1 = -math.log1p(-lo / gamma), -math.log1p(-start / gamma), -math.log1p(-hi / gamma)
    th = start
    for _ in range(100):
        g, dg = slope(th)
        if g < 0:
            s0 = s
        elif g > 0:
            s1 = s
        else:
            break
        step = s - g / dg if dg > 0 else math.nan
        if not s0 < step < s1:
            step = 0.5 * (s0 + s1)
        th = -gamma * math.expm1(-step)
        if abs(step - s) <= _S_TOL * step:
            break
        s = step
    return th


def _minimize_theta(params: MmooParams, term) -> tuple[float, float, bool]:
    """Minimize one term of ``martingale._bound_terms`` over (0, gamma).

    The objective (``_log_objective``) is the log of L = cm*e/(cm -
    k*r_theta), or cm/(cm - k*r_theta) without ``euler``, plus the term's
    exponent, and gamma (``theta_max``) is the decay rate of the term's
    reduced system.  Returns the minimizer, the minimum and whether the
    minimizer lies at an end of the inset interval.  A gamma whose inset
    end ``_EDGE*gamma`` is below the smallest normal double (gamma below
    about 2e-299) raises ``InvalidParamsError``: the pre-scan would start
    at a subnormal theta.

    The pre-scan (``_prescan``) brackets the minimum between the neighbours
    of its smallest point, where ``_refine`` starts.  The value is the float
    objective at the refined theta, or at that scan point where lower (the
    objective need not be unimodal).
    """
    theta_max = term.consts.gamma
    if _EDGE * theta_max < sys.float_info.min:
        raise InvalidParamsError(
            f"decay rate gamma={theta_max:.6g} is too small for the standard bound's "
            f"optimizer: {_EDGE:g}*gamma is below the smallest normal double")
    on_float, slope = _log_objective(params, term)
    grid, _, vals = _prescan(params, term)
    i = int(vals.argmin())
    th = _refine(slope, grid.item(max(i - 1, 0)), grid.item(i),
                 grid.item(min(i + 1, grid.size - 1)), theta_max)
    fv, at_scan = on_float(th), on_float(grid.item(i))
    if at_scan < fv:
        th, fv = grid.item(i), at_scan
    return th, fv, min(th, theta_max - th) <= 2.0 * _EDGE * theta_max


def standard_delay_bound(scenario: Scenario, sched: SchedulerSpec, d: float) -> StandardBoundResult:
    """Classical delay bound P(W1 > d) <= value for each scheduler.

    The sum over the scheduler's terms (``martingale._bound_terms``) of the
    infimum over (0, gamma) of L * exp(theta*(a + b*r_theta)) on the term's
    reduced system, with L = cm*e/(cm - k*r_theta), or cm/(cm - k*r_theta)
    without ``euler``; FIFO's, for one, is inf L e^{-theta C d}.
    ``theta_star`` is the first term's minimizer.
    """
    minima = [_minimize_theta(scenario.params, t) for t in _bound_terms(scenario, sched, d)]
    value = 0.0
    for _, fv, _ in minima:
        value += math.exp(fv)
    return StandardBoundResult(value, minima[0][0], any(edge for _, _, edge in minima))

"""Classical SNC per-flow delay bounds via effective bandwidths.

The single-source MGF is approximated by its dominant exponential
exp(theta*r_theta*t), where

    b       = lam + mu - theta*P
    Delta   = b^2 + 4*mu*theta*P
    r_theta = (-b + sqrt(Delta)) / (2*theta)

is the effective bandwidth (between mean rate p*P and peak P, nondecreasing
in theta).  The discretized union/Chernoff sample-path argument then bounds
each term of the scheduler's table (``martingale._bound_terms``) by

    inf_{theta: c > r_theta}  L * exp(theta*(a + b*r_theta))

on the term's reduced system, c its per-flow capacity, with
L = c*e/(c - r_theta) (c/(c - r_theta) on GPS's).  The feasible set is the
open interval (0, gamma): the effective-bandwidth equation r_theta = c has
the martingale decay rate gamma as its unique root, so none is searched for.

One term table, two evaluators: one rule gives every scheduler's terms
(FIFO and SP are EDF's deadline gaps 0 and +inf, GPS is gap 0 on its
reduced system).  The martingale bound evaluates each exponent at
theta = gamma; this module takes the infimum over (0, gamma), term by term
(``_minimize_theta`` takes one term), and sums the minima.
A result carries that sum, the first term's minimizer and whether any
minimum lies at an end of its interval.

Each infimum is a 256-point pre-scan on NumPy arrays, which brackets the
minimum, and Newton steps on Python floats inside that bracket, both in
one coordinate, w = log((r - p*P)/(c - r)).  From w, both gaps r - p*P and
c - r are formed without subtraction, and theta is the closed-form inverse
theta(r) = (lam + mu)(r - p*P)/(r (P - r)) (Kelly, "Notes on effective
bandwidths", 1996), so no step takes a square root and L's margin c - r
does not cancel near gamma.  The pre-scan's points depend on the reduced
system alone, so each system's axis is built once (``_axis``, a bounded
cache of 256 systems) and shared by every delay and flow count on it.  The
entry also holds the objective's delay-free scalars (lam + mu, p*P,
c - p*P, P - c, p*P (P - p*P) and log c), and the term's gamma comes from
``martingale._constants``, cached per system the same way, so a call forms
only what depends on the delay.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

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
_STEPS = np.arange(256) / 255  # of the pre-scan, from one end of w to the other
_W_INSET = 2.0**-42  # inward move of the pre-scan's end w, far above their rounding
_W_TOL = 1e-7  # Newton step in w, relative to max(1, |w|), that ends a refinement


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


def effective_bandwidth_rate(theta, params: MmooParams):
    """Dominant rate r_theta; accepts scalars or numpy arrays.

    Uses the rationalized form 2*mu*P/(sqrt(Delta)+b) where b > 0 to avoid
    cancellation at small theta: at theta = 0 it gives the mean rate p*P,
    and the 0/0 of the discarded branch raises no warning.
    """
    theta = np.asarray(theta, dtype=float)
    th, mu, peak = theta.reshape(-1), params.mu, params.peak
    with np.errstate(divide="ignore", invalid="ignore"):
        b = params.lam + mu - th * peak
        sq = np.sqrt(b * b + 4.0 * mu * th * peak)
        r = (sq - b) / (2.0 * th)
        np.copyto(r, 2.0 * mu * peak / (sq + b), where=b > 0)
    return r.reshape(theta.shape) if theta.ndim else float(r[0])


def _above_mean(theta: float, lam_mu: float, m: float, peak: float) -> float:
    """r_theta - m, m = p*P, without cancellation: the positive root of the
    effective-bandwidth equation in x = r - m, theta x^2 + q x = theta m (P - m)."""
    q = lam_mu - theta * (peak - 2.0 * m)
    t = theta * m * (peak - m)
    sq = math.sqrt(q * q + 4.0 * theta * t)
    if not sq < math.inf:  # the squares overflow near the top of the double range
        sq = math.hypot(q, 2.0 * math.sqrt(theta) * math.sqrt(t))
    return 2.0 * t / (sq + q) if q > 0 else (sq - q) / (2.0 * theta)


class _Axis(NamedTuple):
    """A reduced system's pre-scan points and the scalars of its objective.

    ``w``, ``theta``, ``r`` and ``log_gap`` = log(c - r) are row views of
    one read-only 4 x 256 array.  The rest are the objective's delay-free
    scalars: lam + mu, m = p*P, c - m, P - c, m (P - m) and log(c).
    """

    w: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    log_gap: np.ndarray
    lam_mu: float
    m: float
    span: float
    headroom: float
    spread: float
    log_c: float


@functools.lru_cache(maxsize=256)
def _axis(params: MmooParams, c: float, gamma: float) -> _Axis:
    """The pre-scan's points and the objective's scalars (``_Axis``) of one system.

    Keyed by the reduced system (the source, its per-flow capacity c and
    decay rate gamma), not by the delay or the flow count.  The 256 points
    are evenly spaced in w from theta = ``_EDGE``*gamma to theta =
    gamma*(1 - ``_EDGE``) =: T.  The ends' gaps avoid cancellation: r - m
    from ``_above_mean``, and c - r at T from T g^2 - M g + K = 0 (kk, mm
    below), M = lam + mu + T (2c - P), K = (lam + mu)(c - m) - T c (P - c),
    with K at least _EDGE*gamma*c*(P - c) to stay below theta(c) where gamma
    rounds above it.  An end gap that underflows to 0 or rounds to c - m or
    above raises ``InvalidParamsError``, and so do a discriminant of that
    quadratic that rounds below 0 and an end at which theta's denominator
    r (P - r) underflows to 0 (it is concave in r, so least at an end).
    Both end w move inward by ``_W_INSET`` so that log and exp rounding
    keeps them inside the insets.
    256 systems take at most about 2.2 MB.
    """
    lam_mu, peak, m = params.lam + params.mu, params.peak, params.mean_rate
    span, headroom = c - m, peak - c
    dc = c * headroom
    inset, t_top = _EDGE * gamma, gamma - _EDGE * gamma
    bottom = _above_mean(inset, lam_mu, m, peak)
    kk = max(lam_mu * span - t_top * dc, inset * dc)
    mm = lam_mu + t_top * (2.0 * c - peak)
    disc = mm * mm - 4.0 * t_top * kk

    def cannot_place(why):
        return InvalidParamsError(f"the standard bound's optimizer cannot place the ends of "
                                  f"(0, gamma={gamma:.6g}): {why}")

    negative = "the upper end's discriminant rounds below 0"
    if disc < 0.0:
        raise cannot_place(negative)
    root = math.sqrt(disc)
    if not root < math.inf:  # as in ``_above_mean``: a difference of squares
        s = 2.0 * math.sqrt(t_top) * math.sqrt(kk)
        if mm < s:
            raise cannot_place(negative)
        root = math.sqrt(mm - s) * math.sqrt(mm + s)
    top = 2.0 * kk / (mm + root)
    if not (0 < bottom < span and 0 < top < span):
        raise cannot_place("an end's gap leaves (0, c - p*P)")
    if not min((m + bottom) * (span - bottom + headroom), (c - top) * (top + headroom)) > 0.0:
        raise cannot_place("r (P - r) underflows to 0 at an end")
    w_bottom = -math.log((span - bottom) / bottom) + _W_INSET
    w_top = math.log((span - top) / top) - _W_INSET
    axis = np.empty((4, 256))
    w, theta, r, gap = axis
    np.multiply(w_top - w_bottom, _STEPS, out=w)
    w += w_bottom
    # ``_objective``'s float operations, in its order, so that scan and objective agree
    np.exp(w, out=r)
    np.add(r, 1.0, out=gap)
    np.divide(span, gap, out=gap)  # c - r
    r *= gap  # r - m
    np.multiply(r, lam_mu, out=theta)
    r += m
    theta /= r * (gap + headroom)
    np.log(gap, out=gap)
    axis.setflags(write=False)
    return _Axis(*axis, lam_mu, m, span, headroom, m * (peak - m), math.log(c))


def _objective(axis: _Axis, term):
    """Value and slope in w of one term's log L + theta*(a + b*r_theta).

    With c the term's per-flow capacity and m = p*P, w gives
    g = c - r = (c - m)/(1 + e^w), L's margin, and x = r - m = e^w g, and
    theta = (lam + mu) x/(r (P - r)).  ``at(w)`` gives theta and the value
    f = log(c) [+ 1 with ``euler``] - log(g) + theta*(a + b*r).
    ``slope(w)`` gives df/dw = (x/span)(1 + g E), span = c - m, which has
    no pole at either end, and d2f/dw2 = (x g/span^2)(1 + (g - x) E + x g E'),
    with E = theta' (a + b r) + theta b and E' = theta'' (a + b r) + 2 b theta'
    in r: theta' = (lam + mu)(x^2 + m (P - m))/D^2 is rational, D = r (P - r),
    and theta'' = 2 (theta - theta' (P - 2r))/D.  The delay-free scalars come
    from the term's system, ``axis`` (``_axis``); only a and b vary per call.
    """
    lam_mu, m, span, headroom, spread = axis.lam_mu, axis.m, axis.span, axis.headroom, axis.spread
    a, b = term.a, term.b
    const = 1.0 + axis.log_c if term.euler else axis.log_c
    exp, log = math.exp, math.log

    def at(w: float) -> tuple[float, float]:
        ew = exp(w)
        g = span / (ew + 1.0)
        x = ew * g
        r = x + m
        theta = x * lam_mu / (r * (g + headroom))
        return theta, const - log(g) + theta * (a + b * r)

    def slope(w: float) -> tuple[float, float]:
        ew = exp(w)
        g = span / (ew + 1.0)
        x = ew * g
        r = x + m
        d = r * (g + headroom)
        theta, d1 = x * lam_mu / d, lam_mu * (x * x + spread) / d / d
        d2 = 2.0 * (theta - d1 * (g + headroom - r)) / d
        e = d1 * (a + b * r) + theta * b
        e1 = d2 * (a + b * r) + 2.0 * b * d1
        u = x / span
        return u * (1.0 + g * e), u * g / span * (1.0 + (g - x) * e + x * g * e1)

    return at, slope


def _refine(slope, lo: float, w: float, hi: float) -> float:
    """The w in [lo, hi] where df/dw changes sign, by Newton's method from ``w``.

    It bisects where the objective is not convex (d2f/dw2 <= 0) and where a
    step leaves the bracket that each evaluated sign narrows, and stops at
    the first step below ``_W_TOL``.  A start at an end sloping outward
    returns it.
    """
    for _ in range(100):
        g, dg = slope(w)
        if g < 0:
            lo = w
        elif g > 0:
            hi = w
        else:
            return w
        step = w - g / dg if dg > 0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - w) <= _W_TOL * max(1.0, abs(step)):
            return step
        w = step
    return w


def _minimize_theta(params: MmooParams, term) -> tuple[float, float, bool]:
    """Minimize one term of ``martingale._bound_terms`` over (0, gamma).

    The objective (``_objective``) is the log of the term's prefactor L
    (``martingale._Term``) plus its exponent; gamma (``theta_max``) is the
    decay rate of the term's reduced system.
    Returns the minimizer, the minimum and whether the minimizer lies at an
    end of the inset interval.  A gamma below about 2e-299, whose inset end
    ``_EDGE*gamma`` is subnormal, raises ``InvalidParamsError``, and so do
    interval ends that ``_axis`` cannot place.

    ``_refine`` starts at the smallest point of the pre-scan on the system's
    ``_axis``, bracketed by its neighbours.  The value is the objective at
    the refined w, or at that scan point where lower (the objective need
    not be unimodal).
    """
    theta_max = term.consts.gamma
    if _EDGE * theta_max < sys.float_info.min:
        raise InvalidParamsError(
            f"decay rate gamma={theta_max:.6g} is too small for the standard bound's "
            f"optimizer: {_EDGE:g}*gamma is below the smallest normal double")
    axis = _axis(params, term.c, theta_max)
    w = axis.w
    i = int((axis.theta * (term.a + term.b * axis.r) - axis.log_gap).argmin())
    at, slope = _objective(axis, term)
    th, fv = at(_refine(slope, w.item(max(i - 1, 0)), w.item(i), w.item(min(i + 1, w.size - 1))))
    th_scan, f_scan = at(w.item(i))
    if f_scan < fv:
        th, fv = th_scan, f_scan
    return th, fv, min(th, theta_max - th) <= 2.0 * _EDGE * theta_max


def standard_delay_bound(scenario: Scenario, sched: SchedulerSpec, d: float) -> StandardBoundResult:
    """Classical delay bound P(W1 > d) <= value for each scheduler.

    The sum over the scheduler's terms (``martingale._bound_terms``) of the
    infimum over (0, gamma) of L * exp(theta*(a + b*r_theta)) on the term's
    reduced system (L as in ``martingale._Term``); FIFO's, for one, is
    inf L e^{-theta C d}.
    ``theta_star`` is the first term's minimizer.
    """
    minima = [_minimize_theta(scenario.params, t) for t in _bound_terms(scenario, sched, d)]
    value = 0.0
    for _, fv, _ in minima:
        value += math.exp(fv)
    return StandardBoundResult(value, minima[0][0], any(edge for _, _, edge in minima))

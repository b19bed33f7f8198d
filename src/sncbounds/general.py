"""Decay rates and sample-path bounds for birth-death Markov fluids.

The decay rate gamma of a fluid source with generator Q, rates r, and
allocated capacity C solves the generalized eigenproblem

    Q h = -gamma * diag(u) h,     u_j = r_j - C,

with h strictly positive.  Every source is a birth-death chain, hence
reversible, so Q is similar to the symmetric S = D^1/2 Q D^-1/2, D =
diag(pi), and gamma is the positive root of the convex top eigenvalue
lambda_max(S + theta*diag(u)) (Elwalid & Mitra, IEEE/ACM ToN 1993).  For 0 < theta, theta < gamma exactly when
-(Q + theta*diag(u)) is a nonsingular M-matrix, that is, when all its
pivots are positive.  They follow a three-term recursion, O(k) on Python
floats, with no matrix at all.  Bisection on their signs brackets gamma.
Newton's method then runs on the twisted pivot at the eigenvector's peak p
(Dhillon & Parlett, Linear Algebra Appl. 2004), which is concave in theta
and zero at gamma.  h is the product of pivot ratios outward from p, and is
checked to be positive and to meet the residual tolerance.  No step divides
by a drift, so a state whose rate equals C is solved as it stands, without
perturbing the capacity.  The same pivot test gives the effective bandwidth:
alpha_theta is the capacity C at which theta is the decay rate.

The two-flow bound couples two such solutions through a double infimum over
the capacity split C1 + C2 = C and a common decay gamma <= min(gamma_1,
gamma_2); eigenvector entries enter with exponents gamma/gamma_k (the power
that turns each exponential supermartingale into one with common decay).
The decays of all usable splits come from one solve per flow and split,
the prefactor K is broadcast over the (split, gamma) table, and the bound
is the first minimum of that table with splits outer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvectorError,
    InvalidParamsError,
    NoFeasibleSplitError,
    TrivialScenarioError,
    UnstableScenarioError,
)
from .martingale import martingale_constants
from .traffic import MarkovFluidSource, Scenario, aggregate_source

__all__ = [
    "GeneralizedDecay",
    "GeneralBoundResult",
    "generalized_decay",
    "fluid_effective_bandwidth",
    "general_sample_path_bound",
    "mmoo_consistency_check",
]

_RESIDUAL_TOL = 1e-10
_NEWTON_TOL = 1e-14  # relative Newton step at which gamma has converged
_NEWTON_STEPS = 100
_SPLITS = 64  # capacity splits of the two-flow bound's table
_GAMMAS = 64  # common decay rates per split, from 0 to the smaller decay


@dataclass(frozen=True)
class GeneralizedDecay:
    """Decay rate, positive eigenvector (min entry 1), and per-state drifts."""

    gamma: float
    eigenvector: np.ndarray
    drifts: np.ndarray


def _excesses(theta: float, a: list, b: list, u: list, stop: int):
    """Pivot excesses of -(Q + theta*diag(u)) over states 0..stop-1.

    ``a[i] = q_{i,i+1}`` and ``b[i] = q_{i+1,i}``.  The pivot of the
    unpivoted LU at state i is ``F_i = a_i + e_i``, with the excess ``e_i =
    z_{i-1} - theta*u_i`` and ``z_i = b_i e_i / F_i``.  This uses the zero
    row sums of Q in place of its diagonal (as Grassmann, Taksar & Heyman,
    Oper. Res. 1985, do at theta = 0), so e, which is O(theta), carries no
    cancellation of the O(q) diagonal.
    Returns the excesses, the ``z`` that state ``stop`` adds to its own
    excess, and its derivative in theta; None as soon as a pivot is not
    positive.  On reversed lists the same sweep runs backwards.
    """
    excess = []
    z = dz = 0.0
    for _, ai, bi, ui in zip(range(stop), a, b, u):
        e = z - theta * ui
        f = ai + e
        if not f > 0:
            return None
        excess.append(e)
        z = bi * e / f
        dz = bi * ai * (dz - ui) / (f * f)
    return excess, z, dz


def _below_gamma(theta: float, a: list, b: list, u: list) -> bool:
    """True when every pivot of -(Q + theta*diag(u)) is positive: theta < gamma."""
    z = 0.0
    for ai, bi, ui in zip(a, b, u):
        e = z - theta * ui
        f = ai + e
        if not f > 0:
            return False
        z = bi * e / f
    return True


def _birth_death_lane(up: list, down: list, u: list, theta: float) -> tuple:
    """gamma and h of one birth-death lane by three-term recursions on floats.

    ``up[i] = q_{i,i+1}`` and ``down[i] = q_{i+1,i}``, and ``theta`` lies
    above gamma.  For theta > 0, theta < gamma exactly when every pivot of
    -(Q + theta*diag(u)) is positive (a nonsingular M-matrix); bisection on
    that test gives a bracket of relative width 1e-3.  At its lower end the
    twisted pivots are smallest at the peak p of the eigenvector (Dhillon &
    Parlett, Linear Algebra Appl. 2004).  The twisted pivot at p, the Schur
    complement ``min over x_p = 1 of -x'(S + theta*diag(u))x``, is concave
    in theta and zero at gamma, so Newton's method on it descends to gamma
    from the bracket's upper end; a step that leaves the bracket is
    replaced by bisection.  h is pinned to 1 at p and continued outwards
    through the forward pivots F below p (``F_i h_i = q_{i,i+1} h_{i+1}``)
    and the backward pivots B above it (``B_i h_i = q_{i,i-1} h_{i-1}``):
    products of positive numbers, so the tail keeps its relative accuracy.
    """
    k = len(u)
    fwd = up + [0.0], down + [0.0], u
    bwd = down[::-1] + [0.0], up[::-1] + [0.0], u[::-1]
    lo, hi = 0.0, theta
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if _below_gamma(mid, *fwd):
            lo = mid
        else:
            hi = mid
    ahead, behind = _excesses(lo, *fwd, k), _excesses(lo, *bwd, k)
    if ahead is None or behind is None:
        raise EigenvectorError(f"decay rate {lo:.3g} is below the rounding of the pivots")
    ef, eb = ahead[0], behind[0][::-1]
    # twisted pivot at i: the forward excess plus what state i+1 passes back
    twisted = [e + a * x / (b + x) for e, a, b, x in zip(ef, up, down, eb[1:])] + [ef[-1]]
    p = twisted.index(min(twisted))
    theta = hi
    for _ in range(_NEWTON_STEPS):
        left, right = _excesses(theta, *fwd, p), _excesses(theta, *bwd, k - 1 - p)
        if left is None or right is None:  # a pivot off p fails: theta is above gamma
            hi = theta
            theta = 0.5 * (lo + hi)
            continue
        s = left[1] + right[1] - theta * u[p]
        ds = left[2] + right[2] - u[p]
        if s < 0:
            hi = theta
        elif s > 0:
            lo = theta
        step = s / ds if ds < 0 else math.nan  # a slope >= 0 falls back to bisection
        # near gamma, rounding in s can outweigh the tolerance; the bracket cannot
        if abs(step) <= _NEWTON_TOL * theta or hi - lo <= _NEWTON_TOL * theta:
            break
        theta -= step
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    else:
        raise EigenvectorError(
            f"decay-rate Newton iteration did not converge (theta={theta:.6g})"
        )
    h = [1.0] * k
    for i in range(p - 1, -1, -1):
        h[i] = up[i] * h[i + 1] / (up[i] + left[0][i])
    for i in range(p + 1, k):
        h[i] = down[i - 1] * h[i - 1] / (down[i - 1] + right[0][k - 1 - i])
    return theta, h


def _decays(src: MarkovFluidSource, caps: np.ndarray) -> tuple:
    """Decay rates, eigenvectors and drifts at every capacity in ``caps``.

    Each capacity is one ``_birth_death_lane`` from the upper end of its
    bracket, ``min over u_j > 0 of (up_j + down_{j-1})/u_j``, followed by
    the positivity and residual checks.  Returns ``(gamma, h, drifts)`` of
    shapes (m,), (m, k) and (m, k).  The caller has checked that every
    capacity lies strictly between the mean and the peak rate.
    """
    up, down = src.up, src.down
    exits = np.append(up, 0.0) + np.insert(down, 0, 0.0)  # -q_jj
    u = src.rates[None, :] - np.asarray(caps, dtype=float)[:, None]
    ratios = np.full_like(u, np.inf)
    np.divide(exits, u, out=ratios, where=u > 0)
    a, b = up.tolist(), down.tolist()
    lanes = [_birth_death_lane(a, b, ul, t)
             for ul, t in zip(u.tolist(), ratios.min(axis=1).tolist())]
    theta = np.array([t for t, _ in lanes])
    h = np.array([hl for _, hl in lanes])
    low = h.min(axis=1)
    if not (low > 0).all():
        raise EigenvectorError(f"eigenvector has a non-positive entry {low[~(low > 0)][0]:.3g}")
    h /= low[:, None]
    # (Q + theta*diag(u)) h on the three diagonals of Q
    r = (theta[:, None] * u - exits) * h
    r[:, 1:] += down * h[:, :-1]
    r[:, :-1] += up * h[:, 1:]
    residual = np.abs(r).max(axis=1) / h.max(axis=1)
    if not (residual <= _RESIDUAL_TOL).all():
        worst = residual[~(residual <= _RESIDUAL_TOL)][0]
        raise EigenvectorError(f"eigenvector residual {worst:.3g} of its largest entry")
    return theta, h, u


def generalized_decay(src: MarkovFluidSource, allocated_capacity: float) -> GeneralizedDecay:
    """Decay rate gamma and eigenvector h with Q h = -gamma diag(r - C) h.

    The top eigenvalue ``f(theta)`` of Q + theta*diag(u) is convex with
    ``f(0) = 0``, ``f'(0) = mean - C < 0`` and ``f(theta) >= q_jj +
    theta*u_j``.  So gamma lies in (0, min over u_j > 0 of -q_jj/u_j], and
    ``_birth_death_lane`` solves it from that bracket by pivot recursions.
    h is scaled to minimum 1.  This is the one-lane call to ``_decays``.

    Requires stability (mean rate < capacity) and a capacity below the peak
    rate.  Raises ``EigenvectorError`` when h is not positive or misses the
    residual tolerance.
    """
    c = float(allocated_capacity)
    if not src.mean_rate < c:
        raise UnstableScenarioError(
            f"mean rate {src.mean_rate:.6g} >= allocated capacity {c:.6g}"
        )
    if c >= src.rates.max():
        raise TrivialScenarioError(
            f"allocated capacity {c:.6g} at or above the peak rate "
            f"{src.rates.max():.6g}: the queue never builds"
        )
    gamma, h, u = _decays(src, np.array([c]))
    return GeneralizedDecay(float(gamma[0]), h[0], u[0])


def fluid_effective_bandwidth(theta: float, src: MarkovFluidSource) -> float:
    """alpha_theta = zeta_theta/theta, zeta the largest eigenvalue of Q + theta*diag(r).

    alpha_theta is increasing in theta, and it is the capacity C whose decay
    rate is theta: theta < gamma(C) exactly when C > alpha_theta.  So alpha
    is found by bisection on the pivot test of ``_below_gamma`` between the
    mean and the peak rate, down to adjacent doubles.
    """
    if not theta > 0:
        raise InvalidParamsError(f"theta must be > 0, got {theta}")
    a, b, r = src.up.tolist() + [0.0], src.down.tolist() + [0.0], src.rates.tolist()
    lo, hi = src.mean_rate, max(r)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _below_gamma(theta, a, b, [x - mid for x in r]):
            hi = mid
        else:
            lo = mid
    return mid


@dataclass(frozen=True)
class GeneralBoundResult:
    value: float
    gamma: float
    c1: float


def _k_factor(gammas: np.ndarray, d1: tuple, pi1: np.ndarray,
              d2: tuple, pi2: np.ndarray) -> np.ndarray:
    """K = pi1.e1 * pi2.e2 / min over feasible (i, j) of e1_i e2_j, per (split, gamma).

    ``d1`` and ``d2`` are ``_decays`` results over the same m splits, and
    ``gammas`` is (m, G); ``e_k = h_k ** (gamma/gamma_k)``.  A pair of states
    is feasible when its drifts sum to >= 0: the states the queue can be in
    as it crosses a level.  ``x ** a`` is increasing in x for a >= 0, so the
    min over feasible j of e2_j is the power of the min of h2_j, and the
    (m, k1, k2) mask is needed once per split, not per gamma.
    """
    (g1, h1, u1), (g2, h2, u2) = d1, d2
    feasible = u1[:, :, None] + u2[:, None, :] >= 0
    low2 = np.where(feasible, h2[:, None, :], np.inf).min(axis=2)
    a1 = (gammas / g1[:, None])[:, :, None]
    a2 = (gammas / g2[:, None])[:, :, None]
    e1 = h1[:, None, :] ** a1
    pairs = np.where(feasible.any(axis=2)[:, None, :], e1 * low2[:, None, :] ** a2, np.inf)
    return (e1 @ pi1) * (h2[:, None, :] ** a2 @ pi2) / pairs.min(axis=2)


def general_sample_path_bound(src1: MarkovFluidSource, src2: MarkovFluidSource,
                              capacity: float, u: float, sigma: float) -> GeneralBoundResult:
    """Double infimum over capacity splits and the common decay rate.

    The bound ``K(c1, gamma) * exp(-gamma*(c1*u + sigma))`` is evaluated on
    the whole table of ``_SPLITS`` splits, evenly inside (m1, C - m2), by
    ``_GAMMAS`` decay rates from 0 to each split's ``min(gamma_1, gamma_2)``,
    and the first minimum in C order (c1 outer, gamma inner) wins.
    """
    for name, x in (("u", u), ("sigma", sigma)):
        if not (math.isfinite(x) and x >= 0):
            raise InvalidParamsError(f"{name} must be finite and >= 0, got {x}")
    m1, m2 = src1.mean_rate, src2.mean_rate
    width = capacity - m1 - m2
    if width <= 0:
        raise NoFeasibleSplitError(
            f"total mean rate {m1 + m2:.6g} >= capacity {capacity:.6g}"
        )
    c1 = m1 + width * (np.arange(1, _SPLITS + 1) / (_SPLITS + 1))
    c2 = capacity - c1
    # the splits at which both eigenproblems are neither unstable nor trivial
    usable = ((m1 < c1) & (c1 < src1.rates.max())
              & (m2 < c2) & (c2 < src2.rates.max()))
    if not usable.any():
        raise NoFeasibleSplitError("no capacity split admits both eigenproblems")
    c1 = c1[usable]
    d1, d2 = _decays(src1, c1), _decays(src2, c2[usable])
    gammas = np.linspace(0.0, np.minimum(d1[0], d2[0]), _GAMMAS, axis=1)
    table = _k_factor(gammas, d1, src1.stationary, d2, src2.stationary) \
        * np.exp(-gammas * (c1[:, None] * u + sigma))
    i, j = np.unravel_index(np.argmin(table), table.shape)
    return GeneralBoundResult(float(table[i, j]), float(gammas[i, j]), float(c1[i]))


def mmoo_consistency_check(scenario: Scenario) -> dict:
    """Validate the eigen machinery against the closed-form constants.

    Builds the n-fold On-count chain at total capacity C = n*c and checks
    that (a) the generalized eigenvalue reproduces the closed-form gamma and
    (b) the eigenvector has the exponential profile h_j = exp(-theta*j) whose
    stationary sum, evaluated at the fractional drift-zero crossing C/P,
    reproduces the closed-form prefactor K^n.  Also reports the single-flow
    prefactor pi.h / min of h over the states with drift >= 0, which
    sharpens K^n by the integer-crossing factor exp(theta*(ceil(C/P) - C/P)).
    """
    params = scenario.params
    n = scenario.n
    cap = scenario.capacity
    closed = martingale_constants(scenario)
    src = aggregate_source(n, params)
    gd = generalized_decay(src, cap)

    h = gd.eigenvector
    theta_hats = -np.log(h[1:] / h[:-1])
    theta_hat = float(theta_hats.mean())
    theta_spread = float(np.abs(theta_hats - theta_hat).max())

    kn_closed = closed.K ** n
    kn_general = float(src.stationary @ h) * math.exp(theta_hat * cap / params.peak)

    sf = float(h @ src.stationary / h[gd.drifts >= 0].min())
    crossing = math.ceil(cap / params.peak) - cap / params.peak
    sf_predicted = kn_closed * math.exp(closed.theta * crossing)

    return {
        "n": n,
        "gamma_general": gd.gamma,
        "gamma_closed": closed.gamma,
        "gamma_abs_delta": abs(gd.gamma - closed.gamma),
        "prefactor_general": kn_general,
        "prefactor_closed": kn_closed,
        "prefactor_rel_error": abs(kn_general - kn_closed) / kn_closed,
        "theta_spread": theta_spread,
        "single_flow_prefactor": sf,
        "single_flow_predicted": sf_predicted,
        "single_flow_rel_error": abs(sf - sf_predicted) / sf_predicted,
    }

"""Decay rates and sample-path bounds for general reversible Markov fluids.

The decay rate gamma of a fluid source with generator Q, rates r, and
allocated capacity C solves the generalized eigenproblem

    Q h = -gamma * diag(u) h,     u_j = r_j - C,

with h strictly positive.  Every source is reversible, so Q is similar to
the symmetric S = D^1/2 Q D^-1/2, D = diag(pi), and gamma is the positive
root of the convex top eigenvalue lambda_max(S + theta*diag(u)) (Elwalid &
Mitra, IEEE/ACM ToN 1993).  Newton's method finds it with one symmetric
eigensolve per step, for many capacities at once: each step is one stacked
``eigh`` over the capacities still iterating, and each capacity stops at its
own convergence.  h, equal to D^-1/2 g for the top eigenvector g, is
solved from (Q + gamma*diag(u)) h = 0 directly, which keeps the entries
that g, far below its largest entry, loses to rounding.  No step divides by
a drift, so a state whose rate equals C is solved as it stands, without
perturbing the capacity.  The effective bandwidth is the top eigenvalue of
the same symmetric matrix with u replaced by r.

The two-flow bound couples two such solutions through a double infimum over
the capacity split C1 + C2 = C and a common decay gamma <= min(gamma_1,
gamma_2); eigenvector entries enter with exponents gamma/gamma_k (the power
that turns each exponential supermartingale into one with common decay).
The decays of all usable splits come from one lockstep Newton solve per
flow, the prefactor K is broadcast over the (split, gamma) table, and the
bound is the first minimum of that table with splits outer.  A single flow
is the same computation with a one-state partner (h = [1], pi = [1], drift
0), whose factor in K is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSourceError,
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
    "GridConfig",
    "GeneralBoundResult",
    "generalized_decay",
    "fluid_effective_bandwidth",
    "single_flow_fluid_bound",
    "general_sample_path_bound",
    "mmoo_consistency_check",
]

_RESIDUAL_TOL = 1e-10
_NEWTON_TOL = 1e-14  # relative Newton step at which gamma has converged
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class GeneralizedDecay:
    """Decay rate, positive eigenvector (min entry 1), and per-state drifts."""

    gamma: float
    eigenvector: np.ndarray
    drifts: np.ndarray


def _symmetrized(q: np.ndarray) -> np.ndarray:
    """S = D^1/2 Q D^-1/2, D = diag(pi), of a reversible generator Q.

    Detailed balance makes ``S_ij = sqrt(q_ij * q_ji)`` off the diagonal,
    so S is symmetric without reference to pi; ``S_ii = q_ii``.
    """
    s = np.sqrt(q * q.T)
    np.fill_diagonal(s, np.diag(q))
    return s


def _decays(src: MarkovFluidSource, caps: np.ndarray) -> tuple:
    """Decay rates, eigenvectors and drifts at every capacity in ``caps``.

    Runs ``generalized_decay``'s Newton iteration for all capacities in
    lockstep: each step is one stacked ``eigh``, and a lane stops at its own
    convergence.  Returns ``(gamma, h, drifts)`` of shapes (m,), (m, k) and
    (m, k).  The caller has checked that every capacity lies strictly
    between the mean and the peak rate.
    """
    q = src.generator
    k = src.n_states
    eye = np.eye(k)
    u = src.rates[None, :] - np.asarray(caps, dtype=float)[:, None]
    ratios = np.full_like(u, np.inf)
    np.divide(-np.diag(q), u, out=ratios, where=u > 0)
    theta = ratios.min(axis=1)
    s = _symmetrized(q)
    g = np.empty_like(u)
    live = np.arange(len(u))
    for _ in range(_NEWTON_STEPS):
        t, ul = theta[live], u[live]
        vals, vecs = np.linalg.eigh(s + (t[:, None] * ul)[:, :, None] * eye)
        g[live] = top = vecs[:, :, -1]
        # matmul, not einsum: it sums g' diag(u) g in the same order as a dot
        step = vals[:, -1] / (top[:, None, :] @ (ul * top)[:, :, None])[:, 0, 0]
        done = ~(step > _NEWTON_TOL * t)
        theta[live] = np.where(done, t, t - step)
        live = live[~done]
        if not live.size:
            break
    else:
        raise EigenvectorError(
            f"decay-rate Newton iteration did not converge (theta={theta[live[0]]:.6g})"
        )
    a = q + (theta[:, None] * u)[:, :, None] * eye
    # h = 1 where g peaks; the other equations, without that state, give the rest
    lanes = np.arange(len(u))[:, None]
    peak = np.argmax(np.abs(g), axis=1)[:, None]
    rest = np.arange(k - 1)[None, :]
    rest = rest + (rest >= peak)
    h = np.ones_like(u)
    h[lanes, rest] = np.linalg.solve(-a[lanes[:, :, None], rest[:, :, None], rest[:, None, :]],
                                     a[lanes, rest, peak][:, :, None])[:, :, 0]
    low = h.min(axis=1)
    if not (low > 0).all():
        raise EigenvectorError(f"eigenvector has a non-positive entry {low[~(low > 0)][0]:.3g}")
    h /= low[:, None]
    residual = np.abs(a @ h[:, :, None]).max(axis=(1, 2)) / h.max(axis=1)
    if not (residual <= _RESIDUAL_TOL).all():
        worst = residual[~(residual <= _RESIDUAL_TOL)][0]
        raise EigenvectorError(f"eigenvector residual {worst:.3g} of its largest entry")
    return theta, h, u


def _check_states(src: MarkovFluidSource) -> None:
    if src.n_states < 2:
        raise DegenerateSourceError(
            "constant-rate (single-state) source has no eigenstructure"
        )


def _check_capacity(src: MarkovFluidSource, c: float) -> None:
    _check_states(src)
    if not src.mean_rate < c:
        raise UnstableScenarioError(
            f"mean rate {src.mean_rate:.6g} >= allocated capacity {c:.6g}"
        )
    if c >= src.rates.max():
        raise TrivialScenarioError(
            f"allocated capacity {c:.6g} at or above the peak rate "
            f"{src.rates.max():.6g}: the queue never builds"
        )


def generalized_decay(src: MarkovFluidSource, allocated_capacity: float) -> GeneralizedDecay:
    """Decay rate gamma and eigenvector h with Q h = -gamma diag(r - C) h.

    ``f(theta) = lambda_max(S + theta*diag(u))`` is convex with ``f(0) = 0``
    and ``f'(0) = mean - C < 0``, and ``f(theta) >= q_jj + theta*u_j``.  So
    Newton steps ``f/f'``, ``f' = g' diag(u) g`` at the unit top eigenvector
    g, descend monotonically to gamma from ``min over u_j > 0 of
    -q_jj/u_j``.  h is pinned to 1 where g peaks; the other equations form a
    proper principal submatrix of an irreducible Metzler matrix with Perron
    root 0, which is nonsingular.  h is then scaled to minimum 1.  This is
    the one-lane call to ``_decays``.

    Requires stability (mean rate < capacity) and a non-degenerate source.
    Raises ``EigenvectorError`` when h is not positive or misses the
    residual tolerance.
    """
    c = float(allocated_capacity)
    _check_capacity(src, c)
    gamma, h, u = _decays(src, np.array([c]))
    return GeneralizedDecay(float(gamma[0]), h[0], u[0])


def fluid_effective_bandwidth(theta: float, src: MarkovFluidSource) -> float:
    """alpha_theta = zeta_theta/theta, zeta the largest eigenvalue of Q + theta*diag(r)."""
    if not theta > 0:
        raise InvalidParamsError(f"theta must be > 0, got {theta}")
    m = _symmetrized(src.generator) + np.diag(theta * src.rates)
    return float(np.linalg.eigvalsh(m)[-1]) / theta


def single_flow_fluid_bound(src: MarkovFluidSource, capacity: float, sigma: float) -> float:
    """Steady-state bound P(Q > sigma) <= prefactor * exp(-gamma*sigma)."""
    gd = generalized_decay(src, capacity)
    return _own_prefactor(gd, src.stationary) * math.exp(-gd.gamma * sigma)


@dataclass(frozen=True)
class GridConfig:
    """Resolution of the double infimum; explicit values override the counts."""

    c1_points: int = 64
    gamma_points: int = 64
    c1_values: Optional[np.ndarray] = None
    gamma_values: Optional[np.ndarray] = None


@dataclass(frozen=True)
class GeneralBoundResult:
    value: float
    gamma: float
    c1: float


def _alone(m: int) -> tuple:
    """The one-state partner of m splits, ``((gamma, h, drifts), pi)``.

    gamma is inf, h = [1], the drift 0 and pi = [1], so its factor in K is 1
    and every state of the other flow with drift >= 0 stays feasible.
    """
    return (np.full(m, np.inf), np.ones((m, 1)), np.zeros((m, 1))), np.ones(1)


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


def _own_prefactor(gd: GeneralizedDecay, pi: np.ndarray) -> float:
    """Single-source prefactor at its own decay: pi.h / min of h over drift >= 0."""
    lane = (np.array([gd.gamma]), gd.eigenvector[None], gd.drifts[None])
    return float(_k_factor(np.array([[gd.gamma]]), lane, pi, *_alone(1))[0, 0])


def general_sample_path_bound(src1: MarkovFluidSource,
                              src2: Optional[MarkovFluidSource],
                              capacity: float, u: float, sigma: float,
                              grid: GridConfig = GridConfig()) -> GeneralBoundResult:
    """Double infimum over capacity splits and the common decay rate.

    The bound ``K(c1, gamma) * exp(-gamma*(c1*u + sigma))`` is evaluated on
    the whole (split, gamma) table at once, and the first minimum in C
    order (c1 outer, gamma inner) wins.  ``src2=None`` (or an all-silent
    source) removes the cross flow: the split degenerates to C1 = C, the
    partner has one silent state, and the remaining infimum runs over gamma
    in [0, gamma_1].
    """
    for name, x in (("u", u), ("sigma", sigma)):
        if not (math.isfinite(x) and x >= 0):
            raise InvalidParamsError(f"{name} must be finite and >= 0, got {x}")
    if grid.gamma_values is None and not grid.gamma_points >= 1:
        raise InvalidParamsError(f"gamma_points must be >= 1, got {grid.gamma_points}")
    if grid.c1_values is None and not grid.c1_points >= 1:
        raise InvalidParamsError(f"c1_points must be >= 1, got {grid.c1_points}")
    if src2 is not None and not src2.rates.any():
        src2 = None

    if src2 is None:
        c1 = np.array([float(capacity)])
        _check_capacity(src1, c1[0])
        d1 = _decays(src1, c1)
        d2, pi2 = _alone(1)
    else:
        m1, m2 = src1.mean_rate, src2.mean_rate
        width = capacity - m1 - m2
        if width <= 0:
            raise NoFeasibleSplitError(
                f"total mean rate {m1 + m2:.6g} >= capacity {capacity:.6g}"
            )
        _check_states(src1)
        _check_states(src2)
        if grid.c1_values is not None:
            c1 = np.asarray(grid.c1_values, dtype=float)
        else:
            c1 = m1 + width * (np.arange(1, grid.c1_points + 1) / (grid.c1_points + 1))
        c2 = capacity - c1
        # the splits at which both eigenproblems are neither unstable nor trivial
        usable = ((m1 < c1) & (c1 < src1.rates.max())
                  & (m2 < c2) & (c2 < src2.rates.max()))
        if not usable.any():
            raise NoFeasibleSplitError("no capacity split admits both eigenproblems")
        c1 = c1[usable]
        d1, d2 = _decays(src1, c1), _decays(src2, c2[usable])
        pi2 = src2.stationary

    gmax = np.minimum(d1[0], d2[0])[:, None]
    if grid.gamma_values is None:
        gammas = np.linspace(0.0, gmax[:, 0], grid.gamma_points, axis=1)
        kept = np.ones(gammas.shape, dtype=bool)
    else:
        gv = np.asarray(grid.gamma_values, dtype=float)
        # keep points equal to gmax up to rounding of the eigen solve
        kept = (gv >= 0) & (gv <= gmax * (1 + 1e-9))
        if not kept.any():
            raise InvalidParamsError("no gamma value lies in [0, gamma_max] of any split")
        gammas = np.where(kept, np.minimum(gv, gmax), 0.0)
    table = _k_factor(gammas, d1, src1.stationary, d2, pi2) \
        * np.exp(-gammas * (c1[:, None] * u + sigma))
    table = np.where(kept, table, np.inf)
    i, j = np.unravel_index(np.argmin(table), table.shape)
    return GeneralBoundResult(float(table[i, j]), float(gammas[i, j]), float(c1[i]))


def mmoo_consistency_check(scenario: Scenario) -> dict:
    """Validate the eigen machinery against the closed-form constants.

    Builds the n-fold On-count chain at total capacity C = n*c and checks
    that (a) the generalized eigenvalue reproduces the closed-form gamma and
    (b) the eigenvector has the exponential profile h_j = exp(-theta*j) whose
    stationary sum, evaluated at the fractional drift-zero crossing C/P,
    reproduces the closed-form prefactor K^n.  Also reports the directly
    computed single-flow bound prefactor, which sharpens K^n by the
    integer-crossing factor exp(theta*(ceil(C/P) - C/P)).
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

    sf = _own_prefactor(gd, src.stationary)
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

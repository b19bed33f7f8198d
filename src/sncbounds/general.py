"""Decay rates and sample-path bounds for general reversible Markov fluids.

The decay rate gamma of a fluid source with generator Q, rates r, and
allocated capacity C solves the generalized eigenproblem

    Q h = -gamma * diag(u) h,     u_j = r_j - C,

with h strictly positive.  Every source is reversible, so Q is similar to
the symmetric S = D^1/2 Q D^-1/2, D = diag(pi), and gamma is the positive
root of the convex top eigenvalue lambda_max(S + theta*diag(u)) (Elwalid &
Mitra, IEEE/ACM ToN 1993).  Newton's method finds it with one symmetric
eigensolve per step.  h, equal to D^-1/2 g for the top eigenvector g, is
solved from (Q + gamma*diag(u)) h = 0 directly, which keeps the entries
that g, far below its largest entry, loses to rounding.  No step divides by
a drift, so a state whose rate equals C is solved as it stands, without
perturbing the capacity.  The effective bandwidth is the top eigenvalue of
the same symmetric matrix with u replaced by r.

The two-flow bound couples two such solutions through a double infimum over
the capacity split C1 + C2 = C and a common decay gamma <= min(gamma_1,
gamma_2); eigenvector entries enter with exponents gamma/gamma_k (the power
that turns each exponential supermartingale into one with common decay).
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


def generalized_decay(src: MarkovFluidSource, allocated_capacity: float) -> GeneralizedDecay:
    """Decay rate gamma and eigenvector h with Q h = -gamma diag(r - C) h.

    ``f(theta) = lambda_max(S + theta*diag(u))`` is convex with ``f(0) = 0``
    and ``f'(0) = mean - C < 0``, and ``f(theta) >= q_jj + theta*u_j``.  So
    Newton steps ``f/f'``, ``f' = g' diag(u) g`` at the unit top eigenvector
    g, descend monotonically to gamma from ``min over u_j > 0 of
    -q_jj/u_j``.  h is pinned to 1 where g peaks; the other equations form a
    proper principal submatrix of an irreducible Metzler matrix with Perron
    root 0, which is nonsingular.  h is then scaled to minimum 1.

    Requires stability (mean rate < capacity) and a non-degenerate source.
    Raises ``EigenvectorError`` when h is not positive or misses the
    residual tolerance.
    """
    if src.n_states < 2:
        raise DegenerateSourceError(
            "constant-rate (single-state) source has no eigenstructure"
        )
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
    q = src.generator
    u = src.rates - c
    s, du = _symmetrized(q), np.diag(u)
    theta = float((-np.diag(q)[u > 0] / u[u > 0]).min())
    for _ in range(_NEWTON_STEPS):
        vals, vecs = np.linalg.eigh(s + theta * du)
        g = vecs[:, -1]
        step = float(vals[-1] / (g @ (u * g)))
        if not step > _NEWTON_TOL * theta:
            break
        theta -= step
    else:
        raise EigenvectorError(f"decay-rate Newton iteration did not converge (theta={theta:.6g})")
    a = q + theta * du
    k = int(np.argmax(np.abs(g)))
    rest = np.arange(len(u)) != k
    h = np.ones(len(u))
    h[rest] = np.linalg.solve(-a[np.ix_(rest, rest)], a[rest, k])
    if not h.min() > 0:
        raise EigenvectorError(f"eigenvector has a non-positive entry {h.min():.3g}")
    h /= h.min()
    residual = float(np.abs(a @ h).max() / h.max())
    if not residual <= _RESIDUAL_TOL:
        raise EigenvectorError(f"eigenvector residual {residual:.3g} of its largest entry")
    return GeneralizedDecay(theta, h, u)


def fluid_effective_bandwidth(theta: float, src: MarkovFluidSource) -> float:
    """alpha_theta = zeta_theta/theta, zeta the largest eigenvalue of Q + theta*diag(r)."""
    if not theta > 0:
        raise InvalidParamsError(f"theta must be > 0, got {theta}")
    m = _symmetrized(src.generator) + np.diag(theta * src.rates)
    return float(np.linalg.eigvalsh(m)[-1]) / theta


def single_flow_fluid_bound(src: MarkovFluidSource, capacity: float, sigma: float) -> float:
    """Steady-state bound P(Q > sigma) <= prefactor * exp(-gamma*sigma)."""
    gd = generalized_decay(src, capacity)
    return _prefactor(gd, src.stationary, gd.gamma) * math.exp(-gd.gamma * sigma)


def _prefactor(gd: GeneralizedDecay, pi: np.ndarray, gamma: float) -> float:
    """Single-source prefactor pi.e / min e at decay ``gamma``, e = h**(gamma/gamma_1).

    The min runs over the drift-nonnegative states, the states reachable when
    the queue crosses a level.
    """
    e = gd.eigenvector ** (gamma / gd.gamma)
    return float(pi @ e) / float(e[gd.drifts >= 0].min())


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


def _k_factor(gd1: GeneralizedDecay, gd2: GeneralizedDecay,
              pi1: np.ndarray, pi2: np.ndarray, gamma: float) -> float:
    e1 = gd1.eigenvector ** (gamma / gd1.gamma)
    e2 = gd2.eigenvector ** (gamma / gd2.gamma)
    num = float(pi1 @ e1) * float(pi2 @ e2)
    feasible = gd1.drifts[:, None] + gd2.drifts[None, :] >= 0
    den = float((e1[:, None] * e2[None, :])[feasible].min())
    return num / den


def general_sample_path_bound(src1: MarkovFluidSource,
                              src2: Optional[MarkovFluidSource],
                              capacity: float, u: float, sigma: float,
                              grid: GridConfig = GridConfig()) -> GeneralBoundResult:
    """Double infimum over capacity splits and the common decay rate.

    ``src2=None`` (or an all-silent source) removes the cross flow: the split
    degenerates to C1 = C and the bound reduces to the single-flow machinery
    with the remaining infimum over gamma in [0, gamma_1].
    """
    if u < 0:
        raise InvalidParamsError(f"u must be >= 0, got {u}")
    if src2 is not None and not src2.rates.any():
        src2 = None

    best = GeneralBoundResult(math.inf, math.nan, math.nan)

    def consider(gd1: GeneralizedDecay, gd2: Optional[GeneralizedDecay],
                 pi1, pi2, c1: float):
        nonlocal best
        gmax = gd1.gamma if gd2 is None else min(gd1.gamma, gd2.gamma)
        if grid.gamma_values is not None:
            gammas = np.asarray(grid.gamma_values, dtype=float)
            # keep points equal to gmax up to rounding of the eigen solve
            gammas = gammas[(gammas >= 0) & (gammas <= gmax * (1 + 1e-9))]
            gammas = np.minimum(gammas, gmax)
        else:
            gammas = np.linspace(0.0, gmax, grid.gamma_points)
        for g in gammas:
            if gd2 is None:
                k = _prefactor(gd1, pi1, g)
            else:
                k = _k_factor(gd1, gd2, pi1, pi2, g)
            val = k * math.exp(-g * (c1 * u + sigma))
            if val < best.value:
                best = GeneralBoundResult(val, float(g), c1)

    if src2 is None:
        gd1 = generalized_decay(src1, capacity)
        consider(gd1, None, src1.stationary, None, capacity)
        return best

    m1, m2 = src1.mean_rate, src2.mean_rate
    width = capacity - m1 - m2
    if width <= 0:
        raise NoFeasibleSplitError(
            f"total mean rate {m1 + m2:.6g} >= capacity {capacity:.6g}"
        )
    if grid.c1_values is not None:
        c1_list = np.asarray(grid.c1_values, dtype=float)
    else:
        steps = np.arange(1, grid.c1_points + 1) / (grid.c1_points + 1)
        c1_list = m1 + width * steps
    usable = 0
    for c1 in c1_list:
        try:
            gd1 = generalized_decay(src1, float(c1))
            gd2 = generalized_decay(src2, float(capacity - c1))
        except (TrivialScenarioError, UnstableScenarioError):
            continue
        usable += 1
        consider(gd1, gd2, src1.stationary, src2.stationary, float(c1))
    if not usable:
        raise NoFeasibleSplitError("no capacity split admits both eigenproblems")
    return best


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

    sf = _prefactor(gd, src.stationary, gd.gamma)
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

"""The original scalar two-flow bound, kept as a test oracle.

A verbatim copy of the per-point double loop of ``general.py`` as it was
before the bound was evaluated as one (split, gamma) table: one scalar
Newton solve per capacity split and one ``_k_factor`` call per (split,
gamma) pair.  The tests assert that the table gives the same ``gamma`` and
``c1`` and a value equal to rounding.  Do not edit it to follow the library.
Sources store only their off-diagonals, so ``dense_generator`` builds the
matrix the algorithm reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from sncbounds.errors import (
    DegenerateSourceError,
    EigenvectorError,
    InvalidParamsError,
    NoFeasibleSplitError,
    TrivialScenarioError,
    UnstableScenarioError,
)

_RESIDUAL_TOL = 1e-10
_NEWTON_TOL = 1e-14
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class ScalarDecay:
    gamma: float
    eigenvector: np.ndarray
    drifts: np.ndarray


@dataclass(frozen=True)
class ScalarBound:
    value: float
    gamma: float
    c1: float


def dense_generator(src):
    """Q of a birth-death source, with the diagonal that makes its rows sum to 0."""
    k = src.n_states
    q = np.zeros((k, k))
    q[np.arange(k - 1), np.arange(1, k)] = src.up
    q[np.arange(1, k), np.arange(k - 1)] = src.down
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def _symmetrized(q):
    s = np.sqrt(q * q.T)
    np.fill_diagonal(s, np.diag(q))
    return s


def scalar_decay(src, allocated_capacity):
    """One Newton solve with one ``eigh`` per step, then h pinned where g peaks."""
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
    q = dense_generator(src)
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
    return ScalarDecay(theta, h, u)


def _prefactor(gd, pi, gamma):
    e = gd.eigenvector ** (gamma / gd.gamma)
    return float(pi @ e) / float(e[gd.drifts >= 0].min())


def _k_factor(gd1, gd2, pi1, pi2, gamma):
    e1 = gd1.eigenvector ** (gamma / gd1.gamma)
    e2 = gd2.eigenvector ** (gamma / gd2.gamma)
    num = float(pi1 @ e1) * float(pi2 @ e2)
    feasible = gd1.drifts[:, None] + gd2.drifts[None, :] >= 0
    den = float((e1[:, None] * e2[None, :])[feasible].min())
    return num / den


def scalar_bound(src1, src2, capacity, u, sigma, c1_points=64, gamma_points=64,
                 c1_values=None, gamma_values=None):
    """The double infimum, c1 outer and gamma inner; the first minimum wins."""
    if u < 0:
        raise InvalidParamsError(f"u must be >= 0, got {u}")
    if src2 is not None and not src2.rates.any():
        src2 = None

    best = ScalarBound(math.inf, math.nan, math.nan)

    def consider(gd1, gd2, pi1, pi2, c1):
        nonlocal best
        gmax = gd1.gamma if gd2 is None else min(gd1.gamma, gd2.gamma)
        if gamma_values is not None:
            gammas = np.asarray(gamma_values, dtype=float)
            gammas = gammas[(gammas >= 0) & (gammas <= gmax * (1 + 1e-9))]
            gammas = np.minimum(gammas, gmax)
        else:
            gammas = np.linspace(0.0, gmax, gamma_points)
        for g in gammas:
            if gd2 is None:
                k = _prefactor(gd1, pi1, g)
            else:
                k = _k_factor(gd1, gd2, pi1, pi2, g)
            val = k * math.exp(-g * (c1 * u + sigma))
            if val < best.value:
                best = ScalarBound(val, float(g), c1)

    if src2 is None:
        gd1 = scalar_decay(src1, capacity)
        consider(gd1, None, src1.stationary, None, capacity)
        return best

    m1, m2 = src1.mean_rate, src2.mean_rate
    width = capacity - m1 - m2
    if width <= 0:
        raise NoFeasibleSplitError(
            f"total mean rate {m1 + m2:.6g} >= capacity {capacity:.6g}"
        )
    if c1_values is not None:
        c1_list = np.asarray(c1_values, dtype=float)
    else:
        steps = np.arange(1, c1_points + 1) / (c1_points + 1)
        c1_list = m1 + width * steps
    usable = 0
    for c1 in c1_list:
        try:
            gd1 = scalar_decay(src1, float(c1))
            gd2 = scalar_decay(src2, float(capacity - c1))
        except (TrivialScenarioError, UnstableScenarioError):
            continue
        usable += 1
        consider(gd1, gd2, src1.stationary, src2.stationary, float(c1))
    if not usable:
        raise NoFeasibleSplitError("no capacity split admits both eigenproblems")
    return best

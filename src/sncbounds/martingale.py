"""Sharp per-flow delay bounds from the exponential-martingale sample-path bound.

Every reduced system has the constants

    K     = rho*((rho-p)/(1-p))**(p/rho - 1)
    gamma = (lam+mu)*(1-rho)/(P-c)
    theta = log((mu/lam)*(P-c)/c)        (< 0 under stability)

where c is the system's per-flow capacity and rho = p*P/c its utilization.
``_constants`` takes the source and the system's (rho, c).  EDF's rescaled
system passes (n1/n)*rho, which can differ from p*P/c in the last bit.
None of the three depends on the delay, so each system's constants are
built once: ``_constants`` is a bounded cache (256 systems, as the
standard bound's pre-scan axis ``standard._axis``) keyed by
(params, rho, c), and the scenario's own system, the GPS-reduced one and
EDF's rescaled one each share one frozen ``MartingaleConstants`` across
every delay and both bound families.

One term table serves both bound families.  ``_bound_terms`` gives each
scheduler's terms: a reduced system, its prefactor powers, its per-flow
capacity c and the coefficients of a service exponent theta*(a + b*r) in the
twist theta and the effective bandwidth r.  The martingale bound evaluates
each exponent at theta = gamma, where r_gamma = c, and sums
K**flows * exp(exponent) over the terms; ``standard`` takes the infimum
over theta in (0, gamma) instead.
Values are returned raw (they may exceed 1); clamping for display happens in
the reporting layer only, so algebraic identities between bounds survive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    GpsInfeasibleError,
    InvalidParamsError,
    TrivialScenarioError,
    UnstableScenarioError,
)
from .traffic import MmooParams, Scenario

__all__ = [
    "MartingaleConstants",
    "SchedulerSpec",
    "DelayBound",
    "martingale_constants",
    "martingale_delay_bound",
    "gps_constants",
]


@dataclass(frozen=True)
class MartingaleConstants:
    """Prefactor base K in (0,1), decay rate gamma > 0, twist exponent theta < 0."""

    K: float
    gamma: float
    theta: float


@dataclass(frozen=True)
class SchedulerSpec:
    """Scheduling discipline of the shared server.

    EDF carries the relative deadlines of the through (d1_star) and cross
    (d2_star) classes; GPS carries the through-class weight phi1, and the
    cross class has weight 1 - phi1.  SP always gives the cross flow strict
    priority.
    """

    kind: str
    d1_star: float = 0.0
    d2_star: float = 0.0
    phi1: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fifo", "sp", "edf", "gps"):
            raise InvalidParamsError(f"unknown scheduler kind {self.kind!r}")
        if self.kind == "edf" and not (0 <= self.d1_star < math.inf
                                       and 0 <= self.d2_star < math.inf):
            raise InvalidParamsError(
                f"EDF deadlines must be finite and >= 0, got {self.d1_star}, {self.d2_star}")
        if self.kind == "gps" and not 0 < self.phi1 < 1:
            raise InvalidParamsError("GPS weight phi1 must lie in (0,1)")

    @classmethod
    def fifo(cls) -> "SchedulerSpec":
        return cls("fifo")

    @classmethod
    def sp(cls) -> "SchedulerSpec":
        return cls("sp")

    @classmethod
    def edf(cls, d1_star: float, d2_star: float) -> "SchedulerSpec":
        return cls("edf", d1_star=d1_star, d2_star=d2_star)

    @classmethod
    def gps(cls, phi1: float) -> "SchedulerSpec":
        return cls("gps", phi1=phi1)


@dataclass(frozen=True)
class DelayBound:
    """One bound evaluation: the raw value, which may exceed 1."""

    value: float


@functools.lru_cache(maxsize=256)
def _constants(params: MmooParams, rho: float, c: float) -> MartingaleConstants:
    """K, gamma, theta of a reduced system: per-flow capacity c at utilization rho.

    Cached per system, like ``standard._axis``: every delay, both bound
    families and the experiments share one frozen result.  A raised error
    is not cached, so a repeated call raises it again.
    """
    lam, mu, peak, p = params.lam, params.mu, params.peak, params.on_probability
    if rho >= 1.0:
        raise UnstableScenarioError(f"rho={rho:.6g} >= 1")
    if peak <= c:
        raise TrivialScenarioError(f"peak {peak} <= capacity share {c}: zero delay")
    k = rho * ((rho - p) / (1.0 - p)) ** (p / rho - 1.0)
    gamma = (lam + mu) * (1.0 - rho) / (peak - c)
    theta = math.log((mu / lam) * (peak - c) / c)
    return MartingaleConstants(K=k, gamma=gamma, theta=theta)


def martingale_constants(scenario: Scenario) -> MartingaleConstants:
    """K, gamma, theta for the scenario's per-flow capacity."""
    return _constants(scenario.params, scenario.rho, scenario.per_flow_capacity)


def gps_constants(scenario: Scenario, phi1: float) -> MartingaleConstants:
    """Constants of the GPS-reduced system: through flows on capacity phi1*C.

    The effective per-flow capacity is phi1*C/n1 and the utilization becomes
    n1*p*P/(phi1*C), which must stay below 1.
    """
    params = scenario.params
    c_gps = phi1 * scenario.capacity / scenario.n1
    rho_gps = params.mean_rate / c_gps
    if rho_gps >= 1.0:
        raise GpsInfeasibleError(
            f"GPS utilization n1*p*P/(phi1*C) = {rho_gps:.6g} >= 1"
        )
    return _constants(params, rho_gps, c_gps)


class _Term(NamedTuple):
    """One term of a bound: a reduced system and its service exponent theta*(a + b*r).

    ``consts`` are the constants of the reduced system with per-flow
    capacity c, so r_gamma = c at theta = consts.gamma.  The martingale term
    is K**flows * exp(gamma*(a + b*c)); the standard term is the infimum
    over theta in (0, gamma) of L * exp(theta*(a + b*r_theta)), with
    L = c*e/(c - r_theta), or c/(c - r_theta) without ``euler``.
    """

    consts: MartingaleConstants
    flows: int
    c: float
    euler: bool
    a: float
    b: float


_GAPS = {"fifo": 0.0, "sp": math.inf, "gps": 0.0}  # deadline gap y of the non-EDF kinds


def _bound_terms(scenario: Scenario, sched: SchedulerSpec, d: float) -> tuple:
    """The terms of the bound P(W1 > d) <= value under ``sched``.

    One rule for every scheduler, on a reduced system with server rate R,
    exponents theta*(a + b*r) and the EDF deadline gap y = d1* - d2*:

    y >= 0 (ties included):  a = -R d,  b = n2 min(y, d)
    y <  0:  a = C (y - d),  b = -n1 y, plus a = -C d,  b = 0 on the
           rescaled per-flow capacity c' = (n/n1) c at utilization (n1/n) rho,
           where the n1 through flows alone fill the whole server.  That
           second term is left out when P <= c': the through aggregate
           alone cannot backlog the server.

    FIFO is y = 0 and SP is y = +inf (b = n2 d: the cross flow has strict
    priority); both ignore the deadlines they carry.  GPS is y = 0 on the
    GPS-reduced system: the n1 through flows alone on rate R = phi1 C,
    prefactor powers K^n1, per-flow capacity c = phi1 C/n1, no factor e.
    Every other system is the scenario's own: R = C, prefactor powers K^n.

    Rejects a d that is not finite and >= 0, and a d or an EDF deadline gap
    so large that a coefficient a or b overflows (C d near the largest
    double), where an exponent would read -inf + inf.
    """
    if not 0 <= d < math.inf:
        raise InvalidParamsError(f"d must be finite and >= 0, got {d}")
    cap, n1 = scenario.capacity, scenario.n1
    if sched.kind == "gps":
        rate = sched.phi1 * cap
        consts, flows, c, euler = gps_constants(scenario, sched.phi1), n1, rate / n1, False
    else:
        rate, flows, c, euler = cap, scenario.n, scenario.per_flow_capacity, True
        consts = martingale_constants(scenario)
    y = _GAPS.get(sched.kind, sched.d1_star - sched.d2_star)
    if y >= 0:  # b = n2 min(y, d), without a builtin call on every bound evaluation
        terms = (_Term(consts, flows, c, euler, -rate * d, scenario.n2 * (d if d < y else y)),)
    else:
        terms = (_Term(consts, flows, c, euler, cap * (y - d), -n1 * y),)
        c_resc = scenario.n / n1 * c
        if scenario.params.peak > c_resc:
            resc = _constants(scenario.params, n1 / scenario.n * scenario.rho, c_resc)
            terms += (_Term(resc, scenario.n, c_resc, True, -cap * d, 0.0),)
    for t in terms:
        if not (math.isfinite(t.a) and math.isfinite(t.b)):
            raise InvalidParamsError(
                f"the bound's exponent overflows at d={d:g} on server rate "
                f"{cap:.6g}: delays and deadlines this large are out of range")
    return terms


def martingale_delay_bound(scenario: Scenario, sched: SchedulerSpec, d: float) -> DelayBound:
    """Delay-violation bound P(W1 > d) <= value for the through aggregate.

    The sum of K**flows * exp(gamma*(a + b*c)) over the scheduler's terms
    (``_bound_terms``); FIFO's, for one, is K^n e^{-gamma C d}.
    Each exponent is one sum inside ``exp``, so no factor overflows on its own.
    """
    value = 0.0
    for t in _bound_terms(scenario, sched, d):
        value += t.consts.K ** t.flows * math.exp(t.consts.gamma * (t.a + t.b * t.c))
    return DelayBound(value)


"""Sharp per-flow delay bounds from the exponential-martingale sample-path bound.

All bounds share the constants

    K     = rho*((rho-p)/(1-p))**(p/rho - 1)
    gamma = (lam+mu)*(1-rho)/(P-c)
    theta = log((mu/lam)*(P-c)/c)        (< 0 under stability)

and have the form  K**n * exp(-gamma*(C1*u + sigma))  with (u, sigma) tuned
per scheduler.  Values are returned raw (they may exceed 1); clamping for
display happens in the reporting layer only, so algebraic identities between
bounds survive for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    GpsInfeasibleError,
    InvalidParamsError,
    TrivialScenarioError,
    UnstableScenarioError,
)
from .traffic import Scenario

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
    (d2_star) classes; GPS carries the through-class weight phi1, with
    phi2 = 1 - phi1.  SP always gives the cross flow strict priority.
    """

    kind: str
    d1_star: float = 0.0
    d2_star: float = 0.0
    phi1: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fifo", "sp", "edf", "gps"):
            raise InvalidParamsError(f"unknown scheduler kind {self.kind!r}")
        if self.kind == "edf" and (self.d1_star < 0 or self.d2_star < 0):
            raise InvalidParamsError("EDF deadlines must be >= 0")
        if self.kind == "gps" and not 0 < self.phi1 < 1:
            raise InvalidParamsError("GPS weight phi1 must lie in (0,1)")

    @property
    def phi2(self) -> float:
        return 1.0 - self.phi1

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
    """One bound evaluation.

    ``value`` is authoritative.  For single-term bounds
    ``value == prefactor * exp(-decay_rate * d)`` exactly; the two-term EDF
    bound exposes its terms in ``terms`` as (prefactor, decay_rate) pairs and
    reports the asymptotically dominant term's prefactor/decay.
    """

    value: float
    decay_rate: float
    prefactor: float
    terms: tuple = ()


def _constants(p: float, rho: float, lam: float, mu: float, peak: float,
               c: float) -> MartingaleConstants:
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
    p = scenario.params.on_probability
    return _constants(p, scenario.rho, scenario.params.lam, scenario.params.mu,
                      scenario.params.peak, scenario.per_flow_capacity)


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
    return _constants(params.on_probability, rho_gps, params.lam, params.mu,
                      params.peak, c_gps)


def _edf_rescaled(scenario: Scenario) -> tuple[float, MartingaleConstants] | None:
    """Rescaled per-flow capacity c' = (n/n1) c and its constants (EDF, d1* < d2*).

    The second term of the EDF bound lets the n1 through flows alone fill
    the whole server, at utilization rho' = (n1/n) rho.  None when P <= c':
    the through aggregate alone cannot backlog the full server.
    """
    params = scenario.params
    c_resc = scenario.n / scenario.n1 * scenario.per_flow_capacity
    if params.peak <= c_resc:
        return None
    rho_resc = scenario.n1 / scenario.n * scenario.rho
    return c_resc, _constants(params.on_probability, rho_resc, params.lam, params.mu,
                              params.peak, c_resc)


def martingale_delay_bound(scenario: Scenario, sched: SchedulerSpec, d: float) -> DelayBound:
    """Delay-violation bound P(W1 > d) <= value for the through aggregate.

    FIFO:  K^n e^{-gamma C d}
    SP:    K^n e^{-gamma C1 d}            (cross flow has strict priority)
    EDF:   d1* >= d2* (ties included):  K^n e^{gamma C2 min(d1*-d2*, d)} e^{-gamma C d};
           d1* <  d2*:  adds K'^n e^{-gamma' C d} with constants from the
           rescaled per-flow capacity c' = (n/n1) c.
    GPS:   K^{n1} e^{-gamma phi1 C d} with GPS-reduced constants: the reduced
           system holds only the n1 through flows, on a server of rate phi1 C.
    """
    if not 0 <= d < math.inf:
        raise InvalidParamsError(f"d must be finite and >= 0, got {d}")
    n = scenario.n
    cap = scenario.capacity

    if sched.kind == "gps":
        consts = gps_constants(scenario, sched.phi1)
        prefactor = consts.K ** scenario.n1
        decay = consts.gamma * sched.phi1 * cap
        return DelayBound(prefactor * math.exp(-decay * d), decay, prefactor)

    consts = martingale_constants(scenario)
    kn = consts.K ** n

    if sched.kind == "fifo":
        decay = consts.gamma * cap
        return DelayBound(kn * math.exp(-decay * d), decay, kn)

    if sched.kind == "sp":
        decay = consts.gamma * scenario.through_capacity
        return DelayBound(kn * math.exp(-decay * d), decay, kn)

    # EDF
    y = sched.d1_star - sched.d2_star
    decay = consts.gamma * cap
    if y >= 0:
        prefactor = kn * math.exp(consts.gamma * scenario.cross_capacity * min(y, d))
        return DelayBound(prefactor * math.exp(-decay * d), decay, prefactor)
    term1_pref = kn * math.exp(consts.gamma * scenario.cross_capacity * y)
    term1 = term1_pref * math.exp(-decay * d)
    rescaled = _edf_rescaled(scenario)
    if rescaled is None:
        term2_pref, decay2, term2 = 0.0, math.inf, 0.0
    else:
        _, resc = rescaled
        term2_pref = resc.K ** n
        decay2 = resc.gamma * cap
        term2 = term2_pref * math.exp(-decay2 * d)
    return DelayBound(term1 + term2, decay, term1_pref,
                      terms=((term1_pref, decay), (term2_pref, decay2)))

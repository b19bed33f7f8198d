"""Experiment harness: bound-vs-simulation comparison, scaling, admission.

Bounds on the virtual delay are converted to packet-delay bounds of the
through flow by the Palm prefactor 1/(1 - (1-p)^n1), which conditions on a
through arrival at the observation instant.  Raw (unclamped) values are kept
everywhere; min(1, .) clamping for display happens here and only here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GpsInfeasibleError, InvalidParamsError, TrivialScenarioError
from .martingale import (
    SchedulerSpec,
    _bound_terms,
    martingale_constants,
    martingale_delay_bound,
)
from .standard import standard_delay_bound
from .traffic import MmooParams, Scenario
from .sim import SimConfig, check_delay_grid, replicate

__all__ = [
    "ExperimentSpec",
    "AdmissionQuery",
    "palm_prefactor",
    "bound_rows",
    "compare_experiment",
    "scaling_experiment",
    "admission_max_flows",
    "verify",
    "VERIFY_SUITES",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One bound-vs-simulation comparison run."""

    scenario: Scenario
    scheduler: SchedulerSpec
    sim: SimConfig


def palm_prefactor(scenario: Scenario) -> float:
    """Packet-delay correction 1/(1-(1-p)^n1).

    Conditioning on an arrival of the through flow: at least one of its n1
    sub-flows is On, which happens with probability 1-(1-p)^n1.  That is
    computed as -expm1(n1*log1p(-p)), which stays positive however small p
    is; 1 - (1-p)**n1 rounds to 0 once p is below half an ulp of 1.
    """
    p = scenario.params.on_probability
    return -1.0 / math.expm1(scenario.n1 * math.log1p(-p))


def bound_rows(scenario: Scenario, sched: SchedulerSpec, grid) -> list[dict]:
    """Palm-corrected martingale and standard bounds, one row per d."""
    check_delay_grid(grid)
    palm = palm_prefactor(scenario)
    rows = []
    for d in grid:
        mart = palm * martingale_delay_bound(scenario, sched, d).value
        std = standard_delay_bound(scenario, sched, d)
        std_raw = palm * std.value
        rows.append({
            "scheduler": sched.kind, "n1": scenario.n1, "n2": scenario.n2,
            "rho": scenario.rho, "d": d,
            "martingale_raw": mart, "martingale_disp": min(1.0, mart),
            "standard_raw": std_raw, "standard_disp": min(1.0, std_raw),
            "theta_star": std.theta_star,
        })
    return rows


def compare_experiment(spec: ExperimentSpec, n_jobs: Optional[int] = None) -> list[dict]:
    """Bound rows next to simulated CCDF box stats, one row per d."""
    box = replicate(spec.scenario, spec.scheduler, spec.sim, n_jobs=n_jobs)
    rows = bound_rows(spec.scenario, spec.scheduler, box.delay_grid)
    for j, row in enumerate(rows):
        row.update(sim_median=float(box.median[j]), sim_q25=float(box.q25[j]),
                   sim_q75=float(box.q75[j]), sim_n=box.replications)
    return rows


def scaling_experiment(scenario: Scenario, n_list, d: float,
                       sched: SchedulerSpec) -> dict:
    """Bounds as the flow count scales with per-flow capacity and rho fixed.

    Splits each n evenly (n1 = n2 = n/2).  Reports the numerically fitted
    slope of log(standard/martingale) against n and the closed-form
    many-sources gap constant alpha = -log K, which the fit approaches from
    above as n grows (the standard prefactor contributes a log n term).
    """
    n_list = [int(n) for n in n_list]
    if not n_list or any(n < 2 or n % 2 for n in n_list):
        raise InvalidParamsError("flow counts must be even and >= 2")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParamsError("flow counts must be strictly increasing")
    rows = []
    for n in n_list:
        sc = Scenario(n // 2, n // 2, scenario.per_flow_capacity, scenario.params)
        mart = martingale_delay_bound(sc, sched, d).value
        std = standard_delay_bound(sc, sched, d).value
        rows.append({"n": n, "martingale": mart, "standard": std,
                     "ratio": std / mart})
    log_ratio = np.log([r["ratio"] for r in rows])
    alpha_fit = float(np.polyfit(n_list, log_ratio, 1)[0]) if len(n_list) > 1 else math.nan
    # K of the rows' first-term reduced system; every row splits n evenly, so
    # the GPS-reduced one (phi1*C shared by n/2 flows) is the same for each n
    k = _bound_terms(sc, sched, d)[0].consts.K
    return {"rows": rows, "alpha_fit": alpha_fit, "alpha_closed": -math.log(k)}


_MAX_FLOWS = 2**53  # every integer up to it is a float, so steps of 2 stay exact


@dataclass(frozen=True)
class AdmissionQuery:
    """Largest admissible flow count under a delay/violation target.

    Flows are added in through/cross pairs (n1 = n2 = n/2).  The chosen
    bound, Palm-corrected and clamped at 1, must stay at or below epsilon.
    """

    capacity: float
    d: float
    epsilon: float
    scheduler: SchedulerSpec
    params: MmooParams
    method: str = "martingale"

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise InvalidParamsError("epsilon must lie in (0, 1]")
        if not (0 <= self.d < math.inf and 0 < self.capacity < math.inf):
            raise InvalidParamsError("need a finite d >= 0 and a finite capacity > 0")
        if self.capacity / self.params.mean_rate > _MAX_FLOWS:
            raise InvalidParamsError(
                f"capacity {self.capacity:.6g} admits more than 2**53 flows "
                f"of mean rate {self.params.mean_rate:.6g}"
            )
        if self.method not in ("martingale", "standard"):
            raise InvalidParamsError(f"method must be martingale|standard, got {self.method!r}")


def _violation(q: AdmissionQuery, n: int) -> float:
    """Palm-corrected, clamped violation bound for n flows on capacity C.

    A count whose (GPS-reduced) system can never backlog, its peak within
    its per-flow capacity, has zero delay: 0.0.  A count whose GPS-reduced
    system is unstable is not admissible: 1.0.
    """
    bound = martingale_delay_bound if q.method == "martingale" else standard_delay_bound
    try:
        sc = Scenario(n // 2, n // 2, q.capacity / n, q.params)
        raw = bound(sc, q.scheduler, q.d).value
    except TrivialScenarioError:
        return 0.0
    except GpsInfeasibleError:
        return 1.0
    return min(1.0, palm_prefactor(sc) * raw)


def _stability_cap(capacity: float, mean: float) -> int:
    """Largest even n >= 0 at which ``Scenario(n//2, n//2, C/n)`` is stable.

    Applies Scenario's own test, rho = mean/(C/n) < 1, which can only
    switch once as n grows: both divisions round monotonically.  Starts at
    2*floor(C/(2*mean)) and moves by 2 until the test holds for n and fails
    for n + 2.
    """
    n = 2 * math.floor(capacity / (2 * mean))
    while n > 0 and not mean / (capacity / n) < 1.0:
        n -= 2
    while mean / (capacity / (n + 2)) < 1.0:
        n += 2
    return n


def admission_max_flows(q: AdmissionQuery) -> dict:
    """Largest even n with rho < 1 and violation bound <= epsilon.

    Scans down from the stability cap (largest even n with rho < 1) and
    stops at the first admissible n, so flow counts below the answer are
    never evaluated.  Returns n_max = 0 when nothing is admissible; the
    stability cap is always reported.
    """
    mean = q.params.mean_rate
    cap_n = _stability_cap(q.capacity, mean)
    n_max = next((n for n in range(cap_n, 0, -2) if _violation(q, n) <= q.epsilon), 0)
    return {
        "n_max": n_max,
        "stability_cap": cap_n,
        "utilization": n_max * mean / q.capacity,
        "limited_by": "stability" if n_max == cap_n else
                      ("bound" if n_max > 0 else "none-admissible"),
    }


# ---------------------------------------------------------------------------
# named verification suites (driven by the CLI `verify` subcommand)


def _suite_theta_star() -> tuple[bool, str]:
    from .standard import effective_bandwidth_rate

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(0.05, 3.0)
        mu = rng.uniform(0.05, 3.0)
        peak = rng.uniform(0.5, 4.0)
        params = MmooParams(lam, mu, peak)
        p = params.on_probability
        rho = rng.uniform(p + 1e-3, 1 - 1e-3)
        c = params.mean_rate / rho
        gamma = martingale_constants(Scenario(1, 0, c, params)).gamma
        worst = max(worst, abs(effective_bandwidth_rate(gamma, params) - c) / c)
    return worst <= 1e-12, f"max |r_gamma - c|/c = {worst:.3g}"


def _suite_mmoo_consistency() -> tuple[bool, str]:
    from .general import mmoo_consistency_check

    params = MmooParams(0.5, 0.1, 1.0)
    worst_g = worst_k = 0.0
    for rho in (0.75, 0.9):
        for n in range(2, 11, 2):
            sc = Scenario.from_utilization(n // 2, n - n // 2, rho, params)
            rep = mmoo_consistency_check(sc)
            worst_g = max(worst_g, rep["gamma_abs_delta"] / rep["gamma_closed"])
            worst_k = max(worst_k, rep["prefactor_rel_error"])
    ok = worst_g <= 1e-8 and worst_k <= 1e-8
    return ok, f"gamma rel {worst_g:.3g}, prefactor rel {worst_k:.3g}"


def _suite_binomial() -> tuple[bool, str]:
    from .traffic import aggregate_source

    params = MmooParams(0.5, 0.1, 1.0)
    p = params.on_probability
    worst = 0.0
    for n in range(1, 13):
        pi = aggregate_source(n, params).stationary
        ref = np.array([math.comb(n, i) * p**i * (1 - p)**(n - i) for i in range(n + 1)])
        worst = max(worst, float(np.abs(pi - ref).max()))
    return worst <= 1e-10, f"max binomial deviation {worst:.3g}"


def _suite_reductions() -> tuple[bool, str]:
    params = MmooParams(0.5, 0.1, 1.0)
    worst = 0.0
    for rho in (0.6, 0.75, 0.9):
        for d in (0.0, 1.0, 5.0, 20.0):
            sc0 = Scenario.from_utilization(6, 0, rho, params)
            fifo = martingale_delay_bound(sc0, SchedulerSpec.fifo(), d).value
            sp = martingale_delay_bound(sc0, SchedulerSpec.sp(), d).value
            worst = max(worst, abs(fifo - sp))
            sc = Scenario.from_utilization(3, 3, rho, params)
            fifo = martingale_delay_bound(sc, SchedulerSpec.fifo(), d).value
            edf = martingale_delay_bound(sc, SchedulerSpec.edf(2.0, 2.0), d).value
            worst = max(worst, abs(fifo - edf))
            f_std = standard_delay_bound(sc0, SchedulerSpec.fifo(), d).value
            s_std = standard_delay_bound(sc0, SchedulerSpec.sp(), d).value
            worst = max(worst, abs(f_std - s_std))
    return worst <= 1e-12, f"max reduction mismatch {worst:.3g}"


def _suite_ordering() -> tuple[bool, str]:
    params = MmooParams(0.5, 0.1, 1.0)
    sc = Scenario.from_utilization(5, 5, 0.75, params)
    ok = True
    for d in np.linspace(0.0, 30.0, 61):
        fifo = martingale_delay_bound(sc, SchedulerSpec.fifo(), d).value
        edf = martingale_delay_bound(sc, SchedulerSpec.edf(4.0, 1.0), d).value
        sp = martingale_delay_bound(sc, SchedulerSpec.sp(), d).value
        std = standard_delay_bound(sc, SchedulerSpec.fifo(), d).value
        ok &= fifo <= edf * (1 + 1e-12) and edf <= sp * (1 + 1e-12) and std > fifo
    return ok, "FIFO <= EDF <= SP and standard > martingale on the grid"


def _suite_alpha_gamma() -> tuple[bool, str]:
    from .general import fluid_effective_bandwidth, generalized_decay
    from .traffic import MarkovFluidSource

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 7))
        up = rng.uniform(0.1, 2.0, m - 1)
        down = rng.uniform(0.1, 2.0, m - 1)
        rates = np.sort(rng.uniform(0.0, 5.0, m))
        src = MarkovFluidSource(up, down, rates)
        lo, hi = src.mean_rate, rates.max()
        c = lo + rng.uniform(0.15, 0.85) * (hi - lo)
        gd = generalized_decay(src, c)
        alpha = fluid_effective_bandwidth(gd.gamma, src)
        worst = max(worst, float(abs(alpha - c) / c))
    return worst <= 1e-12, f"max |alpha_gamma - C|/C = {worst:.3g}"


def _suite_martingale_mc() -> tuple[bool, str]:
    from .sim import martingale_mc_estimate

    sc = Scenario.from_utilization(5, 5, 0.75, MmooParams(0.5, 0.1, 1.0))
    fails = []
    for t in (1.0, 5.0, 20.0):
        est = martingale_mc_estimate(sc, t, 30_000, seed=(99, int(t)))
        if abs(est["mean"] - 1.0) > 3 * est["stderr"]:
            fails.append(f"t={t}: {est['mean']:.4f}+-{est['stderr']:.4f}")
    return not fails, "; ".join(fails) if fails else "E[M_t]=1 within 3 sigma"


def _suite_optimizer() -> tuple[bool, str]:
    """Each term's optimized minimum against a 10^4-point grid of its objective.

    The grid evaluates L * exp(theta*(a + b*r_theta)) directly, with
    L = c*e/(c - r_theta) (c/(c - r_theta) without ``euler``), over
    the term's inset interval (0, gamma); the excess is the optimized
    minimum over the grid's, minus 1.
    """
    from .standard import _minimize_theta, effective_bandwidth_rate

    params = MmooParams(0.5, 0.1, 1.0)
    scheds = (SchedulerSpec.fifo(), SchedulerSpec.sp(), SchedulerSpec.edf(10.0, 1.0),
              SchedulerSpec.edf(1.0, 10.0), SchedulerSpec.gps(0.3), SchedulerSpec.gps(0.5),
              SchedulerSpec.gps(0.7))
    worst, terms_checked = 0.0, 0
    for rho in (0.5, 0.75, 0.95):
        sc = Scenario.from_utilization(5, 5, rho, params)
        for sched in scheds:
            for d in (0.0, 2.0, 10.0):
                try:
                    terms = _bound_terms(sc, sched, d)
                except GpsInfeasibleError:
                    continue
                for t in terms:
                    _, log_min, _ = _minimize_theta(params, t)
                    gamma = t.consts.gamma
                    th = np.geomspace(1e-9 * gamma, gamma * (1 - 1e-9), 10_000)
                    r = effective_bandwidth_rate(th, params)
                    margin = t.c - r
                    lead = t.c * math.e if t.euler else t.c
                    grid_vals = np.where(margin > 0, lead / margin, np.inf) \
                        * np.exp(th * (t.a + t.b * r))
                    worst = max(worst, math.exp(log_min) / float(grid_vals.min()) - 1.0)
                    terms_checked += 1
    return worst <= 1e-9, (f"max excess over 10^4-point grid {worst:.3g} "
                           f"({terms_checked} terms, 7 schedulers)")


VERIFY_SUITES = {
    "theta-star-equals-gamma": _suite_theta_star,
    "mmoo-consistency": _suite_mmoo_consistency,
    "binomial-stationarity": _suite_binomial,
    "reductions": _suite_reductions,
    "bound-ordering": _suite_ordering,
    "alpha-gamma-lemma": _suite_alpha_gamma,
    "martingale-mc": _suite_martingale_mc,
    "optimizer-grid": _suite_optimizer,
}


def verify(suite: str) -> list[tuple[str, bool, str]]:
    """Run one named property suite, or all of them."""
    if suite == "all":
        names = list(VERIFY_SUITES)
    elif suite in VERIFY_SUITES:
        names = [suite]
    else:
        raise InvalidParamsError(
            f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)} or 'all'"
        )
    results = []
    for name in names:
        passed, detail = VERIFY_SUITES[name]()
        results.append((name, passed, detail))
    return results

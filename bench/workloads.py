"""The benchmark's three workloads, their inputs and their correctness checks.

Every workload uses the paper's source (lambda=0.5, mu=0.1, P=1) and calls
the public API serially in one process.  A workload is run in closed-loop
rounds: the next round starts when the previous one has finished.
``round(i, ledger, pause)`` calls ``pause(part, seconds)`` after each timed
part, where the runner re-times its speed reference.

- ``desk-fifo``: one ``compare_experiment`` per round, FIFO, n1=n2=5,
  rho=0.75, 1e4 warm-up + 1e5 measured through packets, d=1..10, one
  replication.  FIFO service is vectorized, so nearly all of the time is
  arrival generation.
- ``desk-loop``: the same scenario, one ``compare_experiment`` each for SP,
  EDF(10,1), EDF(1,10) and GPS(0.5) per round: the Python service loops.
- ``many-sources``: no simulation.  One round is the bound grid, the scaling
  and admission sweeps (``bounds_s``) and the eigen checks plus one two-flow
  fluid bound (``fluid_s``), at flow counts up to 1e5.  The grid is fixed;
  the seed only shuffles the evaluation order, so known numerical defects
  show as failed operations on every seed.

Checks are deterministic, never statistical.  An exception raised by the
program, a bound that is not finite and positive, or a missed eigen
tolerance makes the operation *failed* (``NumericFailure``).  A finite
result that breaks an invariant (sample count, CCDF shape, theta* range,
reproducibility) makes it failed *and incorrect* (``WrongResult``).
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

import sncbounds
from sncbounds import (
    AdmissionQuery,
    ExperimentSpec,
    MmooParams,
    Scenario,
    SchedulerSpec,
    SimConfig,
    aggregate_source,
    gps_constants,
    martingale_constants,
)

from spans import rebind, restore

PAPER_SOURCE = MmooParams(0.5, 0.1, 1.0)
RHO = 0.75
DESK_GRID = tuple(float(d) for d in range(1, 11))
DESK_WARMUP, DESK_MEASURED = 10_000, 100_000
# warm-up operations and the reproducibility check only need the code path,
# not the statistics, so they run at a small size
SMALL_WARMUP, SMALL_MEASURED = 200, 2_000

MANY_N = (10, 100, 1000, 10_000, 100_000)
MANY_D = (1.0, 2.0, 5.0, 10.0)
SCALING_N = (10, 100, 1000, 10_000)
SCALING_D = 5.0
ADMISSION_C = (1.67, 3.33, 8.33, 16.7, 33.3)
ADMISSION_D, ADMISSION_EPS = 5.0, 1e-3
EIGEN_N = (10, 20, 50, 100, 200, 1000)
EIGEN_TOL = 1e-8
FLUID_SOURCES, FLUID_SIGMA = 4, 5.0


def scheduler_specs() -> dict:
    return {
        "fifo": SchedulerSpec.fifo(),
        "sp": SchedulerSpec.sp(),
        "edf_10_1": SchedulerSpec.edf(10.0, 1.0),
        "edf_1_10": SchedulerSpec.edf(1.0, 10.0),
        "gps": SchedulerSpec.gps(0.5),
    }


def label(spec: SchedulerSpec) -> str:
    """Metric label of a scheduler: fifo, sp, edf_<d1>_<d2> or gps."""
    if spec.kind == "edf":
        return f"edf_{spec.d1_star:g}_{spec.d2_star:g}"
    return spec.kind


def theta_limit(scenario: Scenario, spec: SchedulerSpec) -> float:
    """Upper end gamma of the interval (0, gamma] that holds theta*."""
    if spec.kind == "gps":
        return gps_constants(scenario, spec.phi1).gamma
    return martingale_constants(scenario).gamma


def api(name: str, *args, **kwargs):
    """Call ``sncbounds.<name>`` looked up at call time, so traced wrappers apply."""
    return getattr(sncbounds, name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# checks


class NumericFailure(Exception):
    """No usable value: underflow to 0, overflow, or a missed tolerance."""


class WrongResult(Exception):
    """A finite result breaks an invariant of the program's output."""


def check_bound(value: float) -> None:
    # the true violation probability is positive, so 0.0 is not a valid bound
    if not (math.isfinite(value) and value > 0):
        raise NumericFailure(f"bound {value!r} is not finite and positive")


def check_theta(theta: float, gamma: float) -> None:
    if not 0 < theta <= gamma * (1 + 1e-9):
        raise WrongResult(f"theta* {theta!r} outside (0, gamma={gamma!r}]")


def check_standard(result, gamma: float) -> None:
    check_theta(result.theta_star, gamma)
    check_bound(result.value)


def check_ccdf(values) -> None:
    c = np.asarray(values, dtype=float)
    if not (np.isfinite(c).all() and (c >= 0).all() and (c <= 1).all()):
        raise WrongResult("CCDF outside [0, 1]")
    if (np.diff(c) > 0).any():
        raise WrongResult("CCDF increases with d")


def check_compare(rows: list, stats: list, measured: int, gamma: float) -> None:
    """One-replication ``compare_experiment`` rows plus its ``DelayStats``."""
    if len(stats) != 1:
        raise WrongResult(f"expected one replication, simulate ran {len(stats)} times")
    st = stats[0]
    if st.sample_count != measured:
        raise WrongResult(f"sample_count {st.sample_count} != measured {measured}")
    q = np.array([st.q25, st.q50, st.q75, st.q99])
    if not (np.isfinite(q).all() and q[0] >= 0 and (np.diff(q) >= 0).all()):
        raise WrongResult("delay quantiles not finite, non-negative and ordered")
    check_ccdf(st.ccdf)
    if tuple(r["d"] for r in rows) != DESK_GRID:
        raise WrongResult("rows do not follow the delay grid")
    for col in ("sim_q25", "sim_median", "sim_q75"):
        check_ccdf([r[col] for r in rows])
    for r in rows:
        if not r["sim_q25"] <= r["sim_median"] <= r["sim_q75"]:
            raise WrongResult("CCDF box stats out of order")
        check_theta(r["theta_star"], gamma)
    for r in rows:
        check_bound(r["martingale_raw"])
        check_bound(r["standard_raw"])


def check_scaling(res: dict) -> None:
    for r in res["rows"]:
        for key in ("martingale", "standard", "ratio"):
            check_bound(r[key])
    if not math.isfinite(res["alpha_fit"]):
        raise NumericFailure(f"alpha_fit {res['alpha_fit']!r}")


def check_admission(res: dict) -> None:
    n_max, cap = res["n_max"], res["stability_cap"]
    if n_max % 2 or not 0 <= n_max <= cap or not 0 <= res["utilization"] < 1:
        raise WrongResult(f"n_max {n_max} inconsistent with stability cap {cap}")


def check_eigen(rep: dict) -> None:
    errors = {
        "gamma": rep["gamma_abs_delta"] / rep["gamma_closed"],
        "prefactor": rep["prefactor_rel_error"],
        "single_flow": rep["single_flow_rel_error"],
        "theta_spread": rep["theta_spread"],
    }
    missed = [k for k, v in errors.items() if not v <= EIGEN_TOL]
    if missed:
        raise NumericFailure(f"{','.join(missed)} beyond {EIGEN_TOL:g}")


def check_fluid(res, c1_range: tuple) -> None:
    check_bound(res.value)
    lo, hi = c1_range
    if not (res.gamma >= 0 and lo < res.c1 < hi):
        raise WrongResult(f"gamma {res.gamma!r} or split c1 {res.c1!r} infeasible")


def check_same(pair) -> None:
    first, again = pair
    if not np.array_equal(first, again):
        raise WrongResult("replication k differs between two runs of (seed, k)")


class Ledger:
    """Attempted and failed operations, with each distinct failure counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: dict = {}

    def run(self, op: str, inp: str, call, check=None):
        """Time ``call()``, check its result; returns (seconds, result or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation, recorded by type
            seconds = time.perf_counter() - t0
            self._fail(op, inp, type(exc).__name__)
            return seconds, None
        seconds = time.perf_counter() - t0
        if check is not None:
            try:
                check(result)
            except (NumericFailure, WrongResult) as exc:
                self.incorrect += isinstance(exc, WrongResult)
                self._fail(op, inp, f"{type(exc).__name__}: {exc}")
                return seconds, None
        return seconds, result

    def _fail(self, op: str, inp: str, error: str) -> None:
        self.failed += 1
        key = (op, inp, error)
        self.failures[key] = self.failures.get(key, 0) + 1

    def failure_list(self) -> list:
        return [{"op": op, "input": inp, "error": err, "count": n}
                for (op, inp, err), n in sorted(self.failures.items())]


# ---------------------------------------------------------------------------
# workloads


class SimulateTap:
    """Keeps the ``DelayStats`` of each ``simulate`` call made inside ``with``."""

    def __init__(self):
        self.stats: list = []

    def __enter__(self):
        self.stats = []
        inner = sncbounds.sim.simulate

        def tapped(*args, **kwargs):
            st = inner(*args, **kwargs)
            self.stats.append(st)
            return st

        self._undo = rebind(inner, tapped)
        return self

    def __exit__(self, *exc):
        restore(self._undo)


class Desk:
    """Desk-scale ``compare_experiment`` for each of a set of schedulers."""

    def __init__(self, seed: int, schedulers, warmup: int = DESK_WARMUP,
                 measured: int = DESK_MEASURED):
        self.seed = seed
        self.scenario = Scenario.from_utilization(5, 5, RHO, PAPER_SOURCE)
        specs = scheduler_specs()
        self.specs = {s: specs[s] for s in schedulers}
        self.gamma = {s: theta_limit(self.scenario, sp) for s, sp in self.specs.items()}
        self.warmup, self.measured = warmup, measured

    def _config(self, warmup, measured, replications, master_seed) -> SimConfig:
        return SimConfig(measured_packets=measured, warmup_packets=warmup,
                         replications=replications, delay_grid=DESK_GRID,
                         master_seed=master_seed)

    def _compare(self, ledger: Ledger, s: str, cfg: SimConfig) -> float:
        spec = ExperimentSpec(self.scenario, self.specs[s], cfg)
        with SimulateTap() as tap:
            seconds, _ = ledger.run(
                "compare_experiment", f"{s} master_seed={cfg.master_seed}",
                partial(api, "compare_experiment", spec, n_jobs=None),
                lambda rows: check_compare(rows, tap.stats, cfg.measured_packets,
                                           self.gamma[s]))
        return seconds

    def warm_up(self) -> None:
        for s in self.specs:
            self._compare(Ledger(), s, self._config(SMALL_WARMUP, SMALL_MEASURED, 1, self.seed))

    def reproducibility(self, ledger: Ledger) -> None:
        """Replication k of (seed, k) inside ``replicate`` equals a rerun alone."""
        k = 1
        for s, spec in self.specs.items():
            cfg = self._config(SMALL_WARMUP, SMALL_MEASURED, k + 1, self.seed)

            def both(spec=spec, cfg=cfg):
                first = api("replicate", self.scenario, spec, cfg).per_replication[k]
                return first, api("simulate", self.scenario, spec, cfg, k).ccdf

            ledger.run("reproducibility", f"{s} seed={self.seed} k={k}", both, check_same)

    def round(self, i: int, ledger: Ledger, pause=lambda part, seconds: None) -> dict:
        """One compare per scheduler; replication streams drawn from the seed."""
        parts = {}
        for j, s in enumerate(self.specs):
            master = int(np.random.SeedSequence([self.seed, i, j]).generate_state(1)[0])
            cfg = self._config(self.warmup, self.measured, 1, master)
            part = f"compare_s.{s}"
            parts[part] = self._compare(ledger, s, cfg)
            pause(part, parts[part])
        return parts


class ManySources:
    """Bounds and eigen checks in the large-n regime; no simulation."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        specs = scheduler_specs()
        bounds = []
        for s, spec in specs.items():
            for n in MANY_N:
                sc = Scenario.from_utilization(n // 2, n // 2, RHO, PAPER_SOURCE)
                gamma = theta_limit(sc, spec)
                for d in MANY_D:
                    inp = f"{s} n={n} d={d:g}"
                    bounds.append(("martingale_delay_bound", inp, (sc, spec, d),
                                   lambda b: check_bound(b.value)))
                    bounds.append(("standard_delay_bound", inp, (sc, spec, d),
                                   partial(check_standard, gamma=gamma)))
        base = Scenario.from_utilization(5, 5, RHO, PAPER_SOURCE)
        for s, spec in specs.items():
            bounds.append(("scaling_experiment", f"{s} n={list(SCALING_N)} d={SCALING_D:g}",
                           (base, SCALING_N, SCALING_D, spec), check_scaling))
        for cap in ADMISSION_C:
            for method in ("martingale", "standard"):
                q = AdmissionQuery(cap, ADMISSION_D, ADMISSION_EPS, specs["fifo"],
                                   PAPER_SOURCE, method=method)
                bounds.append(("admission_max_flows", f"C={cap:g} {method}", (q,),
                               check_admission))
        fluid = []
        for n in EIGEN_N:
            sc = Scenario.from_utilization(n // 2, n - n // 2, RHO, PAPER_SOURCE)
            fluid.append(("mmoo_consistency_check", f"n={n}", (sc,), check_eigen))
        src = aggregate_source(FLUID_SOURCES, PAPER_SOURCE)
        mean = src.mean_rate
        cap = 2 * mean / RHO
        fluid.append(("general_sample_path_bound",
                      f"2x{FLUID_SOURCES} sources C={cap:.6g} sigma={FLUID_SIGMA:g}",
                      (src, src, cap, 0.0, FLUID_SIGMA),
                      partial(check_fluid, c1_range=(mean, cap - mean))))
        # each operation: (public function, input label, arguments, check)
        self.parts = {"bounds_s": bounds, "fluid_s": fluid}

    def warm_up(self) -> None:
        self.round(0, Ledger())

    def reproducibility(self, ledger: Ledger) -> None:
        """No random streams to reproduce: this workload simulates nothing."""

    def round(self, i: int, ledger: Ledger, pause=lambda part, seconds: None) -> dict:
        parts = {}
        for part, ops in self.parts.items():
            total = 0.0
            for j in self.rng.permutation(len(ops)):
                name, inp, args, check = ops[j]
                seconds, _ = ledger.run(name, inp, partial(api, name, *args), check)
                total += seconds
            parts[part] = total
            pause(part, total)
        return parts


WORKLOADS = {
    "desk-fifo": lambda seed: Desk(seed, ("fifo",)),
    "desk-loop": lambda seed: Desk(seed, ("sp", "edf_10_1", "edf_1_10", "gps")),
    "many-sources": ManySources,
}

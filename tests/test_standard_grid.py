"""Bit-exact regression oracle for the two bound families.

``tests/golden/standard-grid.json`` pins, as ``float.hex`` strings, every
field of ``standard_delay_bound`` and the value of
``martingale_delay_bound`` on a grid of schedulers, flow counts,
utilizations and delays.  An input the library rejects is pinned by the
name of the error it raises.  Every interval end of the optimizer is a
closed-form martingale gamma, so no root finder has bits of its own to
pin.  The grid holds n1 = n2 = n/2 and the paper's source.  After an
intended change of value, re-pin with ``python tests/test_standard_grid.py``.

The optimizer's pre-scan runs on NumPy arrays and its refinement on Python
floats, both in one coordinate of the effective-bandwidth axis,
w = log((r - p*P)/(c - r)).  The pre-scan's points must be the inverse of
``effective_bandwidth_rate`` up to rounding, its ends must sit at the
interval's insets and its values must agree with the float objective up to
the rounding of one sum; the refinement's analytic slope in w is checked
against central differences.  ``bound_rows`` over a delay grid
must give the fields of one call per delay bit for bit.  The pre-scan's
axis is cached per reduced system: no result may depend on what the cache
holds, a delay grid builds one axis per system, and the cached arrays are
read-only; a delay grid builds each system's martingale constants once as
well.  Off the paper's
source and n1 = n2, the optimizer is held to the golden-section one it
replaced (``tests/standard_reference.py``) on seeded random draws: the same
errors and edge flags, and no value higher by more than float noise, with
few slope evaluations per refinement.
"""

import itertools
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from sncbounds import (
    MmooParams,
    Scenario,
    SchedulerSpec,
    martingale,
    martingale_delay_bound,
    standard,
    standard_delay_bound,
)
from sncbounds.analysis import bound_rows, palm_prefactor
from sncbounds.errors import SncboundsError
from sncbounds.martingale import _bound_terms

import standard_reference

GOLDEN = Path(__file__).parent / "golden" / "standard-grid.json"
SOURCE = MmooParams(0.5, 0.1, 1.0)
OTHER_SOURCE = MmooParams(0.7, 0.3, 1.7)
SCHEDULERS = {
    "fifo": SchedulerSpec.fifo(),
    "sp": SchedulerSpec.sp(),
    "edf-10-1": SchedulerSpec.edf(10.0, 1.0),
    "edf-1-10": SchedulerSpec.edf(1.0, 10.0),
    "gps-0.5": SchedulerSpec.gps(0.5),
    "gps-0.3": SchedulerSpec.gps(0.3),
    "edf-0-5": SchedulerSpec.edf(0.0, 5.0),
}
FLOWS = (2, 10, 1000, 100_000)
RHOS = (0.5, 0.75, 0.999)
DELAYS = (0.0, 1.0, 5.0, 40.0)


def _hex(x):
    return float.hex(float(x))


def bound_record(sched: str, n: int, rho: float, d: float) -> dict:
    rec = {"sched": sched, "n": n, "rho": rho, "d": d}
    sc = Scenario.from_utilization(n // 2, n // 2, rho, SOURCE)
    try:
        res = standard_delay_bound(sc, SCHEDULERS[sched], d)
    except (SncboundsError, ArithmeticError) as exc:
        rec["error"] = type(exc).__name__
        return rec
    rec.update(value=_hex(res.value), theta_star=_hex(res.theta_star),
               at_edge=bool(res.at_edge))
    return rec


def martingale_record(sched: str, n: int, rho: float, d: float) -> dict:
    rec = {"sched": sched, "n": n, "rho": rho, "d": d}
    sc = Scenario.from_utilization(n // 2, n // 2, rho, SOURCE)
    try:
        rec["value"] = _hex(martingale_delay_bound(sc, SCHEDULERS[sched], d).value)
    except (SncboundsError, ArithmeticError) as exc:
        rec["error"] = type(exc).__name__
    return rec


RECORDS = {"standard_delay_bound": bound_record, "martingale_delay_bound": martingale_record}


def compute() -> dict:
    return {key: [record(s, n, rho, d) for s in SCHEDULERS
                  for n in FLOWS for rho in RHOS for d in DELAYS]
            for key, record in RECORDS.items()}


def render(data: dict) -> str:
    """One record per line, so a diff names the inputs that moved."""
    parts = []
    for key, records in data.items():
        body = ",\n".join("  " + json.dumps(r) for r in records)
        parts.append(f' "{key}": [\n{body}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def moved(golden, key, sched) -> list:
    """(computed, pinned) for each record of ``sched`` that differs."""
    expected = [r for r in golden[key] if r["sched"] == sched]
    assert len(expected) == len(FLOWS) * len(RHOS) * len(DELAYS)
    got = [RECORDS[key](sched, r["n"], r["rho"], r["d"]) for r in expected]
    return [(g, e) for g, e in zip(got, expected) if g != e]


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_standard_delay_bound_bits(golden, sched):
    assert moved(golden, "standard_delay_bound", sched) == []


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_martingale_delay_bound_bits(golden, sched):
    assert moved(golden, "martingale_delay_bound", sched) == []


def test_result_fields_are_python_scalars():
    for sched in SCHEDULERS.values():
        for rho in RHOS:
            sc = Scenario.from_utilization(5, 5, rho, SOURCE)
            try:
                res = standard_delay_bound(sc, sched, np.float64(5.0))
            except SncboundsError:
                continue
            assert type(res.value) is float
            assert type(res.theta_star) is float
            assert type(res.at_edge) is bool


def _terms(sched: str, delays, flows=(2, 1000), sources=(SOURCE, OTHER_SOURCE)):
    """(source, term) of every term of ``sched`` at each of ``delays``."""
    for n, rho, source, d in itertools.product(flows, RHOS, sources, delays):
        sc = Scenario.from_utilization(n // 2, n // 2, rho, source)
        try:
            terms = _bound_terms(sc, SCHEDULERS[sched], d)
        except SncboundsError:
            continue
        yield from ((source, term) for term in terms)


def _scan(params, term):
    """The term's pre-scan values, the objective at the scan's w and a bound on their difference.

    A scan value leaves out the objective's constant log(c), plus 1 with
    ``euler``; it is added back here.  Scan and objective form the same
    gaps, theta and exponent from w, so the two differ only in the order of
    the final sum and in the last bit of a NumPy against a ``math`` exp or
    log: 8 eps times 1 + |log(c)| + |log(c - r)| + |theta*(a + b*r)|, the
    returned bound, covers both.
    """
    axis = standard._axis(params, term.c, term.consts.gamma)
    w, theta, r, log_gap = axis[:4]
    exponent = theta * (term.a + term.b * r)
    const = math.log(term.c) + (1.0 if term.euler else 0.0)
    at, _ = standard._objective(axis, term)
    values = np.array([at(x)[1] for x in w.tolist()])
    tol = 8 * np.finfo(float).eps * (1.0 + abs(const) + np.abs(log_gap) + np.abs(exponent))
    return exponent - log_gap + const, values, tol


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_prescan_values_agree_with_float_objective(sched):
    """At every pre-scan point, within the rounding of the final sum.

    The second source has a peak rate other than 1, so that products with
    the peak round.
    """
    checked = 0
    for params, term in _terms(sched, (0.0, 5.0)):
        scanned, values, tol = _scan(params, term)
        assert (np.abs(scanned - values) <= tol).all()
        checked += 1
    assert checked


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_slope_matches_central_differences(sched):
    """df/dw and its derivative against central differences in w.

    At every fourth pre-scan point from theta = 1e-3 gamma to 0.8 gamma,
    where the slope is not near its root (where a relative error means
    nothing), with steps of 1e-4 in w and, for the second derivative,
    whose differences of slopes round more, 1e-3.
    """
    checked = 0
    for params, term in _terms(sched, (1.0, 5.0), flows=(2, 10), sources=(SOURCE,)):
        gamma = term.consts.gamma
        axis = standard._axis(params, term.c, gamma)
        at, slope = standard._objective(axis, term)
        w, theta = axis.w, axis.theta
        inside = (theta >= 1e-3 * gamma) & (theta <= 0.8 * gamma)
        for x in w[inside][::4].tolist():
            h = 1e-4
            g, dg = slope(x)
            if not (math.isfinite(g) and abs(g) > 1e-3):
                continue
            df = (at(x + h)[1] - at(x - h)[1]) / (2 * h)
            assert g == pytest.approx(df, rel=1e-6), (x, gamma)
            ddf = (slope(x + 10 * h)[0] - slope(x - 10 * h)[0]) / (20 * h)
            assert dg == pytest.approx(ddf, rel=1e-4, abs=1e-6 * abs(g)), (x, gamma)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_refined_minimum_never_above_prescan(monkeypatch, sched):
    """Against the objective at the pre-scan points, within their rounding.

    Also when the refinement returns a worse w: the value at the pre-scan's
    smallest point stands.
    """
    checked = 0
    for params, term in _terms(sched, (0.0, 0.5, 5.0, 40.0), flows=FLOWS):
        try:
            _, fv, _ = standard._minimize_theta(params, term)
        except SncboundsError:
            continue
        _, values, tol = _scan(params, term)
        scanned = float((values + tol).min())
        assert fv <= scanned
        with monkeypatch.context() as m:
            m.setattr(standard, "_refine", lambda slope, lo, w, hi: hi)
            _, fv, _ = standard._minimize_theta(params, term)
        assert fv <= scanned
        checked += 1
    assert checked


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_delay_grid_matches_one_point_calls(sched):
    """``bound_rows`` on a grid against one call of each bound per delay."""
    grid = [0.0, 0.25, 1.0, 2.5, 5.0, 9.0, 10.0, 11.0, 40.0]
    checked = 0
    for n, rho in itertools.product((2, 10, 1000), RHOS):
        sc = Scenario.from_utilization(n // 2, n // 2, rho, SOURCE)
        spec = SCHEDULERS[sched]
        try:
            rows = bound_rows(sc, spec, grid)
        except SncboundsError:
            continue
        palm = palm_prefactor(sc)
        for d, row in zip(grid, rows):
            one = standard_delay_bound(sc, spec, d)
            assert (_hex(row["standard_raw"]), _hex(row["theta_star"])) == (
                _hex(palm * one.value), _hex(one.theta_star))
            mart = martingale_delay_bound(sc, spec, d).value
            assert _hex(row["martingale_raw"]) == _hex(palm * mart)
            checked += 1
    assert checked >= len(grid)


def test_prescan_on_effective_bandwidth_axis():
    """On 10^4 random systems, rho up to 0.999 and capacities near the peak.

    The points' w and thetas increase strictly, both ends lie within
    [_EDGE, 2*_EDGE]*gamma of their end of (0, gamma), and each point's r is
    the effective bandwidth of its theta: within 4 ulps of r plus 4 ulps of
    theta times dr/dtheta, which is up to (P - m)/(2 sqrt(m (P - m))) times
    r/theta.  The upper end's distance to gamma holds up to 8 ulps of gamma,
    the rounding of gamma*(1 - _EDGE) itself.
    """
    rng = np.random.default_rng(23)
    edge, ulp = standard._EDGE, np.finfo(float).eps
    systems = 0
    while systems < 10_000:
        params = MmooParams(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0),
                            rng.uniform(0.3, 4.0))
        kind = rng.integers(3)
        if kind == 0:
            rho = rng.uniform(params.on_probability, 0.999)
        elif kind == 1:
            rho = 1.0 - 10 ** rng.uniform(-3.0, -1.0)
        else:  # capacity near the peak
            rho = params.on_probability / (1.0 - 10 ** rng.uniform(-8.0, -1.0))
        sched = ORACLE_SCHEDULERS[int(rng.integers(len(ORACLE_SCHEDULERS)))]
        try:
            sc = Scenario.from_utilization(int(rng.integers(1, 100)), int(rng.integers(0, 100)),
                                           rho, params)
            terms = _bound_terms(sc, sched, 1.0)
        except SncboundsError:
            continue
        for term in terms:
            gamma = term.consts.gamma
            w, theta, r = standard._axis(params, term.c, gamma)[:3]
            assert (np.diff(w) > 0).all() and (np.diff(theta) > 0).all()
            assert edge * gamma * (1 - 8 * ulp) <= theta[0] <= 2 * edge * gamma
            assert edge * gamma - 8 * ulp * gamma <= gamma - theta[-1] <= 2 * edge * gamma
            rate = standard.effective_bandwidth_rate(theta, params)
            slope = r * (params.peak - r) / (
                2 * theta * r + params.lam + params.mu - theta * params.peak)
            assert (np.abs(r - rate) <= 4 * ulp * (r + theta * slope)).all()
        systems += 1


ORACLE_SCHEDULERS = [SCHEDULERS[name] for name in ("fifo", "sp", "edf-10-1", "edf-1-10",
                                                  "edf-0-5", "gps-0.3", "gps-0.5")]
ORACLE_SCHEDULERS.append(SchedulerSpec.gps(0.7))
ORACLE_DELAYS = (0.0, 0.5, 1.0, 5.0, 40.0, 200.0)


def _oracle_draws(count: int, seed: int):
    """Seeded (scenario, scheduler, d) draws off the pinned grid.

    Sources have peaks other than 1, flow counts are uneven up to 10^4 and
    rho runs from 0.05 to 0.999, half of the draws within 0.05 of 1.
    """
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        params = MmooParams(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0),
                            rng.uniform(0.3, 4.0))
        n1 = int(10 ** rng.uniform(0.0, 4.0))
        n2 = int(10 ** rng.uniform(0.0, 4.0)) - 1
        rho = (rng.uniform(0.05, 0.999) if rng.random() < 0.5
               else 1.0 - 10 ** rng.uniform(-3.0, math.log10(0.05)))
        try:
            sc = Scenario.from_utilization(n1, n2, rho, params)
        except SncboundsError:
            continue
        draws.append((sc, ORACLE_SCHEDULERS[int(rng.integers(len(ORACLE_SCHEDULERS)))],
                      ORACLE_DELAYS[int(rng.integers(len(ORACLE_DELAYS)))]))
    return draws


def _outcome(bound, sc, sched, d):
    """Every field as ``float.hex``, or the type of the raised error."""
    try:
        res = bound(sc, sched, d)
    except (SncboundsError, ArithmeticError, ValueError) as exc:
        return type(exc)
    return _hex(res.value), _hex(res.theta_star), res.at_edge


_ReferenceTerm = namedtuple("_ReferenceTerm", "consts flows cm k euler exponent")


def _reference_terms(scenario, sched, d):
    """The library's terms with the prefactor and exponent the frozen oracle reads.

    Each exponent(theta, r) is the one the library evaluated before its terms
    carried (a, b), and each (cm, k) the pair of L = cm/(cm - k*r_theta) it
    read before its terms carried c: (phi1*C, n1) under GPS, (c, 1)
    otherwise.  Operation for operation, so the oracle reproduces that
    library's values bit for bit.
    """
    terms = _bound_terms(scenario, sched, d)
    cap, n1, n2 = scenario.capacity, scenario.n1, scenario.n2
    pairs = [(t.c, 1) for t in terms]
    if sched.kind == "gps":
        phi_c = sched.phi1 * cap
        pairs = [(phi_c, n1)]
        exponents = [lambda th, r: -th * phi_c * d]
    elif sched.kind == "fifo":
        exponents = [lambda th, r: -th * cap * d]
    elif sched.kind == "sp":
        exponents = [lambda th, r: -th * (cap - n2 * r) * d]
    elif sched.d1_star >= sched.d2_star:
        w = min(sched.d1_star - sched.d2_star, d)
        exponents = [lambda th, r: th * n2 * r * w - th * cap * d]
    else:
        y = sched.d1_star - sched.d2_star
        exponents = [lambda th, r: th * (cap - n1 * r) * y - th * cap * d,
                     lambda th, r: -th * cap * d]
    return tuple(_ReferenceTerm(t.consts, t.flows, cm, k, t.euler, exponent)
                 for t, (cm, k), exponent in zip(terms, pairs, exponents))


def test_optimizer_matches_reference_oracle(monkeypatch):
    """The refinement against golden-section on 2400 random draws.

    Any theta in (0, gamma) gives a valid bound, so a lower value is allowed
    (the largest fall is printed); a higher one only by float noise,
    1e-11 * max(1, |log value|) in the log.  Errors and edge flags match.
    """
    monkeypatch.setattr(standard_reference, "_bound_terms", _reference_terms)
    draws = _oracle_draws(2400, seed=1919)
    outcomes = [(_outcome(standard_delay_bound, *draw),
                 _outcome(standard_reference.standard_delay_bound, *draw)) for draw in draws]
    moved, worst_fall = [], 0.0
    for draw, (got, ref) in zip(draws, outcomes):
        if not (isinstance(got, tuple) and isinstance(ref, tuple)):
            if got != ref:
                moved.append((draw, got, ref))
            continue
        value, pinned = float.fromhex(got[0]), float.fromhex(ref[0])
        if got[2] != ref[2] or (value == 0.0) != (pinned == 0.0) or (
                math.isfinite(value) != math.isfinite(pinned)):
            moved.append((draw, got, ref))
        elif value != pinned and pinned > 0.0 and math.isfinite(pinned):
            rise = (math.log(value) - math.log(pinned)) / max(1.0, abs(math.log(pinned)))
            if rise > 1e-11:
                moved.append((draw, got, ref))
            worst_fall = min(worst_fall, rise)
    print(f"largest fall in log value, relative to max(1, |log value|): {worst_fall:.3g}")
    assert moved == []
    # the draws reach finite bounds of every scheduler, minima at an interval
    # end, and rejected inputs
    finite = [draw[1] for draw, (got, _) in zip(draws, outcomes)
              if isinstance(got, tuple) and math.isfinite(float.fromhex(got[0]))]
    assert {id(s) for s in finite} == {id(s) for s in ORACLE_SCHEDULERS}
    assert any(isinstance(got, tuple) and got[2] for got, _ in outcomes)
    assert any(not isinstance(got, tuple) for got, _ in outcomes)


def test_cached_axis_gives_cold_results():
    """Every oracle draw, warm, bit for bit as with the cache cleared before it.

    Warm, the draws run in shuffled order, each right after the same
    scenario at another delay, whose call leaves the axes of its systems in
    the cache.
    """
    axis = standard._axis
    draws = _oracle_draws(2400, seed=1919)
    cold = []
    for draw in draws:
        axis.cache_clear()
        cold.append(_outcome(standard_delay_bound, *draw))
    axis.cache_clear()
    warm = [None] * len(draws)
    for i in np.random.default_rng(23).permutation(len(draws)).tolist():
        sc, sched, d = draws[i]
        _outcome(standard_delay_bound, sc, sched, 2.0 * d + 1.0)
        warm[i] = _outcome(standard_delay_bound, sc, sched, d)
    hits = axis.cache_info().hits
    axis.cache_clear()
    assert warm == cold
    assert hits >= sum(isinstance(got, tuple) for got in cold)


@pytest.mark.parametrize("sched", sorted(SCHEDULERS))
def test_delay_grid_builds_one_axis_per_system(sched):
    """``bound_rows`` over d = 1..10 misses each cache once per distinct reduced system.

    The axis is read by the standard bound at every delay, the martingale
    constants by both bound families.
    """
    grid = [float(d) for d in range(1, 11)]
    caches = (standard._axis, martingale._constants)
    checked = 0
    for n, rho, source in itertools.product((2, 10, 1000), RHOS, (SOURCE, OTHER_SOURCE)):
        sc = Scenario.from_utilization(n // 2, n // 2, rho, source)
        spec = SCHEDULERS[sched]
        try:
            terms = _bound_terms(sc, spec, 1.0)
        except SncboundsError:
            continue
        for cache in caches:
            cache.cache_clear()
        bound_rows(sc, spec, grid)
        systems = len({(source, t.c, t.consts.gamma) for t in terms})
        for cache, reads in zip(caches, (1, 2)):
            info = cache.cache_info()
            assert (info.misses, info.hits) == (systems, reads * len(grid) * len(terms) - systems)
        checked += 1
    for cache in caches:
        cache.cache_clear()
    assert checked


def test_cached_axis_is_read_only():
    """The w, theta, r and log(c - r) rows are views of one read-only 4 x 256 array.

    The rest of the entry are the objective's delay-free scalars, floats
    formed as the objective formed them per call: lam + mu, m = p*P, c - m,
    P - c, m (P - m) and log(c).
    """
    term = _bound_terms(Scenario.from_utilization(5, 5, 0.75, SOURCE), SCHEDULERS["fifo"], 1.0)[0]
    c = term.c
    cached = standard._axis(SOURCE, c, term.consts.gamma)
    assert cached is standard._axis(SOURCE, c, term.consts.gamma)
    rows = cached[:4]
    base = rows[0].base
    assert base.shape == (4, 256) and not base.flags.writeable
    for row in rows:
        assert row.shape == (256,) and row.base is base and not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 1.0
    m, peak = SOURCE.mean_rate, SOURCE.peak
    scalars = (SOURCE.lam + SOURCE.mu, m, c - m, peak - c, m * (peak - m), math.log(c))
    assert [_hex(x) for x in cached[4:]] == [_hex(x) for x in scalars]
    assert all(type(x) is float for x in cached[4:])


def test_few_slope_evaluations_per_refinement(monkeypatch):
    """Over the oracle's draws, a mean of at most 3.5 and a maximum of 10.

    The pre-scan resolves both ends of the interval alike, so a refinement
    starts near the minimum wherever it lies.
    """
    counts = []
    refine = standard._refine

    def counted(slope, *args):
        counts.append(0)

        def call(th):
            counts[-1] += 1
            return slope(th)
        return refine(call, *args)

    monkeypatch.setattr(standard, "_refine", counted)
    for draw in _oracle_draws(2400, seed=1919):
        _outcome(standard_delay_bound, *draw)
    assert len(counts) > 1000
    assert sum(counts) / len(counts) <= 3.5
    assert max(counts) <= 10


if __name__ == "__main__":
    GOLDEN.write_text(render(compute()))

import math
import warnings

import numpy as np
import pytest

from sncbounds import (
    GpsInfeasibleError,
    InvalidParamsError,
    MmooParams,
    Scenario,
    SchedulerSpec,
    TrivialScenarioError,
    effective_bandwidth_rate,
    gps_constants,
    martingale_constants,
    martingale_delay_bound,
    standard,
    standard_delay_bound,
)
from sncbounds.martingale import _bound_terms
from eb_reference import solve_eb_equation
import standard_reference

BASE_SOURCE = MmooParams(0.5, 0.1, 1.0)


def scenario(rho=0.75, n1=5, n2=5):
    return Scenario.from_utilization(n1, n2, rho, BASE_SOURCE)


def grid_oracle(objective, gamma, points=10_000):
    """Independent optimizer: brute minimum over a log-spaced theta grid."""
    thetas = np.geomspace(1e-9 * gamma, gamma * (1 - 1e-9), points)
    return float(np.min(objective(thetas))), thetas


def fifo_objective(sc):
    c, cap = sc.per_flow_capacity, sc.capacity

    def obj(th, d):
        r = effective_bandwidth_rate(th, sc.params)
        return c * math.e / (c - r) * np.exp(-th * cap * d)

    return obj


@pytest.fixture
def optimizer_calls(monkeypatch):
    """(term, (theta*, log minimum, at edge)) of every optimizer call, in call order."""
    calls = []
    minimize = standard._minimize_theta

    def spy(params, term):
        calls.append((term, minimize(params, term)))
        return calls[-1][1]

    monkeypatch.setattr(standard, "_minimize_theta", spy)
    return calls


class TestEffectiveBandwidth:
    def test_small_theta_limit_is_mean_rate(self):
        r = effective_bandwidth_rate(1e-12, BASE_SOURCE)
        assert r == pytest.approx(BASE_SOURCE.mean_rate, rel=1e-9)

    def test_theta_zero_raises_no_warning(self):
        """The 0/0 of the discarded branch at theta = 0 stays silent; no bit moves."""
        thetas = np.concatenate([[0.0, 0.1], np.geomspace(1e-12, 1e6, 200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = effective_bandwidth_rate(0.0, BASE_SOURCE)
            pair = effective_bandwidth_rate([0.0, 0.1], BASE_SOURCE)
            swept = effective_bandwidth_rate(thetas, BASE_SOURCE)
        assert at_zero == pytest.approx(BASE_SOURCE.mean_rate, rel=1e-15)
        assert pair.tolist() == [at_zero, effective_bandwidth_rate(0.1, BASE_SOURCE)]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = standard_reference.effective_bandwidth_rate(thetas, BASE_SOURCE)
        assert swept.tobytes() == expected.tobytes()

    def test_large_theta_limit_is_peak(self):
        assert effective_bandwidth_rate(1e5, BASE_SOURCE) == pytest.approx(
            BASE_SOURCE.peak, abs=1e-4)

    def test_at_gamma_equals_capacity(self):
        for rho, c in ((0.75, 2 / 9), (0.9, 5 / 27)):
            gamma = martingale_constants(scenario(rho)).gamma
            assert effective_bandwidth_rate(gamma, BASE_SOURCE) == pytest.approx(
                c, rel=1e-12)

    def test_between_mean_rate_and_peak(self):
        for th in (0.01, 0.2, 1.0, 5.0):
            r = effective_bandwidth_rate(th, BASE_SOURCE)
            assert BASE_SOURCE.mean_rate <= r <= BASE_SOURCE.peak

    def test_monotone_nondecreasing(self):
        ths = np.geomspace(1e-6, 100.0, 300)
        rs = effective_bandwidth_rate(ths, BASE_SOURCE)
        assert (np.diff(rs) >= -1e-15).all()


class TestSolveEbEquation:
    def test_reference_utilizations(self):
        g75 = martingale_constants(scenario(0.75)).gamma
        g90 = martingale_constants(scenario(0.9)).gamma
        assert abs(solve_eb_equation(BASE_SOURCE, 2 / 9) - g75) <= 1e-8
        assert abs(solve_eb_equation(BASE_SOURCE, 5 / 27) - g90) <= 1e-8

    def test_identity_over_random_sweep(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            params = MmooParams(rng.uniform(0.05, 3), rng.uniform(0.05, 3),
                                rng.uniform(0.5, 4))
            rho = rng.uniform(params.on_probability + 1e-3, 1 - 1e-3)
            c = params.mean_rate / rho
            gamma = (params.lam + params.mu) * (1 - rho) / (params.peak - c)
            worst = max(worst, abs(solve_eb_equation(params, c) - gamma))
        assert worst <= 1e-8

    def test_capacity_near_mean_gives_tiny_root(self):
        c = BASE_SOURCE.mean_rate * (1 + 1e-6)
        assert solve_eb_equation(BASE_SOURCE, c) < 1e-4

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParamsError):
            solve_eb_equation(BASE_SOURCE, 0.1)  # below mean rate
        with pytest.raises(InvalidParamsError):
            solve_eb_equation(BASE_SOURCE, 1.5)  # above peak


class TestIntervalEnds:
    """Both bound families read one decay rate per reduced system: the
    standard optimizer's interval ends at the martingale constants' gamma,
    bit for bit, not at a root searched for again."""

    @pytest.mark.parametrize("phi1", [0.3, 0.5, 0.7])
    def test_gps_ends_at_reduced_gamma(self, optimizer_calls, phi1):
        checked = 0
        for rho in (0.3, 0.45, 0.6, 0.75):
            for n1, n2 in ((5, 5), (2, 8), (8, 2), (1, 1)):
                sc = scenario(rho, n1, n2)
                try:
                    gamma = gps_constants(sc, phi1).gamma
                except (GpsInfeasibleError, TrivialScenarioError):
                    continue
                optimizer_calls.clear()
                standard_delay_bound(sc, SchedulerSpec.gps(phi1), 5.0)
                assert [term.consts.gamma for term, _ in optimizer_calls] == [gamma]
                checked += 1
        assert checked >= 4

    def test_edf_second_term_ends_at_rescaled_gamma(self, optimizer_calls):
        checked = 0
        for rho in (0.5, 0.75, 0.9, 0.99):
            for n1, n2 in ((5, 5), (2, 8), (8, 2), (1, 3), (50, 50)):
                sc = scenario(rho, n1, n2)
                terms = _bound_terms(sc, SchedulerSpec.edf(1.0, 10.0), 5.0)
                if len(terms) == 1:
                    continue
                optimizer_calls.clear()
                standard_delay_bound(sc, SchedulerSpec.edf(1.0, 10.0), 5.0)
                assert [term.consts.gamma for term, _ in optimizer_calls] == [
                    martingale_constants(sc).gamma, terms[1].consts.gamma]
                checked += 1
        assert checked >= 10


class TestSamplePathBound:
    """The sample-path bound inf L exp(-theta (C - n2 r_theta) u - theta sigma)
    through its instantiations: (u=0, sigma=C d) is FIFO, (u=d, sigma=0) is
    SP and (u=y, sigma=C (d-y)) is EDF with deadline gap y <= d."""

    def test_zero_arguments_approach_L_limit(self):
        sc = scenario()
        res = standard_delay_bound(sc, SchedulerSpec.fifo(), 0.0)
        limit = math.e * (2 / 9) / (2 / 9 - 1 / 6)  # = 4e ~ 10.873
        assert limit == pytest.approx(10.873127, abs=1e-5)
        assert res.value >= limit * (1 - 1e-12)
        assert res.value == pytest.approx(limit, rel=1e-3)

    def test_against_grid_oracle(self):
        sc = scenario()
        gamma = martingale_constants(sc).gamma
        cap, c, n2 = sc.capacity, sc.per_flow_capacity, sc.n2
        u = 5.0

        def obj(ths):
            r = effective_bandwidth_rate(ths, sc.params)
            return c * math.e / (c - r) * np.exp(-ths * (cap - n2 * r) * u)

        oracle, _ = grid_oracle(obj, gamma)
        res = standard_delay_bound(sc, SchedulerSpec.sp(), u)
        assert res.value == pytest.approx(oracle, rel=1e-3)
        assert res.value <= oracle * (1 + 1e-12)

    def test_large_sigma_pushes_theta_to_gamma(self):
        # gamma - theta* ~ 1/sigma, so the optimum crowds the right endpoint
        sc = scenario()
        gamma = martingale_constants(sc).gamma
        res = standard_delay_bound(sc, SchedulerSpec.fifo(), 1e4 / sc.capacity)
        assert res.value < 1e-200
        assert res.theta_star < gamma
        assert res.theta_star == pytest.approx(gamma, rel=1e-2)

    def test_feasible_interval_and_L(self):
        sc = scenario()
        gamma = martingale_constants(sc).gamma
        res = standard_delay_bound(sc, SchedulerSpec.edf(3.0, 1.0), 2.0 + 10.0 / sc.capacity)
        assert 0 < res.theta_star < gamma
        c = sc.per_flow_capacity
        assert c * math.e / (c - effective_bandwidth_rate(res.theta_star, sc.params)) > 1.0


class TestStandardDelayBounds:
    def test_fifo_against_grid_oracle(self):
        sc = scenario()
        gamma = martingale_constants(sc).gamma
        obj = fifo_objective(sc)
        for d in (0.0, 1.0, 5.0, 20.0):
            oracle, _ = grid_oracle(lambda th: obj(th, d), gamma)
            res = standard_delay_bound(sc, SchedulerSpec.fifo(), d)
            assert res.value == pytest.approx(oracle, rel=1e-3)
            assert res.value <= oracle * (1 + 1e-12)  # optimizer beats the grid

    @pytest.mark.parametrize("sched", [SchedulerSpec.fifo(), SchedulerSpec.sp(),
                                       SchedulerSpec.edf(1.0, 10.0), SchedulerSpec.gps(0.5)])
    def test_rates_near_the_top_of_the_double_range(self, sched):
        # at 1e200 the squares behind the pre-scan's ends overflow; the bound
        # is the one of a fast-switching source at 1e150, where they do not
        fast = Scenario.from_utilization(5, 5, 0.75, MmooParams(1e200, 1e200, 1.0))
        slower = Scenario.from_utilization(5, 5, 0.75, MmooParams(1e150, 1e150, 1.0))
        for d in (0.0, 5.0):
            got = standard_delay_bound(fast, sched, d)
            want = standard_delay_bound(slower, sched, d)
            assert math.isfinite(got.value) and math.isfinite(got.theta_star)
            assert got.value == pytest.approx(want.value, rel=1e-9)

    def test_fifo_exceeds_martingale_at_five(self):
        sc = scenario()
        std = standard_delay_bound(sc, SchedulerSpec.fifo(), 5.0).value
        mart = martingale_delay_bound(sc, SchedulerSpec.fifo(), 5.0).value
        assert mart == pytest.approx(0.1059, abs=5e-5)
        assert std > mart

    def test_sp_without_cross_flow_is_fifo(self):
        sc = Scenario.from_utilization(4, 0, 0.75, BASE_SOURCE)
        for d in (0.0, 2.0, 8.0):
            fifo = standard_delay_bound(sc, SchedulerSpec.fifo(), d).value
            sp = standard_delay_bound(sc, SchedulerSpec.sp(), d).value
            assert sp == fifo  # bit-identical objective

    def test_edf_equal_deadlines_is_fifo(self):
        sc = scenario()
        for d in (0.0, 2.0, 8.0):
            fifo = standard_delay_bound(sc, SchedulerSpec.fifo(), d).value
            edf = standard_delay_bound(sc, SchedulerSpec.edf(3.0, 3.0), d).value
            assert edf == fifo

    def test_dominates_martingale_everywhere(self):
        # provable for FIFO and GPS; numeric at the four multiplexing settings
        # for SP and EDF
        for rho in (0.75, 0.9):
            for n in (5, 10):
                sc = scenario(rho, n, n)
                for sched in (SchedulerSpec.fifo(), SchedulerSpec.sp(),
                              SchedulerSpec.edf(10.0, 1.0), SchedulerSpec.edf(1.0, 10.0),
                              SchedulerSpec.gps(0.5)):
                    for d in (0.0, 1.0, 5.0, 15.0):
                        std = standard_delay_bound(sc, sched, d).value
                        mart = martingale_delay_bound(sc, sched, d).value
                        assert std > mart

    def test_L_above_one_on_feasible_set(self):
        sc = scenario()
        gamma = martingale_constants(sc).gamma
        c = sc.per_flow_capacity
        for th in np.geomspace(1e-8 * gamma, gamma * (1 - 1e-8), 50):
            r = effective_bandwidth_rate(th, sc.params)
            assert c * math.e / (c - r) > 1.0

    def test_asymptotic_slope_matches_gamma_c(self):
        # the optimized exponent approaches gamma*C like 1/(C*d); at the
        # d in [50, 200] window the fitted slope is still ~2% shy of the
        # asymptote, so the 1% check runs on [500, 700] (larger d underflows
        # the bound value)
        sc = scenario()
        gamma_c = martingale_constants(sc).gamma * sc.capacity

        def fitted_slope(d_lo, d_hi):
            ds = np.linspace(d_lo, d_hi, 25)
            logs = [math.log(standard_delay_bound(sc, SchedulerSpec.fifo(), d).value)
                    for d in ds]
            return -np.polyfit(ds, logs, 1)[0]

        assert fitted_slope(500.0, 700.0) == pytest.approx(gamma_c, rel=0.01)
        assert fitted_slope(50.0, 200.0) == pytest.approx(gamma_c, rel=0.03)

    def test_edf_case2_two_terms(self, optimizer_calls):
        sc = scenario()
        res = standard_delay_bound(sc, SchedulerSpec.edf(1.0, 10.0), 5.0)
        assert len(optimizer_calls) == 2
        ((_, (th1, fv1, _)), (_, (th2, fv2, _))) = optimizer_calls
        assert res.value == math.exp(fv1) + math.exp(fv2)
        assert res.theta_star == th1
        gamma = martingale_constants(sc).gamma
        gamma_resc = _bound_terms(sc, SchedulerSpec.edf(1.0, 10.0), 5.0)[1].consts.gamma
        assert 0 < th1 < gamma
        assert 0 < th2 < gamma_resc

    def test_edf_case2_term_oracles(self):
        sc = scenario()
        gamma = martingale_constants(sc).gamma
        cap, c, n1 = sc.capacity, sc.per_flow_capacity, sc.n1
        y, d = -9.0, 5.0

        def obj1(ths):
            r = effective_bandwidth_rate(ths, sc.params)
            return c * math.e / (c - r) * np.exp(ths * (cap - n1 * r) * y - ths * cap * d)

        resc = _bound_terms(sc, SchedulerSpec.edf(1.0, 10.0), d)[1]
        c2 = resc.c
        assert c2 == pytest.approx(4 / 9, rel=1e-15)
        gamma2 = resc.consts.gamma

        def obj2(ths):
            r = effective_bandwidth_rate(ths, sc.params)
            return c2 * math.e / (c2 - r) * np.exp(-ths * cap * d)

        o1, _ = grid_oracle(obj1, gamma)
        o2, _ = grid_oracle(obj2, gamma2)
        res = standard_delay_bound(sc, SchedulerSpec.edf(1.0, 10.0), d)
        assert res.value == pytest.approx(o1 + o2, rel=1e-3)

    def test_edf_case2_trivial_second_term(self, optimizer_calls):
        # n1=1 of 10 flows: c' = 10c exceeds the peak, so the rescaled term
        # is left out and the bound is the first term alone
        sc = Scenario.from_utilization(1, 9, 0.75, BASE_SOURCE)
        assert len(_bound_terms(sc, SchedulerSpec.edf(0.0, 5.0), 2.0)) == 1
        res = standard_delay_bound(sc, SchedulerSpec.edf(0.0, 5.0), 2.0)
        assert len(optimizer_calls) == 1
        _, (th, fv, _) = optimizer_calls[0]
        assert (res.value, res.theta_star) == (math.exp(fv), th)

    def test_gps_value_and_prefactor_form(self):
        sc = scenario()
        res = standard_delay_bound(sc, SchedulerSpec.gps(0.5), 0.0)
        phi_c = 0.5 * sc.capacity
        # at d=0 the infimum sits at theta -> 0 where L -> phi1 C/(phi1 C - n1 p P)
        expect = phi_c / (phi_c - 5 * BASE_SOURCE.mean_rate)
        assert res.value == pytest.approx(expect, rel=1e-3)

    def test_gps_against_grid_oracle(self):
        sc = scenario()
        phi_c = 0.5 * sc.capacity
        gamma_gps = gps_constants(sc, 0.5).gamma

        def obj(ths):
            r = effective_bandwidth_rate(ths, sc.params)
            return phi_c / (phi_c - 5 * r) * np.exp(-ths * phi_c * 5.0)

        oracle, _ = grid_oracle(obj, gamma_gps)
        res = standard_delay_bound(sc, SchedulerSpec.gps(0.5), 5.0)
        assert res.value == pytest.approx(oracle, rel=1e-3)

    def test_gps_infeasible_weight(self):
        with pytest.raises(GpsInfeasibleError):
            standard_delay_bound(scenario(0.9), SchedulerSpec.gps(0.05), 1.0)

    def test_gps_trivial_weight(self):
        sc = Scenario.from_utilization(1, 9, 0.75, BASE_SOURCE)
        with pytest.raises(TrivialScenarioError):
            standard_delay_bound(sc, SchedulerSpec.gps(0.9), 1.0)

    @pytest.mark.parametrize("params", [MmooParams(1e308, 0.1, 1.0),
                                        MmooParams(0.5, 0.1, 1e-300)], ids=["lam", "peak"])
    def test_interval_ends_out_of_range_rejected(self, params):
        # an end's gap underflows to 0 or rounds above c - p*P: no division
        # by zero or log domain error escapes
        sc = Scenario.from_utilization(5, 5, 0.75, params)
        with pytest.raises(InvalidParamsError, match="optimizer cannot place"):
            standard_delay_bound(sc, SchedulerSpec.fifo(), 1.0)

    @pytest.mark.parametrize("params, rho, reason", [
        (MmooParams(1.0, 1.0, 1e-300), 0.75, "underflows to 0"),
        (MmooParams(1e20, 1e-200, 1e300), 0.01, "discriminant"),
        (MmooParams(1e181, 2e4, 1e295), 0.99, "discriminant"),  # its squares overflow
    ], ids=["denominator", "discriminant", "discriminant-overflow"])
    def test_optimizer_ends_typed_error(self, params, rho, reason):
        # r (P - r) underflows to 0 at an end, or the upper end's
        # discriminant rounds below 0: no ZeroDivisionError, math domain
        # error or NumPy warning escapes
        sc = Scenario.from_utilization(5, 5, rho, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamsError, match=f"optimizer cannot place.*{reason}"):
                standard_delay_bound(sc, SchedulerSpec.fifo(), 1.0)

    def test_negative_d_rejected(self):
        with pytest.raises(InvalidParamsError):
            standard_delay_bound(scenario(), SchedulerSpec.fifo(), -1.0)

    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_non_finite_d_rejected(self, d):
        with pytest.raises(InvalidParamsError, match="finite"):
            standard_delay_bound(scenario(), SchedulerSpec.fifo(), d)

    @pytest.mark.parametrize("bound", [martingale_delay_bound, standard_delay_bound])
    @pytest.mark.parametrize("sched", [SchedulerSpec.fifo(), SchedulerSpec.sp(),
                                       SchedulerSpec.edf(10.0, 1.0), SchedulerSpec.edf(1.0, 10.0),
                                       SchedulerSpec.gps(0.5)], ids=lambda s: s.kind)
    def test_overflowing_d_rejected(self, bound, sched):
        # C d overflows at a server rate of 22.2 (GPS's 0.5 C d too): an
        # exponent would read -inf, or -inf + inf (a NaN bound) under SP
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamsError, match="overflows at d=1e"):
                bound(scenario(n1=50, n2=50), sched, 1e308)

    @pytest.mark.parametrize("sched", [SchedulerSpec.fifo(), SchedulerSpec.sp()],
                             ids=lambda s: s.kind)
    @pytest.mark.parametrize("d", [5.0, 1e6])
    def test_capacity_near_peak_gives_finite_minimum(self, optimizer_calls, sched, d):
        # c within about 1e-12 of the peak: the margin c - r is a gap of its
        # own, so it does not cancel to zero near gamma, where the minimum lies
        sc = Scenario.from_utilization(5, 5, (1 / 6) / (1 - 1e-12), BASE_SOURCE)
        res = standard_delay_bound(sc, sched, d)
        assert len(optimizer_calls) == 1
        _, (th, fv, edge) = optimizer_calls[0]
        assert math.isfinite(fv) and edge
        assert 0 < th < martingale_constants(sc).gamma
        assert res.at_edge and not math.isinf(res.value)

    def test_minimum_on_interval_edge_flagged(self):
        # pinned in tests/golden/bound-sp-capacity.csv: the SP objective still
        # falls as theta -> 0, so theta* sits on the inset left end
        res = standard_delay_bound(Scenario(4, 6, 0.25, BASE_SOURCE), SchedulerSpec.sp(), 1.0)
        assert res.theta_star == pytest.approx(2.67e-10, rel=1e-2)
        assert res.at_edge
        assert not standard_delay_bound(scenario(), SchedulerSpec.fifo(), 5.0).at_edge

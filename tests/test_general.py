import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sncbounds import (
    DegenerateSourceError,
    GridConfig,
    InvalidParamsError,
    MarkovFluidSource,
    MmooParams,
    NoFeasibleSplitError,
    Scenario,
    TrivialScenarioError,
    UnstableScenarioError,
    aggregate_source,
    effective_bandwidth_rate,
    fluid_effective_bandwidth,
    general_sample_path_bound,
    generalized_decay,
    martingale_constants,
    mmoo_consistency_check,
    single_flow_fluid_bound,
)
from sncbounds.general import _decays
from general_reference import dense_generator, scalar_bound, scalar_decay

BASE_SOURCE = MmooParams(0.5, 0.1, 1.0)


def random_birth_death(rng, n_states=None, sort=True):
    m = n_states or int(rng.integers(3, 7))
    up, down = rng.uniform(0.1, 2.0, (m - 1, 2)).T
    rates = rng.uniform(0.0, 5.0, m)
    return MarkovFluidSource(up, down, np.sort(rates) if sort else rates)


def exactly_below_gamma(src, c, theta):
    """theta < gamma of a birth-death source, decided in rational arithmetic.

    True when every pivot of -(Q + theta*diag(r - c)) is positive, with the
    diagonal of Q that makes its row sums exactly zero.
    """
    k = src.n_states
    up = [Fraction(x) for x in src.up] + [Fraction(0)]
    down = [Fraction(0)] + [Fraction(x) for x in src.down]
    x = Fraction(0)
    for i in range(k):
        f = up[i] + down[i] - Fraction(theta) * (Fraction(src.rates[i]) - Fraction(c)) - x
        if f <= 0:
            return False
        x = up[i] * down[i + 1] / f if i + 1 < k else 0
    return True


def alpha_gamma_error(src, c, gamma):
    return abs(fluid_effective_bandwidth(gamma, src) - c) / c


class TestBirthDeathPath:
    """Pivot recursions against the dense scalar solve they replace."""

    def test_random_chains_match_scalar_solve(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            src = random_birth_death(rng, int(rng.integers(3, 9)), sort=i % 2 == 0)
            lo, hi = src.mean_rate, src.rates.max()
            c = lo + rng.uniform(0.1, 0.9) * (hi - lo)
            gd, ref = generalized_decay(src, c), scalar_decay(src, c)
            assert gd.gamma == pytest.approx(ref.gamma, rel=1e-11, abs=0)
            assert np.allclose(gd.eigenvector, ref.eigenvector, rtol=1e-10, atol=0)
            assert np.array_equal(gd.drifts, ref.drifts)
            assert alpha_gamma_error(src, c, gd.gamma) <= 1e-12

    def test_small_decay_converges_within_rounding(self):
        # rates over six decades and C at 1e-3 of the way from mean to peak:
        # near gamma, rounding in the twisted pivot outweighs the Newton
        # tolerance, and the iteration stops when its bracket closes
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            up, down = (10.0 ** rng.uniform(-3, 3, (m - 1, 2))).T
            src = MarkovFluidSource(up, down, rng.uniform(0.0, 5.0, m))
            c = src.mean_rate + 1e-3 * (src.rates.max() - src.mean_rate)
            gamma = generalized_decay(src, c).gamma
            assert exactly_below_gamma(src, c, gamma * (1 - 1e-10))
            assert not exactly_below_gamma(src, c, gamma * (1 + 1e-10))

    def test_large_aggregates_keep_closed_form(self):
        # the dense solve loses these tails: 3e-8 at rho 0.5, n = 200, and a
        # non-positive entry at n = 400
        for rho, n in ((0.5, 200), (0.5, 400), (0.99, 200)):
            src = aggregate_source(n, BASE_SOURCE)
            gd = generalized_decay(src, src.mean_rate / rho)
            consts = martingale_constants(Scenario.from_utilization(n // 2, n // 2, rho,
                                                                    BASE_SOURCE))
            assert gd.gamma == pytest.approx(consts.gamma, rel=1e-12)
            expect = np.exp(-consts.theta * np.arange(n + 1))
            assert np.allclose(gd.eigenvector / gd.eigenvector[-1], expect / expect[-1],
                               rtol=1e-11, atol=0)


def mp_gamma(src, c):
    """gamma of a birth-death source by bisection on pivot signs at 60 digits.

    The up and down rates, the rates and C are taken exactly, and the
    diagonal of Q is ``-(up_i + down_{i-1})``, so its rows sum to exactly 0.
    """
    with mpmath.workdps(60):
        up = [mpmath.mpf(x) for x in src.up]
        down = [mpmath.mpf(x) for x in src.down]
        k = src.n_states
        exits = [(up[i] if i < k - 1 else 0) + (down[i - 1] if i else 0) for i in range(k)]
        u = [mpmath.mpf(r) - mpmath.mpf(c) for r in src.rates]

        def below(theta):
            f = None
            for i in range(k):
                f = exits[i] - theta * u[i] - (up[i - 1] * down[i - 1] / f if i else 0)
                if not f > 0:
                    return False
            return True

        lo, hi = mpmath.mpf(0), min(e / x for e, x in zip(exits, u) if x > 0)
        while hi - lo > mpmath.mpf(10) ** -20 * hi:
            mid = (lo + hi) / 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


class TestMpmathReference:
    """The pivot core against a 60-digit reference, rates over four decades."""

    # fraction of the way from the mean to the peak: relative gamma error limit
    LIMITS = {1e-6: 1e-9, 1e-3: 1e-12, 0.5: 1e-13}

    def test_random_chains(self):
        rng = np.random.default_rng(5)
        worst = dict.fromkeys(self.LIMITS, 0.0)
        for _ in range(100):
            m = int(rng.integers(3, 7))
            up, down = 10.0 ** rng.uniform(-2, 2, (2, m - 1))
            src = MarkovFluidSource(up, down, rng.uniform(0.0, 5.0, m))
            for frac in self.LIMITS:
                c = src.mean_rate + frac * (src.rates.max() - src.mean_rate)
                ref = mp_gamma(src, c)
                err = float(abs(generalized_decay(src, c).gamma - ref) / ref)
                worst[frac] = max(worst[frac], err)
        assert all(worst[frac] <= limit for frac, limit in self.LIMITS.items()), worst


class TestGeneralizedDecay:
    def test_mmoo_closed_form_both_utilizations(self):
        for rho, c in ((0.75, 2 / 9), (0.9, 5 / 27)):
            src = BASE_SOURCE.as_fluid_source()
            gd = generalized_decay(src, c)
            gamma = martingale_constants(
                Scenario.from_utilization(1, 0, rho, BASE_SOURCE)).gamma
            assert gd.gamma == pytest.approx(gamma, rel=1e-10)

    def test_aggregate_keeps_per_flow_decay(self):
        gd = generalized_decay(aggregate_source(5, BASE_SOURCE), 5 * (2 / 9))
        gamma = martingale_constants(
            Scenario.from_utilization(5, 0, 0.75, BASE_SOURCE)).gamma
        assert gd.gamma == pytest.approx(gamma, rel=1e-10)

    def test_eigenvector_is_exponential_profile(self):
        gd = generalized_decay(aggregate_source(4, BASE_SOURCE), 4 * (2 / 9))
        theta = math.log(0.7)
        expect = np.exp(-theta * np.arange(5))
        assert np.allclose(gd.eigenvector, expect, rtol=1e-10)

    def test_single_state_rejected(self):
        src = MarkovFluidSource([], [], [1.0])
        with pytest.raises(DegenerateSourceError):
            generalized_decay(src, 2.0)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableScenarioError):
            generalized_decay(BASE_SOURCE.as_fluid_source(), 0.1)

    def test_capacity_above_peak_rejected(self):
        with pytest.raises(TrivialScenarioError):
            generalized_decay(BASE_SOURCE.as_fluid_source(), 1.5)

    def test_residual_invariant_random_sources(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            src = random_birth_death(rng)
            lo, hi = src.mean_rate, src.rates.max()
            c = lo + rng.uniform(0.15, 0.85) * (hi - lo)
            gd = generalized_decay(src, c)
            res = np.abs(dense_generator(src) @ gd.eigenvector
                         + gd.gamma * gd.drifts * gd.eigenvector).max()
            assert res <= 1e-10 * np.abs(gd.eigenvector).max()
            assert gd.gamma > 0
            assert (gd.eigenvector > 0).all()
            assert gd.eigenvector.min() == pytest.approx(1.0)

    def test_zero_drift_state_exact(self):
        # state rate 1.0 equals the allocated capacity exactly; per flow
        # c = 1/3 and rho = 1/2, so gamma = 0.6 * 0.5 / (2/3) = 0.45
        src = aggregate_source(3, BASE_SOURCE)
        gd = generalized_decay(src, 1.0)
        assert gd.drifts.tolist() == [-1.0, 0.0, 1.0, 2.0]
        assert gd.gamma == pytest.approx(0.45, abs=1e-12)
        near = generalized_decay(src, 1.0 + 1e-7)
        assert gd.gamma == pytest.approx(near.gamma, rel=1e-5)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("fraction", [0.95, 0.99])
    def test_near_peak_aggregate_keeps_per_flow_decay(self, n, fraction):
        gd = generalized_decay(aggregate_source(n, BASE_SOURCE), fraction * n)
        gamma = martingale_constants(Scenario(n, 0, fraction, BASE_SOURCE)).gamma
        assert gd.gamma == pytest.approx(gamma, rel=1e-10)


class TestFluidEffectiveBandwidth:
    def test_matches_two_state_closed_form(self):
        src = BASE_SOURCE.as_fluid_source()
        for th in (0.01, 0.1, 0.5, 2.0):
            closed = effective_bandwidth_rate(th, BASE_SOURCE)
            assert fluid_effective_bandwidth(th, src) == pytest.approx(closed, rel=1e-10)

    def test_small_theta_limit_is_mean(self):
        src = aggregate_source(3, BASE_SOURCE)
        assert fluid_effective_bandwidth(1e-7, src) == pytest.approx(
            src.mean_rate, abs=1e-5)

    def test_alpha_at_gamma_equals_capacity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            src = random_birth_death(rng)
            lo, hi = src.mean_rate, src.rates.max()
            c = lo + rng.uniform(0.15, 0.85) * (hi - lo)
            gamma = generalized_decay(src, c).gamma
            assert abs(fluid_effective_bandwidth(gamma, src) - c) <= 1e-12 * c

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(InvalidParamsError):
            fluid_effective_bandwidth(-0.5, BASE_SOURCE.as_fluid_source())


class TestSingleFlowBound:
    def test_constrained_prefactor_vs_closed_form(self):
        # the state-constrained minimum sharpens K^n by the integer-crossing
        # factor exp(theta*(ceil(C/P) - C/P)); equal when C/P is integral
        for n in range(1, 9):
            sc = Scenario.from_utilization(max(n // 2, 1), n - max(n // 2, 1),
                                           0.75, BASE_SOURCE)
            consts = martingale_constants(sc)
            cap = sc.capacity
            src = aggregate_source(n, BASE_SOURCE)
            got = single_flow_fluid_bound(src, cap, 0.0)
            crossing = math.ceil(cap / 1.0) - cap / 1.0
            expect = consts.K**n * math.exp(consts.theta * crossing)
            assert got == pytest.approx(expect, rel=1e-9)
            assert got <= consts.K**n * (1 + 1e-12)

    def test_sigma_zero_at_most_one(self):
        for n in (1, 4, 8):
            src = aggregate_source(n, BASE_SOURCE)
            assert single_flow_fluid_bound(src, n * (2 / 9), 0.0) <= 1.0

    def test_exponential_decay_in_sigma(self):
        src = aggregate_source(3, BASE_SOURCE)
        cap = 3 * (2 / 9)
        gamma = generalized_decay(src, cap).gamma
        v0 = single_flow_fluid_bound(src, cap, 1.0)
        v1 = single_flow_fluid_bound(src, cap, 6.0)
        assert v1 / v0 == pytest.approx(math.exp(-5 * gamma), rel=1e-12)


class TestGeneralSamplePathBound:
    def test_null_cross_flow_reduces_to_single_flow(self):
        src = aggregate_source(5, BASE_SOURCE)
        cap = 5 * (2 / 9)
        gamma1 = generalized_decay(src, cap).gamma
        sigma = 3.0
        res = general_sample_path_bound(src, None, cap, 0.0, sigma,
                                        GridConfig(gamma_values=np.array([gamma1])))
        direct = single_flow_fluid_bound(src, cap, sigma)
        assert res.value == pytest.approx(direct, rel=1e-12)
        assert res.c1 == cap
        # silent source behaves as no source
        silent = MarkovFluidSource([1.0], [1.0], [0.0, 0.0])
        res2 = general_sample_path_bound(src, silent, cap, 0.0, sigma,
                                         GridConfig(gamma_values=np.array([gamma1])))
        assert res2.value == res.value

    def test_full_infimum_never_exceeds_endpoint(self):
        src = aggregate_source(5, BASE_SOURCE)
        cap = 5 * (2 / 9)
        direct = single_flow_fluid_bound(src, cap, 3.0)
        res = general_sample_path_bound(src, None, cap, 0.0, 3.0)
        assert res.value <= direct * (1 + 1e-12)

    def test_homogeneous_pair_vs_closed_form(self):
        # at the symmetric split and gamma = gamma_closed the bound equals
        # the closed form sharpened by the integer-crossing factor; the grid
        # infimum can only improve on the closed-form K^n value
        sc = Scenario.from_utilization(5, 5, 0.75, BASE_SOURCE)
        consts = martingale_constants(sc)
        src = aggregate_source(5, BASE_SOURCE)
        cap = sc.capacity
        sigma = 5 * cap
        grid = GridConfig(c1_values=np.array([sc.through_capacity]),
                          gamma_values=np.array([consts.gamma]))
        res = general_sample_path_bound(src, src, cap, 0.0, sigma, grid)
        crossing = math.ceil(cap / 1.0) - cap / 1.0
        expect = consts.K**10 * math.exp(consts.theta * crossing) \
            * math.exp(-consts.gamma * sigma)
        assert res.value == pytest.approx(expect, rel=1e-9)
        closed = consts.K**10 * math.exp(-consts.gamma * sigma)
        assert res.value <= closed
        full = general_sample_path_bound(src, src, cap, 0.0, sigma)
        assert full.value <= closed

    def test_large_sigma_achieves_min_gamma(self):
        # sigma large enough to dominate but small enough that exp stays
        # representable (underflow would tie every candidate at 0)
        src1 = aggregate_source(4, BASE_SOURCE)
        src2 = aggregate_source(2, BASE_SOURCE)
        cap = 6 * (2 / 9)
        res = general_sample_path_bound(src1, src2, cap, 0.0, 500.0,
                                        GridConfig(c1_points=16, gamma_points=33))
        gd1 = generalized_decay(src1, res.c1)
        gd2 = generalized_decay(src2, cap - res.c1)
        assert res.gamma == pytest.approx(min(gd1.gamma, gd2.gamma), rel=1e-12)

    def test_grid_refinement_never_increases(self):
        src = aggregate_source(3, BASE_SOURCE)
        cap = 6 * (2 / 9)
        m = src.mean_rate
        lo, hi = m * 1.2, cap - m * 1.2
        coarse_c1 = np.linspace(lo, hi, 9)
        fine_c1 = np.linspace(lo, hi, 17)  # superset of the coarse grid
        vals = []
        for c1s, gp in ((coarse_c1, 17), (fine_c1, 33)):
            res = general_sample_path_bound(src, src, cap, 1.0, 2.0,
                                            GridConfig(c1_values=c1s, gamma_points=gp))
            vals.append(res.value)
        assert vals[1] <= vals[0] * (1 + 1e-14)

    def test_infeasible_split_rejected(self):
        src = aggregate_source(3, BASE_SOURCE)
        with pytest.raises(NoFeasibleSplitError):
            general_sample_path_bound(src, src, 2 * src.mean_rate * 0.9, 0.0, 1.0)

    def test_gamma_zero_gives_trivial_one(self):
        src = aggregate_source(3, BASE_SOURCE)
        cap = 6 * (2 / 9)
        res = general_sample_path_bound(src, src, cap, 0.0, 0.0,
                                        GridConfig(gamma_values=np.array([0.0])))
        assert res.value == pytest.approx(1.0)


class TestGeneralBoundValidation:
    SRC = aggregate_source(3, BASE_SOURCE)
    CAP = 6 * (2 / 9)

    @pytest.mark.parametrize("u, sigma", [(0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                                          (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0)])
    def test_bad_u_or_sigma_rejected(self, u, sigma):
        for src2 in (self.SRC, None):
            with pytest.raises(InvalidParamsError):
                general_sample_path_bound(self.SRC, src2, self.CAP, u, sigma)

    def test_zero_gamma_points_rejected(self):
        for src2 in (self.SRC, None):
            with pytest.raises(InvalidParamsError, match="gamma_points"):
                general_sample_path_bound(self.SRC, src2, self.CAP, 0.0, 1.0,
                                          GridConfig(gamma_points=0))

    def test_gamma_values_outside_every_range_rejected(self):
        for src2 in (self.SRC, None):
            with pytest.raises(InvalidParamsError, match="gamma value"):
                general_sample_path_bound(self.SRC, src2, self.CAP, 0.0, 1.0,
                                          GridConfig(gamma_values=np.array([-1.0, 50.0])))

    def test_zero_c1_points_rejected(self):
        with pytest.raises(InvalidParamsError, match="c1_points"):
            general_sample_path_bound(self.SRC, self.SRC, self.CAP, 0.0, 1.0,
                                      GridConfig(c1_points=0))


class TestScalarOracle:
    """The (split, gamma) table against the scalar double loop it replaced."""

    @staticmethod
    def assert_same(src1, src2, cap, u, sigma, **grid):
        got = general_sample_path_bound(src1, src2, cap, u, sigma, GridConfig(**grid))
        ref = scalar_bound(src1, src2, cap, u, sigma, **grid)
        assert got.gamma == pytest.approx(ref.gamma, rel=1e-12, abs=0)
        assert got.c1 == ref.c1
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.9])
    @pytest.mark.parametrize("u, sigma", [(0.0, 5.0), (1.0, 2.0), (3.0, 20.0)])
    def test_default_grid(self, n, rho, u, sigma):
        src = aggregate_source(n, BASE_SOURCE)
        self.assert_same(src, src, 2 * src.mean_rate / rho, u, sigma)

    def test_explicit_values(self):
        src1 = aggregate_source(4, BASE_SOURCE)
        src2 = aggregate_source(2, BASE_SOURCE)
        cap = 6 * (2 / 9)
        # below the mean, the trivial top and NaN are skipped as infeasible
        c1s = np.array([0.1, 0.7, 0.8, math.nan, 0.9, 1.0, 1.3])
        gammas = np.array([-0.1, 0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 2.0])
        for u, sigma in ((0.0, 5.0), (1.0, 2.0)):
            self.assert_same(src1, src2, cap, u, sigma, c1_values=c1s, gamma_values=gammas)
            self.assert_same(src1, src2, cap, u, sigma, c1_values=c1s, gamma_points=9)
            self.assert_same(src1, src2, cap, u, sigma, c1_points=7, gamma_values=gammas)

    def test_zero_drift_pairs(self):
        # C and the dyadic splits are exact, so pairs with drift sum 0.0 are
        # feasible, and they are where the min over feasible pairs lies
        src = aggregate_source(3, BASE_SOURCE)
        c1s = np.array([0.625, 0.75, 0.875, 1.0, 1.25])
        self.assert_same(src, src, 2.0, 0.0, 1.0, c1_values=c1s)
        self.assert_same(src, None, 1.0, 0.0, 1.0)

    def test_random_sources(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            src1, src2 = random_birth_death(rng), random_birth_death(rng)
            spare = src1.rates.max() + src2.rates.max() - src1.mean_rate - src2.mean_rate
            cap = src1.mean_rate + src2.mean_rate + rng.uniform(0.2, 0.8) * spare
            self.assert_same(src1, src2, cap, 1.0, 3.0, c1_points=16, gamma_points=16)

    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.9])
    def test_single_flow(self, rho):
        src = aggregate_source(4, BASE_SOURCE)
        cap = src.mean_rate / rho
        silent = MarkovFluidSource([1.0], [1.0], [0.0, 0.0])
        for src2 in (None, silent):
            self.assert_same(src, src2, cap, 0.0, 5.0)
            self.assert_same(src, src2, cap, 3.0, 20.0,
                             gamma_values=np.array([0.0, 0.1, 0.2, 1.0]))

    def test_lockstep_decays_match_each_lane(self):
        rng = np.random.default_rng(29)
        sources = [aggregate_source(n, BASE_SOURCE) for n in (1, 4, 9)]
        sources += [random_birth_death(rng) for _ in range(10)]
        for src in sources:
            lo, hi = src.mean_rate, src.rates.max()
            caps = lo + np.linspace(0.1, 0.9, 9) * (hi - lo)
            gammas, hs, drifts = _decays(src, caps)
            for c, gamma, h, u in zip(caps, gammas, hs, drifts):
                lane = generalized_decay(src, c)
                assert gamma == pytest.approx(lane.gamma, rel=1e-12, abs=0)
                assert gamma == pytest.approx(scalar_decay(src, c).gamma, rel=1e-12, abs=0)
                assert np.allclose(h, lane.eigenvector, rtol=1e-12, atol=0)
                assert np.array_equal(u, lane.drifts)


class TestMmooConsistency:
    def test_reference_scenarios(self):
        # at rho 0.5 the capacity 6 equals the rate of state 6: zero drift;
        # at n = 50..200 the eigenvector spans up to 31 decades
        for rho, n1, n2 in ((0.75, 5, 5), (0.9, 10, 10), (0.5, 9, 9),
                            (0.75, 25, 25), (0.9, 50, 50), (0.75, 100, 100),
                            (0.5, 100, 100), (0.5, 200, 200), (0.99, 100, 100)):
            sc = Scenario.from_utilization(n1, n2, rho, BASE_SOURCE)
            rep = mmoo_consistency_check(sc)
            assert rep["gamma_abs_delta"] <= 1e-8 * rep["gamma_closed"]
            assert rep["prefactor_rel_error"] <= 1e-8
            assert rep["single_flow_rel_error"] <= 1e-8
            assert rep["theta_spread"] <= 1e-8

    def test_single_flow_case(self):
        sc = Scenario.from_utilization(1, 0, 0.75, BASE_SOURCE)
        rep = mmoo_consistency_check(sc)
        assert rep["gamma_abs_delta"] <= 1e-10
        assert rep["prefactor_rel_error"] <= 1e-10

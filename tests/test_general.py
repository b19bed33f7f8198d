import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from sncbounds import (
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
)
from sncbounds.general import _SPLITS, _decays, _k_factor
from general_reference import _k_factor as scalar_k_factor
from general_reference import _prefactor as scalar_prefactor
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
            src = aggregate_source(1, BASE_SOURCE)
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

    def test_unstable_rejected(self):
        with pytest.raises(UnstableScenarioError):
            generalized_decay(aggregate_source(1, BASE_SOURCE), 0.1)

    def test_capacity_above_peak_rejected(self):
        with pytest.raises(TrivialScenarioError):
            generalized_decay(aggregate_source(1, BASE_SOURCE), 1.5)

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
        src = aggregate_source(1, BASE_SOURCE)
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
            fluid_effective_bandwidth(-0.5, aggregate_source(1, BASE_SOURCE))


class TestSingleFlowBound:
    """The single-flow prefactor pi.h / min of h over drift >= 0, the bound at sigma = 0."""

    @staticmethod
    def prefactor(n):
        n1 = max(n // 2, 1)
        sc = Scenario.from_utilization(n1, n - n1, 0.75, BASE_SOURCE)
        return sc, mmoo_consistency_check(sc)["single_flow_prefactor"]

    def test_constrained_prefactor_vs_closed_form(self):
        # the state-constrained minimum sharpens K^n by the integer-crossing
        # factor exp(theta*(ceil(C/P) - C/P)); equal when C/P is integral
        for n in range(1, 9):
            sc, got = self.prefactor(n)
            consts = martingale_constants(sc)
            cap = sc.capacity
            crossing = math.ceil(cap / 1.0) - cap / 1.0
            expect = consts.K**n * math.exp(consts.theta * crossing)
            assert got == pytest.approx(expect, rel=1e-9)
            assert got <= consts.K**n * (1 + 1e-12)

    def test_sigma_zero_at_most_one(self):
        for n in range(1, 9):
            assert self.prefactor(n)[1] <= 1.0


class TestGeneralSamplePathBound:
    def test_full_infimum_never_exceeds_endpoint(self):
        # gamma = min(gamma_1, gamma_2) closes every split's row of the table
        src1, src2 = aggregate_source(5, BASE_SOURCE), aggregate_source(3, BASE_SOURCE)
        cap = 8 * (2 / 9)
        sigma = 3.0
        res = general_sample_path_bound(src1, src2, cap, 0.0, sigma)
        m1, m2 = src1.mean_rate, src2.mean_rate
        splits = m1 + (cap - m1 - m2) * (np.arange(1, _SPLITS + 1) / (_SPLITS + 1))
        for c1 in splits[::8]:
            gd1, gd2 = scalar_decay(src1, c1), scalar_decay(src2, cap - c1)
            g = min(gd1.gamma, gd2.gamma)
            end = scalar_k_factor(gd1, gd2, src1.stationary, src2.stationary, g) \
                * math.exp(-g * sigma)
            assert res.value <= end * (1 + 1e-9)

    def test_homogeneous_pair_vs_closed_form(self):
        # at the symmetric split and gamma = gamma_closed the bound equals
        # the closed form sharpened by the integer-crossing factor; the grid
        # infimum can only improve on the closed-form K^n value
        sc = Scenario.from_utilization(5, 5, 0.75, BASE_SOURCE)
        consts = martingale_constants(sc)
        src = aggregate_source(5, BASE_SOURCE)
        cap, c1 = sc.capacity, sc.through_capacity
        sigma = 5 * cap
        d1, d2 = _decays(src, np.array([c1])), _decays(src, np.array([cap - c1]))
        k = _k_factor(np.array([[consts.gamma]]), d1, src.stationary, d2, src.stationary)
        ref = scalar_k_factor(scalar_decay(src, c1), scalar_decay(src, cap - c1),
                              src.stationary, src.stationary, consts.gamma)
        assert k[0, 0] == pytest.approx(ref, rel=1e-12)
        value = k[0, 0] * math.exp(-consts.gamma * sigma)
        crossing = math.ceil(cap / 1.0) - cap / 1.0
        expect = consts.K**10 * math.exp(consts.theta * crossing) \
            * math.exp(-consts.gamma * sigma)
        assert value == pytest.approx(expect, rel=1e-9)
        closed = consts.K**10 * math.exp(-consts.gamma * sigma)
        assert value <= closed
        full = general_sample_path_bound(src, src, cap, 0.0, sigma)
        assert full.value <= closed

    def test_large_sigma_achieves_min_gamma(self):
        # sigma large enough to dominate but small enough that exp stays
        # representable (underflow would tie every candidate at 0)
        src1 = aggregate_source(4, BASE_SOURCE)
        src2 = aggregate_source(2, BASE_SOURCE)
        cap = 6 * (2 / 9)
        res = general_sample_path_bound(src1, src2, cap, 0.0, 500.0)
        gd1 = generalized_decay(src1, res.c1)
        gd2 = generalized_decay(src2, cap - res.c1)
        assert res.gamma == pytest.approx(min(gd1.gamma, gd2.gamma), rel=1e-12)

    def test_grid_refinement_never_increases(self, monkeypatch):
        # 7 splits at k/8 and 17 decay rates are among 15 at k/16 and 33
        src = aggregate_source(3, BASE_SOURCE)
        cap = 6 * (2 / 9)
        vals = []
        for splits, gammas in ((7, 17), (15, 33)):
            monkeypatch.setattr("sncbounds.general._SPLITS", splits)
            monkeypatch.setattr("sncbounds.general._GAMMAS", gammas)
            vals.append(general_sample_path_bound(src, src, cap, 1.0, 2.0).value)
        assert vals[1] <= vals[0] * (1 + 1e-14)

    def test_infeasible_split_rejected(self):
        src = aggregate_source(3, BASE_SOURCE)
        with pytest.raises(NoFeasibleSplitError):
            general_sample_path_bound(src, src, 2 * src.mean_rate * 0.9, 0.0, 1.0)

    def test_gamma_zero_gives_trivial_one(self):
        # at gamma = 0 every power of h is 1, so K = 1 at every split, and
        # with u = sigma = 0 the infimum is at most that column's value
        src = aggregate_source(3, BASE_SOURCE)
        cap = 6 * (2 / 9)
        c1 = np.linspace(0.6, 0.8, 5)
        d1, d2 = _decays(src, c1), _decays(src, cap - c1)
        k = _k_factor(np.zeros((5, 1)), d1, src.stationary, d2, src.stationary)
        assert k == pytest.approx(np.ones((5, 1)), rel=1e-15)
        assert general_sample_path_bound(src, src, cap, 0.0, 0.0).value <= 1.0 + 1e-15


class TestGeneralBoundValidation:
    SRC = aggregate_source(3, BASE_SOURCE)
    CAP = 6 * (2 / 9)

    @pytest.mark.parametrize("u, sigma", [(0.0, -1.0), (0.0, math.nan), (0.0, math.inf),
                                          (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0)])
    def test_bad_u_or_sigma_rejected(self, u, sigma):
        with pytest.raises(InvalidParamsError):
            general_sample_path_bound(self.SRC, self.SRC, self.CAP, u, sigma)


class TestScalarOracle:
    """The (split, gamma) table against the scalar double loop it replaced."""

    @staticmethod
    def assert_same(src1, src2, cap, u, sigma):
        got = general_sample_path_bound(src1, src2, cap, u, sigma)
        ref = scalar_bound(src1, src2, cap, u, sigma)
        assert got.gamma == pytest.approx(ref.gamma, rel=1e-12, abs=0)
        assert got.c1 == ref.c1
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0)

    @staticmethod
    def assert_same_k(src1, src2, cap, c1s):
        """K at explicit splits and at fractions of each split's common decay."""
        d1, d2 = _decays(src1, c1s), _decays(src2, cap - c1s)
        gammas = np.minimum(d1[0], d2[0])[:, None] * np.linspace(0.0, 1.0, 9)
        got = _k_factor(gammas, d1, src1.stationary, d2, src2.stationary)
        for c1, row, k_row in zip(c1s, gammas, got):
            gd1, gd2 = scalar_decay(src1, c1), scalar_decay(src2, cap - c1)
            ref = [scalar_k_factor(gd1, gd2, src1.stationary, src2.stationary, g)
                   for g in row]
            assert k_row == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.9])
    @pytest.mark.parametrize("u, sigma", [(0.0, 5.0), (1.0, 2.0), (3.0, 20.0)])
    def test_default_grid(self, n, rho, u, sigma):
        src = aggregate_source(n, BASE_SOURCE)
        self.assert_same(src, src, 2 * src.mean_rate / rho, u, sigma)

    def test_explicit_values(self):
        src1 = aggregate_source(4, BASE_SOURCE)
        src2 = aggregate_source(2, BASE_SOURCE)
        self.assert_same_k(src1, src2, 6 * (2 / 9), np.array([0.7, 0.8, 0.9, 0.95]))

    def test_zero_drift_pairs(self):
        # C and the dyadic splits are exact, so pairs with drift sum 0.0 are
        # feasible, and they are where the min over feasible pairs lies
        src = aggregate_source(3, BASE_SOURCE)
        self.assert_same_k(src, src, 2.0, np.array([0.625, 0.75, 0.875, 1.0, 1.25]))
        # one flow: C = 1.0 is the rate of state 1
        sc = Scenario.from_utilization(1, 2, 0.5, BASE_SOURCE)
        assert sc.capacity == 1.0
        gd = scalar_decay(src, 1.0)
        assert mmoo_consistency_check(sc)["single_flow_prefactor"] == pytest.approx(
            scalar_prefactor(gd, src.stationary, gd.gamma), rel=1e-12, abs=0)

    def test_random_sources(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            src1, src2 = random_birth_death(rng), random_birth_death(rng)
            spare = src1.rates.max() + src2.rates.max() - src1.mean_rate - src2.mean_rate
            cap = src1.mean_rate + src2.mean_rate + rng.uniform(0.2, 0.8) * spare
            self.assert_same(src1, src2, cap, 1.0, 3.0)

    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.9])
    def test_single_flow(self, rho):
        # the consistency check's single-flow prefactor at the flow's own decay
        sc = Scenario.from_utilization(2, 2, rho, BASE_SOURCE)
        src = aggregate_source(4, BASE_SOURCE)
        gd = scalar_decay(src, sc.capacity)
        assert mmoo_consistency_check(sc)["single_flow_prefactor"] == pytest.approx(
            scalar_prefactor(gd, src.stationary, gd.gamma), rel=1e-12, abs=0)

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

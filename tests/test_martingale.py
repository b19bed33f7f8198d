import itertools
import math
import sys

import numpy as np
import pytest

from sncbounds import (
    GpsInfeasibleError,
    InvalidParamsError,
    MmooParams,
    Scenario,
    SchedulerSpec,
    TrivialScenarioError,
    UnstableScenarioError,
    gps_constants,
    martingale_constants,
    martingale_delay_bound,
)
from sncbounds import martingale
from sncbounds.errors import SncboundsError
from sncbounds.martingale import _bound_terms
from sncbounds.standard import effective_bandwidth_rate

BASE_SOURCE = MmooParams(0.5, 0.1, 1.0)


def scenario(rho=0.75, n1=5, n2=5):
    return Scenario.from_utilization(n1, n2, rho, BASE_SOURCE)


def constants_oracle(params: MmooParams, c: float):
    """Independent route to (K, gamma, theta): the stationary-sum identity
    K = e^{theta c/P} ((1-p) + p e^{-theta}) from the proof's deconditioning
    step, rather than the product closed form."""
    p = params.on_probability
    theta = math.log((params.mu / params.lam) * (params.peak - c) / c)
    gamma = (params.lam + params.mu) * (1 - params.mean_rate / c) / (params.peak - c)
    k = math.exp(theta * c / params.peak) * ((1 - p) + p * math.exp(-theta))
    return k, gamma, theta


class TestConstants:
    def test_rho_075(self):
        consts = martingale_constants(scenario(0.75))
        assert consts.gamma == pytest.approx(0.15 / (7 / 9), rel=1e-12)
        assert consts.theta == pytest.approx(math.log(0.7), rel=1e-12)
        k, g, t = constants_oracle(BASE_SOURCE, 2 / 9)
        assert consts.K == pytest.approx(k, rel=1e-12)
        assert consts.K == pytest.approx(0.9897843110997495, rel=1e-9)

    def test_rho_09(self):
        consts = martingale_constants(scenario(0.9))
        assert consts.gamma == pytest.approx(0.06 / (22 / 27), rel=1e-12)
        k, _, _ = constants_oracle(BASE_SOURCE, 5 / 27)
        assert consts.K == pytest.approx(k, rel=1e-12)
        assert consts.K == pytest.approx(0.9988007289771157, rel=1e-9)

    def test_limit_towards_full_load(self):
        gammas, ks = [], []
        for rho in (0.9, 0.99, 0.999, 0.9999):
            consts = martingale_constants(scenario(rho, 2, 2))
            gammas.append(consts.gamma)
            ks.append(consts.K)
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] < 1e-3
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert ks[-1] > 1 - 1e-3

    def test_signs_over_random_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            params = MmooParams(rng.uniform(0.05, 3), rng.uniform(0.05, 3),
                                rng.uniform(0.5, 4))
            p = params.on_probability
            rho = rng.uniform(p + 1e-3, 1 - 1e-3)
            sc = Scenario.from_utilization(1, 1, rho, params)
            consts = martingale_constants(sc)
            assert 0 < consts.K < 1
            assert consts.gamma > 0
            assert consts.theta < 0

    def test_unstable_and_trivial_guards(self):
        with pytest.raises(UnstableScenarioError):
            Scenario.from_utilization(2, 2, 1.0, BASE_SOURCE)
        # the GPS-reduced share phi1*C/n1 = 0.5*10*0.3 = 1.5 is above the peak
        sc = Scenario(1, 9, 0.3, BASE_SOURCE)
        with pytest.raises(TrivialScenarioError):
            gps_constants(sc, 0.5)


def reduced_systems(count: int, seed: int, monkeypatch) -> list:
    """``count`` distinct (params, rho, c) of ``_constants`` calls the term table makes.

    Seeded random scenarios (other sources and peaks, uneven flow counts,
    rho up to 0.999) under FIFO, EDF(1,10) and GPS at several phi1: the
    scenario's own system, EDF's rescaled one and the GPS-reduced ones.
    """
    rng = np.random.default_rng(seed)
    keys = {}
    build = martingale._constants

    def recorded(*args):
        keys[args] = None
        return build(*args)

    monkeypatch.setattr(martingale, "_constants", recorded)
    scheds = [SchedulerSpec.fifo(), SchedulerSpec.edf(1.0, 10.0)] + [
        SchedulerSpec.gps(phi1) for phi1 in (0.1, 0.3, 0.5, 0.7, 0.9)]
    while len(keys) < count:
        params = MmooParams(rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0),
                            rng.uniform(0.3, 4.0))
        n1, n2 = int(10 ** rng.uniform(0.0, 4.0)), int(10 ** rng.uniform(0.0, 4.0)) - 1
        try:
            sc = Scenario.from_utilization(n1, n2, rng.uniform(0.05, 0.999), params)
        except SncboundsError:
            continue
        for sched in scheds:
            try:
                _bound_terms(sc, sched, 1.0)
            except SncboundsError:
                pass
    monkeypatch.undo()
    return list(keys)[:count]


def constants_outcome(build, key):
    """K, gamma and theta as ``float.hex``, or the type of the raised error."""
    try:
        consts = build(*key)
    except SncboundsError as exc:
        return type(exc)
    return consts.K.hex(), consts.gamma.hex(), consts.theta.hex()


class TestConstantsCache:
    def test_cached_constants_equal_uncached(self, monkeypatch):
        """Every reduced system, cached, bit for bit as built afresh.

        The systems run in shuffled order from an empty cache, each twice,
        so that both a miss and a hit are checked; more than 256 distinct
        systems also evict.
        """
        keys = reduced_systems(2000, seed=27, monkeypatch=monkeypatch)
        cached, fresh = martingale._constants, martingale._constants.__wrapped__
        order = np.random.default_rng(7).permutation(2 * len(keys)) % len(keys)
        cached.cache_clear()
        got = [(i, constants_outcome(cached, keys[i])) for i in order.tolist()]
        info = cached.cache_info()
        cached.cache_clear()
        assert all(outcome == constants_outcome(fresh, keys[i]) for i, outcome in got)
        assert info.hits > 0 and info.misses > 256
        # the draws reach the trivial-share error as well as built systems
        assert {type(o) for _, o in got} == {tuple, type}

    def test_repeated_calls_still_raise(self):
        """A raised error is not cached: every repeat raises it again."""
        cases = [
            (UnstableScenarioError,
             lambda: martingale._constants(BASE_SOURCE, 1.0, BASE_SOURCE.mean_rate)),
            (TrivialScenarioError, lambda: gps_constants(Scenario(1, 9, 0.3, BASE_SOURCE), 0.5)),
            (TrivialScenarioError, lambda: martingale_delay_bound(
                scenario(0.75, 1, 9), SchedulerSpec.gps(0.9), 1.0)),
            (GpsInfeasibleError, lambda: martingale_delay_bound(
                scenario(0.9), SchedulerSpec.gps(0.05), 1.0)),
        ]
        for error, call in cases:
            for _ in range(3):
                with pytest.raises(error):
                    call()


class TestSamplePathBound:
    """The sample-path bound K^n exp(-gamma (C1 u + sigma)) through its
    instantiations: (u=0, sigma=C d) is FIFO and (u=d, sigma=0) is SP."""

    def test_zero_exponent_gives_prefactor(self):
        sc = scenario()
        consts = martingale_constants(sc)
        for sched in (SchedulerSpec.fifo(), SchedulerSpec.sp()):
            assert martingale_delay_bound(sc, sched, 0.0).value == pytest.approx(
                consts.K ** 10, rel=1e-14)

    def test_matches_fifo_instantiation(self):
        sc = scenario()
        consts = martingale_constants(sc)

        def spb(u, sigma):
            return consts.K ** 10 * math.exp(-consts.gamma * (sc.through_capacity * u + sigma))

        fifo = martingale_delay_bound(sc, SchedulerSpec.fifo(), 5.0).value
        sp = martingale_delay_bound(sc, SchedulerSpec.sp(), 5.0).value
        assert fifo == pytest.approx(spb(0.0, sc.capacity * 5.0), rel=1e-14)
        assert sp == pytest.approx(spb(5.0, 0.0), rel=1e-14)
        assert fifo == pytest.approx(0.1059, abs=5e-5)

    def test_large_sigma_vanishes(self):
        sc = scenario()
        assert martingale_delay_bound(sc, SchedulerSpec.fifo(), 1e6 / sc.capacity).value == 0.0


class TestDelayBounds:
    def test_fifo_value_at_five(self):
        got = martingale_delay_bound(scenario(), SchedulerSpec.fifo(), 5.0)
        k, g, _ = constants_oracle(BASE_SOURCE, 2 / 9)
        assert got.value == pytest.approx(k**10 * math.exp(-g * (20 / 9) * 5), rel=1e-12)
        assert got.value == pytest.approx(0.10587041692838958, rel=1e-10)

    def test_sp_value_at_five(self):
        got = martingale_delay_bound(scenario(), SchedulerSpec.sp(), 5.0)
        k, g, _ = constants_oracle(BASE_SOURCE, 2 / 9)
        assert got.value == pytest.approx(k**10 * math.exp(-g * (10 / 9) * 5), rel=1e-12)
        assert got.value == pytest.approx(0.3090936903302149, rel=1e-10)

    def test_sp_without_cross_flow_is_fifo(self):
        for rho in (0.6, 0.75, 0.9):
            sc = Scenario.from_utilization(4, 0, rho, BASE_SOURCE)
            for d in (0.0, 0.5, 3.0, 12.0):
                fifo = martingale_delay_bound(sc, SchedulerSpec.fifo(), d).value
                sp = martingale_delay_bound(sc, SchedulerSpec.sp(), d).value
                assert sp == pytest.approx(fifo, abs=1e-12, rel=1e-12)

    def test_edf_equal_deadlines_is_fifo(self):
        for rho in (0.6, 0.75, 0.9):
            sc = scenario(rho)
            for d in (0.0, 0.5, 3.0, 12.0):
                for dl in (0.0, 1.0, 7.5):
                    fifo = martingale_delay_bound(sc, SchedulerSpec.fifo(), d).value
                    edf = martingale_delay_bound(sc, SchedulerSpec.edf(dl, dl), d).value
                    assert edf == pytest.approx(fifo, abs=1e-12, rel=1e-12)

    def test_edf_case1_matches_sp_below_gap(self):
        sc = scenario()
        sched = SchedulerSpec.edf(6.0, 2.0)  # y = 4
        for d in (0.0, 1.0, 2.5, 4.0):
            edf = martingale_delay_bound(sc, sched, d).value
            sp = martingale_delay_bound(sc, SchedulerSpec.sp(), d).value
            assert edf == pytest.approx(sp, rel=1e-12)
        assert martingale_delay_bound(sc, sched, 5.0).value < \
            martingale_delay_bound(sc, SchedulerSpec.sp(), 5.0).value

    def test_ordering_fifo_edf_sp(self):
        sc = scenario()
        for y in (0.0, 1.0, 4.0, 30.0):
            for d in np.linspace(0, 25, 40):
                fifo = martingale_delay_bound(sc, SchedulerSpec.fifo(), d).value
                edf = martingale_delay_bound(sc, SchedulerSpec.edf(y + 1, 1.0), d).value
                sp = martingale_delay_bound(sc, SchedulerSpec.sp(), d).value
                assert fifo <= edf * (1 + 1e-12)
                assert edf <= sp * (1 + 1e-12)

    def test_edf_case2_terms(self):
        sc = scenario()
        got = martingale_delay_bound(sc, SchedulerSpec.edf(1.0, 10.0), 5.0)
        k, g, _ = constants_oracle(BASE_SOURCE, 2 / 9)
        cap, c2 = sc.capacity, sc.n2 * sc.per_flow_capacity
        term1 = k**10 * math.exp(g * c2 * (-9.0)) * math.exp(-g * cap * 5.0)
        # rescaled constants: c' = 2c, rho' = rho/2
        kp, gp, _ = constants_oracle(BASE_SOURCE, 4 / 9)
        assert kp == pytest.approx(0.8100448041692296, rel=1e-12)
        assert gp == pytest.approx(0.675, rel=1e-12)
        term2 = kp**10 * math.exp(-gp * cap * 5.0)
        assert got.value == pytest.approx(term1 + term2, rel=1e-12)

    def test_edf_case2_trivial_second_term(self):
        # n1=1 of 10 flows: c' = 10c exceeds the peak, so the through flow
        # alone can never backlog the server
        sc = Scenario.from_utilization(1, 9, 0.75, BASE_SOURCE)
        got = martingale_delay_bound(sc, SchedulerSpec.edf(0.0, 5.0), 2.0)
        assert len(_bound_terms(sc, SchedulerSpec.edf(0.0, 5.0), 2.0)) == 1
        k, g, _ = constants_oracle(BASE_SOURCE, 2 / 9)
        c2 = sc.n2 * sc.per_flow_capacity
        expect = k**10 * math.exp(g * c2 * -5.0) * math.exp(-g * sc.capacity * 2.0)
        assert got.value == pytest.approx(expect, rel=1e-12)

    def test_monotone_decreasing_in_d(self):
        sc = scenario()
        for sched in (SchedulerSpec.fifo(), SchedulerSpec.sp(),
                      SchedulerSpec.edf(10.0, 1.0), SchedulerSpec.edf(1.0, 10.0),
                      SchedulerSpec.gps(0.5)):
            ds = np.linspace(0, 20, 41)
            vals = [martingale_delay_bound(sc, sched, d).value for d in ds]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_d_zero_prefactor_at_most_one(self):
        sc = scenario()
        for sched in (SchedulerSpec.fifo(), SchedulerSpec.sp(), SchedulerSpec.gps(0.5)):
            assert martingale_delay_bound(sc, sched, 0.0).value <= 1.0

    def test_single_term_value_identity(self):
        # past EDF's deadline gap every single-term bound decays log-linearly
        sc = scenario()
        g, cap = martingale_constants(sc).gamma, sc.capacity
        cases = ((SchedulerSpec.fifo(), 0.0, g * cap),
                 (SchedulerSpec.sp(), 0.0, g * sc.through_capacity),
                 (SchedulerSpec.edf(7.0, 2.0), 5.0, g * cap),
                 (SchedulerSpec.gps(0.4), 0.0, gps_constants(sc, 0.4).gamma * 0.4 * cap))
        for sched, d0, rate in cases:
            v0 = martingale_delay_bound(sc, sched, d0).value
            for d in (d0 + 2.0, d0 + 9.0):
                assert martingale_delay_bound(sc, sched, d).value == pytest.approx(
                    v0 * math.exp(-rate * (d - d0)), rel=1e-12)

    def test_raw_values_not_clamped(self):
        # two-term EDF at d=0 sums two near-1 prefactors
        sc = scenario(0.9, 10, 10)
        got = martingale_delay_bound(sc, SchedulerSpec.edf(0.0, 0.05), 0.0)
        assert got.value > 1.0

    def test_negative_d_rejected(self):
        with pytest.raises(InvalidParamsError):
            martingale_delay_bound(scenario(), SchedulerSpec.fifo(), -0.1)

    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_non_finite_d_rejected(self, d):
        with pytest.raises(InvalidParamsError, match="finite"):
            martingale_delay_bound(scenario(), SchedulerSpec.fifo(), d)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParamsError, match="unknown scheduler kind 'wfq'"):
            SchedulerSpec("wfq")


class TestGps:
    def test_gps_closed_form(self):
        sc = scenario()
        consts = gps_constants(sc, 0.5)
        # n1=n2 and phi1=1/2 reduce the GPS system to the same utilization
        assert consts.gamma == pytest.approx(martingale_constants(sc).gamma, rel=1e-12)
        got = martingale_delay_bound(sc, SchedulerSpec.gps(0.5), 5.0)
        # the reduced system holds only the n1 = 5 through flows
        expect = consts.K**5 * math.exp(-consts.gamma * 0.5 * sc.capacity * 5.0)
        assert got.value == pytest.approx(expect, rel=1e-12)

    def test_unstable_weight_rejected(self):
        sc = scenario(0.9)
        with pytest.raises(GpsInfeasibleError):
            martingale_delay_bound(sc, SchedulerSpec.gps(0.05), 1.0)

    def test_trivial_weight_rejected(self):
        sc = Scenario.from_utilization(1, 9, 0.75, BASE_SOURCE)
        with pytest.raises(TrivialScenarioError):
            martingale_delay_bound(sc, SchedulerSpec.gps(0.9), 1.0)

    def test_weight_validation(self):
        with pytest.raises(InvalidParamsError):
            SchedulerSpec.gps(1.0)


def decay_rate(sc: Scenario, sched: SchedulerSpec) -> float:
    """Decay rate in d, measured as log(v(d)/v(d+1)) at d = 40, far beyond
    EDF's gap, where a second EDF term has decayed below rounding."""
    v = martingale_delay_bound(sc, sched, 40.0).value
    return math.log(v / martingale_delay_bound(sc, sched, 41.0).value)


class TestDecayRates:
    def test_table_of_rates(self):
        sc = scenario()
        g = martingale_constants(sc).gamma
        assert decay_rate(sc, SchedulerSpec.fifo()) == pytest.approx(3 / 7, rel=1e-12)
        assert decay_rate(sc, SchedulerSpec.sp()) == pytest.approx(3 / 14, rel=1e-12)
        for deadlines in ((10.0, 1.0), (1.0, 10.0), (2.0, 2.0)):
            assert decay_rate(sc, SchedulerSpec.edf(*deadlines)) == \
                pytest.approx(g * sc.capacity, rel=1e-12)

    def test_gps_rate(self):
        sc = scenario()
        consts = gps_constants(sc, 0.45)
        assert decay_rate(sc, SchedulerSpec.gps(0.45)) == pytest.approx(
            consts.gamma * 0.45 * sc.capacity, rel=1e-12)


TABLE_SCHEDULERS = (SchedulerSpec.fifo(), SchedulerSpec.sp(), SchedulerSpec.edf(10.0, 1.0),
                    SchedulerSpec.edf(1.0, 10.0), SchedulerSpec.edf(0.0, 5.0),
                    SchedulerSpec.gps(0.3), SchedulerSpec.gps(0.5), SchedulerSpec.gps(0.7))


class TestTermTable:
    """Both bound families read one term table; the martingale bound is each
    term's exponent at theta = gamma, where r_gamma = c."""

    @pytest.mark.parametrize("sched", TABLE_SCHEDULERS, ids=repr)
    def test_exponent_at_effective_bandwidth_of_gamma(self, sched):
        checked = 0
        for rho, n1, n2 in ((0.6, 5, 5), (0.75, 2, 8), (0.9, 8, 2), (0.75, 1, 9)):
            sc = scenario(rho, n1, n2)
            for d in (0.0, 0.7, 3.0, 12.0):
                try:
                    terms = _bound_terms(sc, sched, d)
                except (GpsInfeasibleError, TrivialScenarioError):
                    continue
                total = 0.0
                for t in terms:
                    r = effective_bandwidth_rate(t.consts.gamma, sc.params)
                    assert r == pytest.approx(t.c, rel=1e-12)
                    total += t.consts.K ** t.flows * math.exp(t.consts.gamma * (t.a + t.b * r))
                assert martingale_delay_bound(sc, sched, d).value == pytest.approx(
                    total, rel=1e-12)
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("sched", TABLE_SCHEDULERS, ids=repr)
    def test_coefficients_match_closed_form_exponents(self, sched):
        """(a, b) against the exponents written out, also on uneven splits.

        a + b*c cancels where n2 >> n1: its summands are about n/n1 times the
        sum, so two orders of the same operations differ by a few ulps of
        the summands, gamma*(|a| + |b|*c), not of the exponent.
        """
        worst = 0.0
        for rho, n1, n2, d in itertools.product((0.3, 0.75, 0.95), (1, 2, 5),
                                                (1, 10, 1000, 10_000), (0.0, 0.5, 3.0, 12.0)):
            sc = scenario(rho, n1, n2)
            try:
                terms = _bound_terms(sc, sched, d)
            except (GpsInfeasibleError, TrivialScenarioError):
                continue
            cap, c, y = sc.capacity, sc.per_flow_capacity, sched.d1_star - sched.d2_star
            if sched.kind == "gps":
                exponents = [-sched.phi1 * cap * d]
            elif sched.kind == "sp":
                exponents = [-(cap - n2 * c) * d]
            elif sched.kind == "edf" and y >= 0:
                exponents = [n2 * c * min(y, d) - cap * d]
            elif sched.kind == "edf":
                exponents = [(cap - n1 * c) * y - cap * d, -cap * d]
            else:
                exponents = [-cap * d]
            written, summands = 0.0, 0.0
            for t, exponent in zip(terms, exponents):
                written += t.consts.K ** t.flows * math.exp(t.consts.gamma * exponent)
                summands = max(summands, t.consts.gamma * (abs(t.a) + abs(t.b) * t.c))
            value = martingale_delay_bound(sc, sched, d).value
            if written < 1e-290:  # near or below the subnormals: no relative precision
                assert value < 1e-280
                continue
            move = abs(value / written - 1.0)
            assert move <= 1e-14 + 8 * sys.float_info.epsilon * summands, (rho, n1, n2, d)
            worst = max(worst, move)
        print(f"largest relative move against the written exponents: {worst:.3g}")

    @pytest.mark.parametrize("rho,n1,n2", [(0.75, 2, 8), (0.9, 8, 2), (0.6, 1, 99)])
    def test_fifo_and_sp_are_edf_limits(self, rho, n1, n2):
        # FIFO is EDF at deadline gap 0, SP at any finite gap of at least d
        sc = scenario(rho, n1, n2)
        for d in (0.0, 0.7, 3.0, 12.0):
            pairs = [(SchedulerSpec.fifo(), SchedulerSpec.edf(x, x)) for x in (0.0, 2.5, 40.0)]
            pairs += [(SchedulerSpec.sp(), SchedulerSpec.edf(g, 0.0)) for g in (d, 2 * d + 1, 1e6)]
            for sched, edf in pairs:
                got, want = _bound_terms(sc, sched, d), _bound_terms(sc, edf, d)
                assert len(got) == len(want) == 1
                for g, w in zip(got, want):
                    assert g.consts is w.consts
                    assert (g.flows, g.euler) == (w.flows, w.euler)
                    assert ([x.hex() for x in (g.a, g.b, g.c)]
                            == [x.hex() for x in (w.a, w.b, w.c)]), (sched, edf, d)

    def test_edf_10_1_at_ten_thousand_flows(self):
        # the gap factor exp(gamma C2 min(y, d)) alone overflows here;
        # the summed exponent does not
        sc = Scenario.from_utilization(5000, 5000, 0.75, BASE_SOURCE)
        vals = {d: martingale_delay_bound(sc, SchedulerSpec.edf(10.0, 1.0), d).value
                for d in (1.0, 2.0, 5.0, 10.0)}
        assert all(isinstance(v, float) and v >= 0.0 for v in vals.values())
        assert vals[2.0] > 0.0

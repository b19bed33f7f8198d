import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sncbounds import (
    DegenerateSourceError,
    EigenvectorError,
    InvalidParamsError,
    MarkovFluidSource,
    MmooParams,
    Scenario,
    TrivialScenarioError,
    UnstableScenarioError,
    aggregate_source,
    sample_path,
    stationary_distribution,
)
from sncbounds import traffic
from sncbounds.traffic import StatePath, packet_arrays, spawned_rng
from general_reference import dense_generator
import serial_reference

BASE_SOURCE = MmooParams(0.5, 0.1, 1.0)


class TestMmooParams:
    def test_base_source_derived(self):
        assert BASE_SOURCE.on_probability == pytest.approx(1 / 6, abs=1e-15)
        assert BASE_SOURCE.mean_rate == pytest.approx(1 / 6, abs=1e-15)

    def test_symmetric_rates_give_half(self):
        assert MmooParams(0.7, 0.7, 3.0).on_probability == pytest.approx(0.5)

    def test_direct_formula(self):
        src = MmooParams(0.3, 0.6, 2.0)
        assert src.on_probability == pytest.approx(2 / 3, rel=1e-14)
        assert src.mean_rate == pytest.approx(4 / 3, rel=1e-14)

    @pytest.mark.parametrize("lam,mu,peak", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_invalid_rates_rejected(self, lam, mu, peak):
        with pytest.raises(InvalidParamsError):
            MmooParams(lam, mu, peak)

    def test_json_round_trip(self):
        d = {"lambda": 0.5, "mu": 0.1, "peak": 1.0}
        assert MmooParams.from_json_dict(d) == BASE_SOURCE


class TestScenario:
    def test_derived_capacities(self):
        sc = Scenario.from_utilization(5, 5, 0.75, BASE_SOURCE)
        assert sc.per_flow_capacity == pytest.approx(2 / 9, rel=1e-14)
        assert sc.capacity == pytest.approx(20 / 9, rel=1e-14)
        assert sc.through_capacity == pytest.approx(10 / 9, rel=1e-14)
        assert sc.rho == pytest.approx(0.75, rel=1e-14)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableScenarioError):
            Scenario(2, 2, 0.1, BASE_SOURCE)

    def test_trivial_rejected(self):
        # peak <= c: the aggregate never backlogs the server
        for c in (1.0, 2.0):
            with pytest.raises(TrivialScenarioError):
                Scenario(1, 0, c, BASE_SOURCE)

    def test_bad_counts(self):
        with pytest.raises(InvalidParamsError):
            Scenario(0, 2, 0.5, BASE_SOURCE)

    @pytest.mark.parametrize("n1, n2", [(5.5, 5), (5.0, 5), (5, 2.5), (True, 5), (5, False),
                                        ("5", 5), (None, 5)],
                             ids=["5.5", "5.0", "n2-2.5", "True", "n2-False", "str", "None"])
    def test_non_integer_counts_rejected(self, n1, n2):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            Scenario(n1, n2, 0.25, BASE_SOURCE)

    def test_numpy_integer_counts_accepted(self):
        sc = Scenario(np.int64(5), np.int32(3), 0.25, BASE_SOURCE)
        assert sc == Scenario(5, 3, 0.25, BASE_SOURCE)

    def test_json_round_trip(self):
        doc = json.loads('{"lambda": 0.5, "mu": 0.1, "peak": 1.0, "n1": 5, "n2": 3, '
                         '"per_flow_capacity": 0.25}')
        assert Scenario.from_json_dict(doc) == Scenario(5, 3, 0.25, BASE_SOURCE)
        sc = Scenario.from_utilization(5, 3, 0.75, BASE_SOURCE)
        via_rho = Scenario.from_json_dict(
            {"lambda": 0.5, "mu": 0.1, "peak": 1.0, "n1": 5, "n2": 3, "rho": 0.75})
        assert via_rho.per_flow_capacity == pytest.approx(sc.per_flow_capacity)


def lumped_pair_generator(params: MmooParams) -> np.ndarray:
    """Oracle for n=2: product chain of two sources lumped by On-count."""
    lam, mu = params.lam, params.mu
    single = np.array([[-mu, mu], [lam, -lam]])
    prod = np.kron(single, np.eye(2)) + np.kron(np.eye(2), single)
    count = np.array([0, 1, 1, 2])  # On-count of product states (a,b)
    lumped = np.zeros((3, 3))
    for i in range(4):
        for j in range(4):
            if i != j:
                lumped[count[i], count[j]] += prod[i, j] / 2 if count[i] == 1 else prod[i, j]
    np.fill_diagonal(lumped, 0.0)
    np.fill_diagonal(lumped, -lumped.sum(axis=1))
    return lumped


class TestAggregateGenerator:
    def test_single_source_is_two_state(self):
        src = aggregate_source(1, BASE_SOURCE)
        assert src.up.tolist() == [0.1] and src.down.tolist() == [0.5]
        assert src.rates.tolist() == [0.0, 1.0]

    def test_two_source_rates(self):
        src = aggregate_source(2, BASE_SOURCE)
        assert src.up.tolist() == pytest.approx([0.2, 0.1])
        assert src.down.tolist() == pytest.approx([0.5, 1.0])

    def test_two_source_matches_lumped_product_chain(self):
        q = dense_generator(aggregate_source(2, MmooParams(0.4, 0.9, 1.5)))
        oracle = lumped_pair_generator(MmooParams(0.4, 0.9, 1.5))
        assert np.allclose(q, oracle, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7, 20])
    def test_rows_sum_to_zero(self, n):
        # the exit rate of state i is (n-i)*mu + i*lam
        q = dense_generator(aggregate_source(n, BASE_SOURCE))
        assert np.abs(q.sum(axis=1)).max() < 1e-12
        i = np.arange(n + 1)
        assert np.allclose(-np.diag(q), (n - i) * BASE_SOURCE.mu + i * BASE_SOURCE.lam,
                           rtol=1e-15, atol=0)

    def test_n_zero_rejected(self):
        with pytest.raises(InvalidParamsError):
            aggregate_source(0, BASE_SOURCE)


class TestStationaryDistribution:
    def test_binomial_up_to_twelve(self):
        p = BASE_SOURCE.on_probability
        for n in range(1, 13):
            src = aggregate_source(n, BASE_SOURCE)
            pi = stationary_distribution(src.up, src.down)
            ref = np.array([math.comb(n, i) * p**i * (1 - p)**(n - i)
                            for i in range(n + 1)])
            assert np.abs(pi - ref).max() < 1e-10

    @pytest.mark.parametrize("n", [50, 200])
    def test_binomial_tail_relative(self, n):
        # detailed balance in the log domain keeps tails far below 1e-16
        p = BASE_SOURCE.on_probability
        pi = aggregate_source(n, BASE_SOURCE).stationary
        i = np.arange(n + 1)
        log_ref = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                            for k in i]) + i * math.log(p) + (n - i) * math.log1p(-p)
        assert np.abs(pi / np.exp(log_ref) - 1).max() < 1e-11

    def test_underflow_raises_typed_error(self):
        # pi_1000 = 6**-1000 is far below the smallest double
        with pytest.raises(EigenvectorError, match="underflow"):
            aggregate_source(1000, BASE_SOURCE)

    def test_two_state(self):
        pi = stationary_distribution([0.1], [0.5])
        assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-14)

    def test_permutation_invariance(self):
        # reversing the state order swaps the roles of up and down
        src = aggregate_source(2, BASE_SOURCE)
        pi = stationary_distribution(src.up, src.down)
        rev = stationary_distribution(src.down[::-1], src.up[::-1])
        assert np.allclose(rev, pi[::-1], atol=1e-13)

    def test_reducible_rejected(self):
        # no transition between states 1 and 2 in either direction
        with pytest.raises(InvalidParamsError, match="> 0"):
            MarkovFluidSource([1.0, 0.0], [1.0, 0.0], [0.0, 1.0, 2.0])


class TestMarkovFluidSource:
    def test_aggregate_is_reversible(self):
        for n in (1, 4, 9):
            src = aggregate_source(n, BASE_SOURCE)
            assert src.n_states == n + 1
            assert src.mean_rate == pytest.approx(n * BASE_SOURCE.mean_rate, rel=1e-12)

    def test_non_reversible_rejected(self):
        # 1 -> 2 with no way back breaks detailed balance
        with pytest.raises(InvalidParamsError, match="> 0"):
            MarkovFluidSource([1.0, 1.0], [1.0, 0.0], [0.0, 1.0, 2.0])

    def test_arrays_read_only(self):
        src = aggregate_source(2, BASE_SOURCE)
        for arr in (src.up, src.down, src.rates, src.stationary):
            with pytest.raises(ValueError):
                arr[0] = 5.0

    def test_single_state_rejected(self):
        # a constant-rate source has no eigenstructure, so none is built
        with pytest.raises(DegenerateSourceError, match="single-state"):
            MarkovFluidSource([], [], [1.0])

    def test_bad_generator_rejected(self):
        with pytest.raises(InvalidParamsError, match="> 0"):
            MarkovFluidSource([-1.0], [1.0], [0.0, 1.0])
        with pytest.raises(InvalidParamsError, match="inconsistent"):
            MarkovFluidSource([1.0, 1.0], [1.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_generator_rejected(self, bad):
        with pytest.raises(InvalidParamsError, match="finite"):
            MarkovFluidSource([1.0], [bad], [0.0, 1.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParamsError, match="arrival rates must be >= 0"):
            MarkovFluidSource([1.0], [1.0], [0.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(InvalidParamsError, match="finite"):
            MarkovFluidSource([1.0], [1.0], [0.0, bad])


class TestSamplePath:
    def test_zero_horizon_rejected(self):
        with pytest.raises(InvalidParamsError):
            sample_path(BASE_SOURCE, 0.0, 1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(InvalidParamsError, match="finite"):
            sample_path(BASE_SOURCE, horizon, 1)

    def test_invariants(self):
        path = sample_path(BASE_SOURCE, 500.0, 42)
        assert (path.durations > 0).all()
        assert (np.diff(path.states) != 0).all()
        assert path.durations.sum() == pytest.approx(500.0, rel=1e-12)

    def test_long_run_on_fraction(self):
        horizon = 1e6
        path = sample_path(BASE_SOURCE, horizon, 2024)
        p = BASE_SOURCE.on_probability
        lam, mu = BASE_SOURCE.lam, BASE_SOURCE.mu
        # asymptotic variance of the On-time fraction of a 2-state chain
        se = math.sqrt(2 * p * (1 - p) / ((lam + mu) * horizon))
        frac = path.durations[path.states == 1].sum() / horizon
        assert abs(frac - p) < 3 * se

    def test_deterministic_given_seed(self):
        a = sample_path(BASE_SOURCE, 100.0, (5, 1))
        b = sample_path(BASE_SOURCE, 100.0, (5, 1))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.durations, b.durations)


CHAINS = {"on_off": BASE_SOURCE}


class TestBlockSampling:
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("h1,h2", [(300.0, 3e4), (1e4, 3e4)])
    def test_longer_horizon_extends_the_path(self, chain, h1, h2):
        src = CHAINS[chain]
        a = sample_path(src, h1, (8, 3))
        b = sample_path(src, h2, (8, 3))
        k = a.states.size
        assert b.states.size > k
        assert np.array_equal(a.states, b.states[:k])
        assert np.array_equal(a.durations[:-1], b.durations[:k - 1])
        assert a.durations[-1] <= b.durations[k - 1]

    def test_same_path_as_block_by_block(self):
        """One draw for all blocks gives the block-by-block path, bit for bit."""
        rng = np.random.default_rng(20261019)
        for k in range(300):
            lam, mu = 10.0 ** rng.uniform(-2, 1, 2)
            src = MmooParams(lam, mu, 1.0)
            horizon = 10.0 ** rng.uniform(-1, 4.5)
            got = sample_path(src, horizon, (k, 7))
            want = serial_reference.sample_path(src, horizon, (k, 7))
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.durations, want.durations)

    def test_same_path_when_the_first_draw_ends_short(self):
        # a horizon that one block covers on average: the first call draws
        # one block, and a path of more dwells than that needed a second
        per_time = 2.0 / (1.0 / BASE_SOURCE.mu + 1.0 / BASE_SOURCE.lam)
        horizon = 0.99 * traffic._BLOCK / per_time
        second = 0
        for seed in range(20):
            want = serial_reference.sample_path(BASE_SOURCE, horizon, seed)
            got = sample_path(BASE_SOURCE, horizon, seed)
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.durations, want.durations)
            second += want.states.size > traffic._BLOCK
        assert second > 0

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_mean_dwell_is_inverse_exit_rate(self, chain):
        src = CHAINS[chain]
        path = sample_path(src, 2e5, 77)
        states, dwells = path.states[:-1], path.durations[:-1]  # last is truncated
        for i, rate in enumerate((src.mu, src.lam)):
            mine = dwells[states == i]
            se = 1.0 / rate / math.sqrt(mine.size)
            assert abs(mine.mean() - 1.0 / rate) < 3 * se, (i, mine.size)

    @pytest.mark.parametrize("replication", [0, 1, 2])
    def test_desk_horizon_yields_enough_through_packets(self, replication):
        from sncbounds.sim import SimConfig, _flat_arrivals

        sc = Scenario.from_utilization(5, 5, 0.75, BASE_SOURCE)
        cfg = SimConfig(measured_packets=100_000, warmup_packets=10_000, replications=1,
                        master_seed=20240810)
        need = cfg.warmup_packets + cfg.measured_packets
        _, _, through = _flat_arrivals(sc, cfg, replication)
        assert need <= through <= 1.10 * need


class TestPacketize:
    def test_half_packet_dwell(self):
        path = StatePath(np.array([1]), np.array([3.5]))
        times, sizes = packet_arrays(path, 1.0)
        assert times.tolist() == [1.0, 2.0, 3.0, 3.5]
        assert sizes.tolist() == [1.0, 1.0, 1.0, 0.5]

    def test_off_dwell_emits_nothing(self):
        path = StatePath(np.array([0]), np.array([4.0]))
        times, sizes = packet_arrays(path, 1.0)
        assert times.size == sizes.size == 0

    def test_integer_dwell_no_fraction(self):
        path = StatePath(np.array([1]), np.array([2.0]))
        times, sizes = packet_arrays(path, 1.0)
        assert times.tolist() == [1.0, 2.0]
        assert sizes.tolist() == [1.0, 1.0]

    def test_volume_conservation_and_ordering(self):
        src = MmooParams(0.7, 0.3, 1.7)
        path = sample_path(src, 2000.0, 11)
        times, sizes = packet_arrays(path, src.peak)
        on_time = path.durations[path.states == 1].sum()
        assert sizes.sum() == pytest.approx(src.peak * on_time, rel=1e-12)
        assert (np.diff(times) > 0).all()
        assert sizes.min() > 0 and sizes.max() <= 1.0

    def test_non_binary_path_rejected(self):
        path = StatePath(np.array([2]), np.array([1.0]))
        with pytest.raises(InvalidParamsError, match="packet_arrays"):
            packet_arrays(path, 1.0)

    @pytest.mark.parametrize("states", [[1, 1], [0, 0], [0, 1, 1, 0], [1, 0, 1, 0, 0]])
    def test_path_that_does_not_alternate_rejected(self, states):
        path = StatePath(np.array(states), np.ones(len(states)))
        with pytest.raises(InvalidParamsError, match="alternate"):
            packet_arrays(path, 1.0)

    @pytest.mark.parametrize("states, durations", [
        ([], []),                                   # empty path
        ([1], [2.75]),                              # one dwell, On
        ([0], [2.75]),                              # one dwell, Off
        ([1, 0, 1, 0, 1], [0.0, 3.0, 0.0, 1.0, 0.0]),  # zero-length On-dwells
        ([0, 1, 0, 1], [1.5, 0.0, 2.0, 0.0]),
    ])
    @pytest.mark.parametrize("peak", [1.0, 0.37])
    def test_edge_paths_same_as_sorted_concatenation(self, states, durations, peak):
        path = StatePath(np.array(states, dtype=np.int64), np.array(durations, dtype=float))
        times, sizes = packet_arrays(path, peak)
        want_times, want_sizes = serial_reference.packet_arrays(path, peak)
        assert np.array_equal(times, want_times)
        assert np.array_equal(sizes, want_sizes)

    @pytest.mark.parametrize("on, peak", [(2.5e-16, 1e16), (29 / 0.37, 0.37)])
    def test_colliding_fraction_dropped_as_by_sort(self, on, peak):
        # at P = 1e16, k/P is below an ulp of the dwell start 50, so every
        # packet of the dwell has the time 50; at P = 0.37, P*(29/P) rounds
        # above 29, and the fraction's time equals the last unit packet's
        path = StatePath(np.array([0, 1, 0]), np.array([50.0, on, 5.0]))
        times, sizes = packet_arrays(path, peak)
        want = serial_reference.packet_arrays(path, peak)
        assert np.array_equal(times, want[0]) and np.array_equal(sizes, want[1])
        assert sizes.sum() < peak * on and (sizes == 1.0).all()

    @pytest.mark.parametrize("peak", [1.0, 0.37, 3.3, 1e16])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_as_sorted_concatenation(self, peak, data):
        """Equal, bit for bit, to sorting the unit then the fractional packets.

        On-dwells hold up to 60 packets at every peak, as whole or real
        multiples of 1/P.  Off-dwells are long against an ulp of the times,
        as in sampled paths, so no dwell's packets reach the next dwell's.
        """
        first_on = data.draw(st.booleans())
        n = data.draw(st.integers(0, 30))
        on = st.one_of(st.integers(0, 60).map(float), st.floats(0.0, 60.0))
        off = st.floats(0.5, 100.0)
        states = (np.arange(n) + first_on) % 2
        durations = np.array([data.draw(on) / peak if z else data.draw(off)
                              for z in states])
        path = StatePath(states, durations)
        times, sizes = packet_arrays(path, peak)
        want_times, want_sizes = serial_reference.packet_arrays(path, peak)
        assert np.array_equal(times, want_times)
        assert np.array_equal(sizes, want_sizes)


class TestRngContract:
    def test_spawn_keys_are_independent_streams(self):
        a = spawned_rng(9, 0).standard_normal(4)
        b = spawned_rng(9, 1).standard_normal(4)
        a2 = spawned_rng(9, 0).standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)

"""The stable-sort merge and the lane tables against the search-based oracle.

``serial_reference.merge`` finds each packet's merged index by a binary
search in the other flow, and ``serial_reference.lane_tables`` finds each
lane's slices by a search over the through packets' merged indices.  The
simulator's ``_merge`` must give the same through packets and FIFO
departures, bit for bit.  Its ``_lanes`` must keep exactly the oracle's
busy-period bounds that pass the rounding test, with tables equal to those
lookups, and the scalar loop run over the whole sample path must be idle at
every bound it keeps.
"""

import numpy as np
import pytest

import sncbounds.sim as sim
from sncbounds import MmooParams, Scenario, SchedulerSpec, SimConfig
import serial_reference as ref
from serve_flows import busy_periods, near_ties

SOURCE = MmooParams(0.5, 0.1, 1.0)
GENERATED = [("small", 0, 0.75), ("small", 1, 0.95), ("small", 5, 0.5), ("desk", 0, 0.75)]
LOOP_DISCIPLINES = {"sp": SchedulerSpec.sp(), "edf_1_10": SchedulerSpec.edf(1.0, 10.0),
                    "gps_0.5": SchedulerSpec.gps(0.5)}


def assert_same_as_reference(tt, ts, ct, cs, cap):
    T, S, nt = np.concatenate([tt, ct]), np.concatenate([ts, cs]), tt.size
    through, fifo, t = sim._merge(T, S, nt, cap)
    bounds, before = sim._lanes(t, through, fifo)
    want_pos, want_fifo, want_bounds = ref.merge(T, S, nt, cap, busy_periods)
    assert np.array_equal(np.flatnonzero(through), want_pos)
    assert np.array_equal(fifo, want_fifo)
    # bound 0 stays, and every other one whose first arrival t, scaled by
    # 1 - 4(N + 3) eps with N packets, exceeds the FIFO departure before it
    _, _, first = ref.lane_tables(T, want_pos, want_bounds)
    k = want_bounds[1:]
    shrink = 1.0 - 4.0 * np.finfo(float).eps * (T.size + 3)
    kept = np.concatenate([[0], k[first[1:] * shrink > want_fifo[k - 1]]])
    assert np.array_equal(bounds, kept)
    lo_t, lo_c, _ = ref.lane_tables(T, want_pos, kept)
    assert np.array_equal(before, lo_t)
    assert np.array_equal(nt + bounds - before, lo_c)


def generated(size, seed, rho=0.75):
    warmup, measured = {"small": (200, 2000), "desk": (10_000, 100_000)}[size]
    cfg = SimConfig(measured_packets=measured, warmup_packets=warmup,
                    replications=1, master_seed=seed)
    sc = Scenario.from_utilization(5, 5, rho, SOURCE)
    T, S, nt = sim._flat_arrivals(sc, cfg, 0)
    return T[:nt], S[:nt], T[nt:], S[nt:], sc.capacity


@pytest.mark.parametrize("size, seed, rho", GENERATED)
def test_generated_traffic(size, seed, rho):
    assert_same_as_reference(*generated(size, seed, rho))


def assert_loop_idle_at_kept_bounds(name, tt, ts, ct, cs, cap):
    """Every packet ahead of a kept bound departs, in the scalar loop run over
    the whole sample path, before the bound's first arrival."""
    sched = LOOP_DISCIPLINES[name]
    T, S, nt = np.concatenate([tt, ct]), np.concatenate([ts, cs]), tt.size
    through, fifo, t = sim._merge(T, S, nt, cap)
    bounds, _ = sim._lanes(t, through, fifo)
    dep_t, dep_c, _ = ref._serve_loop(sched.kind, tt, ts, ct, cs, cap, nt, d1=sched.d1_star,
                                      d2=sched.d2_star, phi1=sched.phi1, drain=True)
    dep = np.empty(T.size)  # in merged order
    dep[through], dep[~through] = dep_t, dep_c
    done = np.maximum.accumulate(dep)
    k = bounds[1:]
    assert k.size > 1 and (done[k - 1] < t[k]).all()


@pytest.mark.parametrize("name", sorted(LOOP_DISCIPLINES))
@pytest.mark.parametrize("size, seed, rho", GENERATED)
def test_scalar_loop_idle_at_every_kept_bound(size, seed, rho, name):
    assert_loop_idle_at_kept_bounds(name, *generated(size, seed, rho))


def _arrays(*values):
    return tuple(np.array(v, dtype=float) for v in values)


class TestHandBuilt:
    def test_simultaneous_arrivals_of_both_flows(self):
        # ties within and across flows: the through packets go first
        tt, ts, ct, cs = _arrays([1.0, 1.0, 1.5, 3.0], [1.0, 0.5, 1.0, 0.25],
                                 [1.0, 1.0, 1.5, 3.0], [0.25, 1.0, 1.0, 0.5])
        assert_same_as_reference(tt, ts, ct, cs, 1.0)

    def test_arrival_at_a_departure_instant(self):
        # C = 1: the first packet departs at exactly 2.0, when one packet of
        # each flow arrives; a later one arrives exactly when the queue drains
        tt, ts, ct, cs = _arrays([1.0, 2.0, 4.0], [1.0, 1.0, 0.5],
                                 [2.0, 5.5], [1.0, 0.25])
        assert_same_as_reference(tt, ts, ct, cs, 1.0)

    @pytest.mark.parametrize("flow", ["through", "cross"])
    def test_one_flow_empty(self, flow):
        rng = np.random.default_rng(3)
        t, s, empty = np.cumsum(rng.exponential(0.6, 300)), rng.uniform(0.1, 1, 300), np.empty(0)
        args = (t, s, empty, empty) if flow == "through" else (empty, empty, t, s)
        assert_same_as_reference(*args, 1.0)

    def test_no_packets(self):
        empty = np.empty(0)
        through, fifo, t = sim._merge(empty, empty, 0, 1.0)
        assert through.size == fifo.size == 0
        assert [tab.tolist() for tab in sim._lanes(t, through, fifo)] == [[0], [0]]


@pytest.mark.parametrize("size, seed", [("small", 0), ("small", 1)])
def test_split_everywhere(size, seed):
    """Most idle gaps inside the rounding: the tables keep those that pass the test."""
    assert_same_as_reference(*near_ties(*generated(size, seed), seed))


@pytest.mark.parametrize("name", sorted(LOOP_DISCIPLINES))
@pytest.mark.parametrize("size, seed", [("small", 0), ("small", 1)])
def test_split_everywhere_keeps_only_idle_bounds(size, seed, name):
    """Most idle gaps inside the rounding: the kept bounds are still idle in the loop."""
    assert_loop_idle_at_kept_bounds(name, *near_ties(*generated(size, seed), seed))

"""The stable-sort merge and the per-bound tables against the search-based oracle.

``serial_reference.merge`` finds each packet's merged index by a binary
search in the other flow, and ``serial_reference.lane_tables`` finds each
lane's slices by a search over the through packets' merged indices.  The
simulator's ``_merge`` must give the same through packets and FIFO
departures, and its ``_lanes`` the same busy-period bounds, bit for bit,
and per-bound tables equal to those lookups.
"""

import numpy as np
import pytest

import sncbounds.sim as sim
from sncbounds import MmooParams, Scenario, SimConfig
import serial_reference as ref

SOURCE = MmooParams(0.5, 0.1, 1.0)


def assert_same_as_reference(tt, ts, ct, cs, cap):
    T, S, nt = np.concatenate([tt, ct]), np.concatenate([ts, cs]), tt.size
    through, fifo, t = sim._merge(T, S, nt, cap)
    tables = sim._lanes(t, through, fifo)
    bounds, before, first, _ = tables
    want_pos, want_fifo, want_bounds = ref.merge(T, S, nt, cap, sim._busy_periods)
    assert np.array_equal(np.flatnonzero(through), want_pos)
    assert np.array_equal(fifo, want_fifo)
    assert np.array_equal(bounds, want_bounds)
    lo_t, lo_c, want_first = ref.lane_tables(T, want_pos, want_bounds)
    assert np.array_equal(before, lo_t)
    assert np.array_equal(nt + bounds - before, lo_c)
    assert np.array_equal(first, want_first)
    assert first[-1] == np.inf
    # the first bound has nothing before it; the others are idle by a margin
    idle = np.array([sim._idle(tables, i) for i in range(bounds.size)])
    assert idle[0] and not idle[-1]
    gap = first[1:-1] - fifo[bounds[1:-1] - 1]
    assert (gap[idle[1:-1]] > 0).all()


def generated(size, seed, rho=0.75):
    warmup, measured = {"small": (200, 2000), "desk": (10_000, 100_000)}[size]
    cfg = SimConfig(measured_packets=measured, warmup_packets=warmup,
                    replications=1, master_seed=seed)
    sc = Scenario.from_utilization(5, 5, rho, SOURCE)
    T, S, nt = sim._flat_arrivals(sc, cfg, 0)
    return T[:nt], S[:nt], T[nt:], S[nt:], sc.capacity


@pytest.mark.parametrize("size, seed, rho", [("small", 0, 0.75), ("small", 1, 0.95),
                                             ("small", 5, 0.5), ("desk", 0, 0.75)])
def test_generated_traffic(size, seed, rho):
    assert_same_as_reference(*generated(size, seed, rho))


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
        tables = sim._lanes(t, through, fifo)
        assert [tab.tolist() for tab in tables[:3]] == [[0], [0], [np.inf]]
        assert sim._idle(tables, 0)


@pytest.mark.parametrize("size, seed", [("small", 0), ("small", 1)])
def test_split_everywhere(monkeypatch, size, seed):
    """Every packet its own lane: the tables hold one entry per packet."""
    monkeypatch.setattr(sim, "_busy_periods", lambda t, fifo: np.arange(t.size))
    assert_same_as_reference(*generated(size, seed))

"""The busy-period service kernel against the original scalar loop.

``serial_reference._serve_loop`` is the one-packet-per-iteration loop the
simulator used before busy periods were served in lockstep.  The kernel must
reproduce its departures of both flows exactly, on every packet the loop
served (the kernel serves the rest of the busy period where the loop stopped).
The simulator's backlog, taken from the FIFO workload, must equal the bits
arrived minus the bits the loop served, at every through departure.

The kernels have no FIFO rule of their own: FIFO's selection is EDF with
equal deadlines, so they serve the ``fifo`` case as EDF(0, 0), and the loop
serves it with its own FIFO rule.
"""

import numpy as np
import pytest

import sncbounds.sim as sim
from sncbounds import MmooParams, Scenario, SchedulerSpec, SimConfig
from serial_reference import _serve_loop as reference
from serve_flows import busy_periods, flow_arrivals, near_ties, serve_flows

SOURCE = MmooParams(0.5, 0.1, 1.0)
DISCIPLINES = {
    "fifo": SchedulerSpec.edf(0.0, 0.0),
    "sp": SchedulerSpec.sp(),
    "edf_10_1": SchedulerSpec.edf(10.0, 1.0),
    "edf_1_10": SchedulerSpec.edf(1.0, 10.0),
    "gps_0.3": SchedulerSpec.gps(0.3),
    "gps_0.5": SchedulerSpec.gps(0.5),
}
REFERENCE_KIND = {"fifo": "fifo"}  # the loop's rule where it differs from the kernel's
SIZES = {"small": (200, 2000), "desk": (10_000, 100_000)}


def assert_same_as_reference(name, tt, ts, ct, cs, cap, need):
    """Kernel output equals the loop's; ``need`` None serves everything.

    ``name`` is a key of ``DISCIPLINES`` or a ``SchedulerSpec``.
    """
    sched = DISCIPLINES.get(name, name)
    drain = need is None
    want = reference(REFERENCE_KIND.get(name, sched.kind), tt, ts, ct, cs, cap,
                     tt.size if drain else need, d1=sched.d1_star, d2=sched.d2_star,
                     phi1=sched.phi1, drain=drain)
    got = serve_flows(sched, tt, ts, ct, cs, cap, need)
    for dep, loop_dep in zip(got, want[:2]):
        served = ~np.isnan(loop_dep)
        assert np.array_equal(dep[served], loop_dep[served])


@pytest.fixture(scope="module")
def arrivals():
    cache = {}

    def get(size, seed):
        if (size, seed) not in cache:
            warmup, measured = SIZES[size]
            cfg = SimConfig(measured_packets=measured, warmup_packets=warmup,
                            replications=1, master_seed=seed)
            sc = Scenario.from_utilization(5, 5, 0.75, SOURCE)
            (tt, ts), (ct, cs) = flow_arrivals(sc, cfg, 0)
            cache[size, seed] = (tt, ts, ct, cs, sc.capacity, warmup + measured)
        return cache[size, seed]

    return get


# The small size reaches every kernel branch; the desk size adds lockstep
# calls over more than ``_LOCKSTEP_LANES`` lanes, which one seed covers.
@pytest.mark.parametrize("drain", [False, True])
@pytest.mark.parametrize("name", sorted(DISCIPLINES))
@pytest.mark.parametrize("size, seed", [("small", 0), ("small", 1), ("small", 5), ("desk", 0)])
def test_generated_traffic(arrivals, size, seed, name, drain):
    tt, ts, ct, cs, cap, need = arrivals(size, seed)
    assert_same_as_reference(name, tt, ts, ct, cs, cap, None if drain else need)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
@pytest.mark.parametrize("size, seed", [("small", 0), ("small", 1), ("small", 5), ("desk", 0)])
def test_backlog_from_fifo_workload(arrivals, size, seed, name):
    """``simulate``'s backlog is the arrived minus the served bits of the loop."""
    tt, ts, ct, cs, cap, need = arrivals(size, seed)
    sched = DISCIPLINES[name]
    dep, _, served_bits = reference(REFERENCE_KIND.get(name, sched.kind), tt, ts, ct, cs,
                                    cap, need, d1=sched.d1_star, d2=sched.d2_star,
                                    phi1=sched.phi1)
    dep, served_bits = dep[:need], served_bits[:need]
    T, S = np.concatenate([tt, ct]), np.concatenate([ts, cs])
    _, fifo, _ = sim._merge(T, S, tt.size, cap)
    idx = np.searchsorted(tt, dep, side="right") + np.searchsorted(ct, dep, side="right")
    arrived = np.cumsum(S[np.argsort(T, kind="stable")])[idx - 1]
    backlog = cap * np.maximum(fifo[idx - 1] - dep, 0.0)
    assert np.abs(backlog - (arrived - served_bits)).max() <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_backlog_one_search_equals_per_flow_count(seed):
    """``_backlog`` searches each flow once: the count of arrivals up to a
    departure equals a direct count over both flows, bit for bit.

    Arrivals on a quarter grid tie within and across the flows, and the
    sample instants include every arrival instant and FIFO departure.
    """
    rng = np.random.default_rng(seed)
    tt = np.sort(rng.integers(0, 400, 300)) / 4.0
    ct = np.sort(rng.integers(0, 400, 200)) / 4.0
    T = np.concatenate([tt, ct])
    S = rng.uniform(0.1, 1.0, T.size)
    _, fifo, t = sim._merge(T, S, tt.size, 1.9)
    dep = np.concatenate([T, fifo, rng.uniform(t[0], fifo[-1] + 1.0, 100)])
    got = sim._backlog(T, tt.size, fifo, dep, 1.9)
    idx = np.array([(tt <= x).sum() + (ct <= x).sum() for x in dep])
    want = 1.9 * np.maximum(fifo[idx - 1] - dep, 0.0)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    assert (got > 0).any() and (got == 0).any()


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_lane_longer_than_a_16_bit_sort_key(monkeypatch, name):
    """A busy period of 2**15 + 2 packets: the lanes sort on a wider key.

    It is still the longest, so the one scalar lane; the short lanes after
    it, of 1 to 6 packets, go through lockstep, except the last.
    """
    loop, sizes = sim._serve_loop, []

    def spy(sched, tt, ts, ct, cs, cap):
        sizes.append(tt.size + ct.size)
        return loop(sched, tt, ts, ct, cs, cap)

    monkeypatch.setattr(sim, "_serve_loop", spy)
    monkeypatch.setattr(sim, "_SCALAR_LANES", 1)
    long = np.arange(2**15 + 2) * 0.5  # unit packets at twice the rate C = 1
    starts = 40_000.0 + 10.0 * np.arange(300)
    tt = np.concatenate([long] + [s + 0.1 * np.arange(i % 4 + 1) for i, s in enumerate(starts)])
    ct = np.concatenate([s + 0.05 + 0.1 * np.arange(i % 3) for i, s in enumerate(starts)])
    ts = np.concatenate([np.ones(long.size), np.full(tt.size - long.size, 0.5)])
    cs = np.full(ct.size, 0.5)
    assert_same_as_reference(name, tt, ts, ct, cs, 1.0, None)
    assert sizes == [long.size, 299 % 4 + 1 + 299 % 3]


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_lockstep_only_and_scalar_only(arrivals, monkeypatch, name):
    tt, ts, ct, cs, cap, need = arrivals("small", 1)
    for lanes in (0, 10**9):
        monkeypatch.setattr(sim, "_SCALAR_LANES", lanes)
        assert_same_as_reference(name, tt, ts, ct, cs, cap, need)
        assert_same_as_reference(name, tt, ts, ct, cs, cap, None)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_many_lockstep_groups(arrivals, monkeypatch, name):
    tt, ts, ct, cs, cap, need = arrivals("small", 5)
    monkeypatch.setattr(sim, "_LOCKSTEP_LANES", 3)
    monkeypatch.setattr(sim, "_SCALAR_LANES", 2)
    assert_same_as_reference(name, tt, ts, ct, cs, cap, need)
    assert_same_as_reference(name, tt, ts, ct, cs, cap, None)


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_split_everywhere_is_merged_back(arrivals, monkeypatch, name):
    """Most idle gaps inside the rounding: the busy periods ``_lanes`` joins
    into one lane are served as the loop serves them."""
    tt, ts, ct, cs, cap, need = arrivals("small", 0)
    tt, ts, ct, cs, cap = near_ties(tt, ts, ct, cs, cap, 0)
    monkeypatch.setattr(sim, "_SCALAR_LANES", 0)
    assert_same_as_reference(name, tt, ts, ct, cs, cap, need)
    assert_same_as_reference(name, tt, ts, ct, cs, cap, None)


def _arrays(*values):
    return tuple(np.array(v, dtype=float) for v in values)


@pytest.fixture(params=["lockstep", "loop"])
def path(request, monkeypatch):
    """Serve hand-built inputs, which have few busy periods, both ways."""
    monkeypatch.setattr(sim, "_SCALAR_LANES", 0 if request.param == "lockstep" else 10**9)


@pytest.mark.usefixtures("path")
@pytest.mark.parametrize("name", sorted(DISCIPLINES))
class TestHandBuilt:
    def test_arrival_at_a_departure_instant(self, name):
        # C = 1: the first packet departs at exactly 2.0, when one packet of
        # each flow arrives; a later one arrives exactly when the queue drains
        tt, ts, ct, cs = _arrays([1.0, 2.0, 4.0], [1.0, 1.0, 0.5],
                                 [2.0, 5.5], [1.0, 0.25])
        assert_same_as_reference(name, tt, ts, ct, cs, 1.0, None)
        assert_same_as_reference(name, tt, ts, ct, cs, 1.0, 2)

    def test_busy_periods_of_one_packet(self, name):
        tt, ts, ct, cs = _arrays([1.0, 5.0, 9.0], [0.5, 1.0, 0.25],
                                 [3.0, 7.0], [1.0, 0.75])
        assert_same_as_reference(name, tt, ts, ct, cs, 2.0, None)
        assert_same_as_reference(name, tt, ts, ct, cs, 2.0, 2)

    def test_simultaneous_arrivals(self, name):
        tt, ts, ct, cs = _arrays([1.0, 1.0, 1.5], [1.0, 0.5, 1.0],
                                 [1.0, 1.0, 1.5], [0.25, 1.0, 1.0])
        assert_same_as_reference(name, tt, ts, ct, cs, 1.0, None)

    def test_only_through_packets(self, name):
        rng = np.random.default_rng(3)
        tt = np.cumsum(rng.exponential(0.6, 500))
        ts = rng.uniform(0.1, 1.0, 500)
        empty = np.empty(0)
        assert_same_as_reference(name, tt, ts, empty, empty, 1.0, None)
        assert_same_as_reference(name, tt, ts, empty, empty, 1.0, 400)

    def test_desk_arrivals_without_cross_traffic(self, name):
        cfg = SimConfig(measured_packets=2000, warmup_packets=200, replications=1,
                        master_seed=2)
        sc = Scenario.from_utilization(5, 0, 0.75, SOURCE)
        (tt, ts), (ct, cs) = flow_arrivals(sc, cfg, 0)
        assert ct.size == 0
        assert_same_as_reference(name, tt, ts, ct, cs, sc.capacity, 2200)


@pytest.mark.usefixtures("path")
@pytest.mark.parametrize("d1,d2", [(2.0, 2.0), (10.0, 1.0), (1.0, 10.0)])
def test_edf_deadline_ties(d1, d2):
    # a long first packet keeps both queues waiting; the later heads have
    # equal deadlines, with equal and with different arrival times
    tt, ts, ct, cs = _arrays([0.0, 1.0, 1.0 + d2, 12.0], [10.0, 1.0, 1.0, 1.0],
                             [1.0, 1.0 + d1, 12.0], [1.0, 1.0, 0.5])
    assert_same_as_reference(SchedulerSpec.edf(d1, d2), tt, ts, ct, cs, 1.0, None)


@pytest.mark.usefixtures("path")
def test_wfq_equal_tags_serve_the_through_packet_first():
    # C = 1, phi1 = 0.5: V runs at rate 2 behind the first through packet,
    # so at t = 0.5 the through and cross arrivals both get finish tag 3.0
    tt, ts, ct, cs = _arrays([0.0, 0.5], [1.0, 0.5], [0.5], [1.0])
    assert_same_as_reference(SchedulerSpec.gps(0.5), tt, ts, ct, cs, 1.0, None)
    dep_t, dep_c = serve_flows(SchedulerSpec.gps(0.5), tt, ts, ct, cs, 1.0)
    assert dep_t.tolist() == [1.0, 1.5] and dep_c.tolist() == [2.5]


@pytest.mark.usefixtures("path")
@pytest.mark.parametrize("phi1", [0.1, 0.5, 0.9])
def test_wfq_arrivals_inside_and_at_a_departure(phi1):
    # C = 1: while the first packet is served on [0, 1], one packet of each
    # flow arrives strictly inside and a cross packet exactly at 1.0; the
    # through packet at 1.2 arrives inside the next service, so one lockstep
    # step tags it, processes that departure and selects the next packet
    tt, ts, ct, cs = _arrays([0.0, 0.5, 1.2], [1.0, 1.0, 0.5],
                             [0.25, 1.0], [0.5, 0.5])
    assert_same_as_reference(SchedulerSpec.gps(phi1), tt, ts, ct, cs, 1.0, None)
    assert_same_as_reference(SchedulerSpec.gps(phi1), tt, ts, ct, cs, 1.0, 2)


@pytest.mark.usefixtures("path")
def test_wfq_departure_before_arrivals_when_the_system_drains():
    # C = 1, phi1 = 0.5: the system drains at 2.5, when one packet of each
    # flow arrives.  Departure first resets V (2.5) and the finish trackers
    # (through 3.0, cross 1.0), so both arrivals get tag 1.0 and the through
    # packet goes first; arrivals first would tag them 4.0 and 3.5
    tt, ts, ct, cs = _arrays([0.75, 1.0, 2.5], [1.0, 0.5, 0.5], [1.0, 2.5], [0.25, 0.5])
    assert_same_as_reference(SchedulerSpec.gps(0.5), tt, ts, ct, cs, 1.0, None)
    dep_t, dep_c = serve_flows(SchedulerSpec.gps(0.5), tt, ts, ct, cs, 1.0)
    assert dep_t.tolist() == [1.75, 2.5, 3.0] and dep_c.tolist() == [2.0, 3.5]


@pytest.mark.usefixtures("path")
@pytest.mark.parametrize("phi1", [0.1, 0.9])
def test_wfq_uneven_weights(arrivals, phi1):
    tt, ts, ct, cs, cap, need = arrivals("small", 1)
    assert_same_as_reference(SchedulerSpec.gps(phi1), tt, ts, ct, cs, cap, need)
    assert_same_as_reference(SchedulerSpec.gps(phi1), tt, ts, ct, cs, cap, None)


# Service from the busy period of the first measured through packet on, as
# ``simulate`` serves: the served packets are the loop's over the whole run,
# and the busy periods below are skipped.
@pytest.mark.parametrize("name", sorted(DISCIPLINES))
@pytest.mark.parametrize("size, seed", [("small", 0), ("small", 1), ("small", 5), ("desk", 0)])
def test_warm_up_offset(arrivals, size, seed, name):
    tt, ts, ct, cs, cap, need = arrivals(size, seed)
    warm = SIZES[size][0]
    sched = DISCIPLINES[name]
    want = reference(REFERENCE_KIND.get(name, sched.kind), tt, ts, ct, cs, cap, need,
                     d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1)
    got = serve_flows(sched, tt, ts, ct, cs, cap, need, warm)
    for dep, loop_dep in zip(got, want[:2]):
        served = ~np.isnan(dep)
        both = served & ~np.isnan(loop_dep)  # the loop stops at ``need``
        assert np.array_equal(dep[both], loop_dep[both])
        # served: one run, after the skipped busy periods at the start
        assert not served[0] and np.count_nonzero(np.diff(served)) <= 2
    assert not np.isnan(got[0][warm:need]).any()


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_warm_up_offset_in_each_lane_kind(arrivals, monkeypatch, name):
    tt, ts, ct, cs, cap, need = arrivals("small", 1)
    for lanes in (0, 10**9):
        monkeypatch.setattr(sim, "_SCALAR_LANES", lanes)
        sched = DISCIPLINES[name]
        want = reference(REFERENCE_KIND.get(name, sched.kind), tt, ts, ct, cs, cap, need,
                         d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1)
        got = serve_flows(sched, tt, ts, ct, cs, cap, need, 1000)
        for dep, loop_dep in zip(got, want[:2]):
            both = ~np.isnan(dep) & ~np.isnan(loop_dep)
            assert np.array_equal(dep[both], loop_dep[both])
        assert not np.isnan(got[0][1000:need]).any()


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_warm_up_bound_inside_the_rounding_is_served_from_below(name):
    # C = 3: four back-to-back through packets end at 627.4499999999999 by
    # the FIFO recursion and at 627.4500000000002 in the loop; the fifth
    # arrives at 627.45, idle to the recursion but busy to the loop
    tt = np.full(5, 626.66) + np.arange(5) * 1e-3
    tt[4] = 627.45
    ts = np.array([0.863, 0.389, 0.59, 0.528, 0.25])
    empty = np.empty(0)
    through, fifo, t = sim._merge(tt, ts, 5, 3.0)
    exact = busy_periods(t, fifo)  # idle to the recursion
    assert exact.tolist() == [0, 4, 5]
    assert [tab.tolist() for tab in sim._lanes(t, through, fifo)] == [[0, 5], [0, 5]]
    sched = DISCIPLINES[name]
    want, _, _ = reference(REFERENCE_KIND.get(name, sched.kind), tt, ts, empty, empty, 3.0,
                           5, d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1)
    got, _ = serve_flows(sched, tt, ts, empty, empty, 3.0, 5, 4)
    assert np.array_equal(got, want)  # served from the busy period below
    # a lane from the unfiltered bound would give the fifth packet another departure
    bad, _ = sim._serve(sched, tt, ts, 5, (exact, exact), 3.0, 5, 4)
    assert bad[4] != want[4]

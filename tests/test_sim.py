import json
import math

import numpy as np
import pytest

from sncbounds import (
    InvalidParamsError,
    MmooParams,
    Scenario,
    SchedulerSpec,
    SimConfig,
    martingale_delay_bound,
    martingale_mc_estimate,
    palm_prefactor,
    replicate,
    simulate,
)
from sncbounds.cli import main
from sncbounds.sim import (
    _flat_arrivals,
    _flag_window,
    _flow_arrivals,
    _instability_flag,
    _merge,
    _serve_flows,
)

BASE_SOURCE = MmooParams(0.5, 0.1, 1.0)
GRID = tuple(float(x) for x in range(1, 11))


def scenario(rho=0.75, n1=5, n2=5):
    return Scenario.from_utilization(n1, n2, rho, BASE_SOURCE)


def event_log(sc, sched, cfg, replication_index=0):
    """Arrival, size and departure of every packet of both flows, all served.

    The service kernels serve FIFO as EDF(0, 0), its selection rule bit for bit.
    """
    if sched.kind == "fifo":
        sched = SchedulerSpec.edf(0.0, 0.0)
    (tt, ts), (ct, cs) = _flow_arrivals(sc, cfg, replication_index)
    dep_t, dep_c = _serve_flows(sched.kind, tt, ts, ct, cs, sc.capacity,
                                d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1)
    return {
        "through": {"arrival": tt, "size": ts, "depart": dep_t},
        "cross": {"arrival": ct, "size": cs, "depart": dep_c},
        "capacity": sc.capacity,
    }


def small_cfg(**kw):
    base = dict(measured_packets=6000, warmup_packets=500, replications=2,
                delay_grid=GRID, master_seed=1234)
    base.update(kw)
    return SimConfig(**base)


class TestSimConfig:
    def test_warmup_must_be_smaller(self):
        with pytest.raises(InvalidParamsError):
            SimConfig(measured_packets=10, warmup_packets=10)

    def test_grid_validation(self):
        with pytest.raises(InvalidParamsError):
            SimConfig(delay_grid=())
        with pytest.raises(InvalidParamsError):
            SimConfig(delay_grid=(2.0, 1.0))
        with pytest.raises(InvalidParamsError):
            SimConfig(delay_grid=(-1.0, 1.0))
        with pytest.raises(InvalidParamsError):
            SimConfig(delay_grid=(1.0, math.inf))

    def test_defaults_match_protocol(self):
        cfg = SimConfig()
        assert cfg.measured_packets == 10_000_000
        assert cfg.warmup_packets == 1_000_000
        assert cfg.replications == 100


class TestSimulateBasics:
    def test_deterministic_per_seed(self):
        cfg = small_cfg()
        a = simulate(scenario(), SchedulerSpec.edf(10.0, 1.0), cfg, 0)
        b = simulate(scenario(), SchedulerSpec.edf(10.0, 1.0), cfg, 0)
        assert np.array_equal(a.ccdf, b.ccdf)
        c = simulate(scenario(), SchedulerSpec.edf(10.0, 1.0), cfg, 1)
        assert not np.array_equal(a.ccdf, c.ccdf)

    def test_sample_count_and_ccdf_shape(self):
        cfg = small_cfg()
        st = simulate(scenario(), SchedulerSpec.fifo(), cfg, 0)
        assert st.sample_count == cfg.measured_packets
        assert st.ccdf.shape == (len(GRID),)
        assert (np.diff(st.ccdf) <= 0).all()
        assert st.ccdf.min() >= 0 and st.ccdf.max() <= 1
        assert st.q25 <= st.q50 <= st.q75 <= st.q99

    def test_sp_equals_fifo_without_cross_traffic(self):
        cfg = small_cfg()
        sc = scenario(n1=5, n2=0)
        f = simulate(sc, SchedulerSpec.fifo(), cfg, 0)
        s = simulate(sc, SchedulerSpec.sp(), cfg, 0)
        assert np.array_equal(f.ccdf, s.ccdf)
        # FIFO takes the vectorized path, SP the sequential loop; identical
        # up to float association
        assert f.q50 == pytest.approx(s.q50, rel=1e-9)

    def test_trivial_single_source_no_queueing_beyond_service(self):
        # peak below capacity: unit packets never wait (delay exactly size/C);
        # a fractional dwell-end packet can arrive frac/P after its
        # predecessor, briefly waiting, but no delay ever exceeds one
        # full-packet service time 1/C.  Scenario rejects c >= peak, so the
        # arrivals of one source are served at C = 1.5 directly, in FIFO
        # order as EDF(0, 0)
        sc = Scenario(1, 0, 0.9, BASE_SOURCE)
        (tt, ts), (ct, cs) = _flow_arrivals(
            sc, small_cfg(measured_packets=2000, warmup_packets=0), 0)
        cap = 1.5
        dep, _ = _serve_flows("edf", tt, ts, ct, cs, cap, d1=0.0, d2=0.0)
        delays = dep - tt
        assert delays.max() <= 1.0 / cap + 1e-12
        unit = ts == 1.0
        assert np.allclose(delays[unit], 1.0 / cap, rtol=1e-12, atol=1e-12)

    def test_fifo_departures_in_arrival_order(self):
        ev = event_log(scenario(), SchedulerSpec.fifo(),
                       small_cfg(measured_packets=3000), 0)
        thr = ev["through"]
        assert (np.diff(thr["depart"]) > 0).all()

    def test_fifo_fast_path_matches_generic_loop(self):
        cfg = small_cfg(measured_packets=3000)
        sc = scenario()
        ev = event_log(sc, SchedulerSpec.fifo(), cfg, 0)  # head selection
        T, S, nt = _flat_arrivals(sc, cfg, 0)
        pos_t, depart, _ = _merge(T, S, nt, sc.capacity)
        fast_thr = depart[pos_t]
        assert np.allclose(fast_thr, ev["through"]["depart"], rtol=1e-9, atol=1e-9)


class TestConservationAndAudit:
    def audit(self, ev):
        """Work conservation: no packet waits across an idle instant."""
        cap = ev["capacity"]
        arr = np.concatenate([ev["through"]["arrival"], ev["cross"]["arrival"]])
        size = np.concatenate([ev["through"]["size"], ev["cross"]["size"]])
        dep = np.concatenate([ev["through"]["depart"], ev["cross"]["depart"]])
        assert not np.isnan(dep).any()
        assert (dep > arr).all()          # causality: depart after arrival
        order = np.argsort(dep)
        arr, size, dep = arr[order], size[order], dep[order]
        start = dep - size / cap
        # service periods must not overlap
        assert (start[1:] >= dep[:-1] - 1e-9).all()
        # idle gap before packet k: nothing may be in the system
        gap = start[1:] - dep[:-1]
        for k in np.nonzero(gap > 1e-9)[0]:
            t_idle = dep[k]
            in_system = (arr <= t_idle + 1e-12) & (dep > t_idle + 1e-9)
            assert not in_system.any()

    def test_work_conservation_all_disciplines(self):
        cfg = small_cfg(measured_packets=2000, warmup_packets=0)
        for sched in (SchedulerSpec.fifo(), SchedulerSpec.sp(),
                      SchedulerSpec.edf(10.0, 1.0), SchedulerSpec.gps(0.5)):
            ev = event_log(scenario(), sched, cfg, 0)
            self.audit(ev)

    def test_sp_cross_flow_never_worse_than_fifo(self):
        cfg = small_cfg(measured_packets=2500, warmup_packets=0)
        sc = scenario()
        fifo = event_log(sc, SchedulerSpec.fifo(), cfg, 0)
        sp = event_log(sc, SchedulerSpec.sp(), cfg, 0)
        d_fifo = fifo["cross"]["depart"] - fifo["cross"]["arrival"]
        d_sp = sp["cross"]["depart"] - sp["cross"]["arrival"]
        assert (d_sp <= d_fifo + 1e-9).all()

    def test_wfq_fairness_during_joint_backlog(self):
        # while both flows stay backlogged, served volumes (exact service
        # overlap, including partial packets) track the weight ratio within
        # one maximum packet
        cfg = small_cfg(measured_packets=4000, warmup_packets=0)
        phi1 = 0.5
        ev = event_log(scenario(), SchedulerSpec.gps(phi1), cfg, 0)
        cap = ev["capacity"]

        def volume(rec, s, t):
            dep = rec["depart"]
            begin = dep - rec["size"] / cap
            overlap = np.clip(np.minimum(dep, t) - np.maximum(begin, s), 0, None)
            return cap * overlap.sum()

        events = []  # (time, flow, +1 arrival / -1 departure)
        for flow, name in ((0, "through"), (1, "cross")):
            rec = ev[name]
            events += [(t, flow, 1) for t in rec["arrival"]]
            events += [(t, flow, -1) for t in rec["depart"]]
        events.sort()
        q = [0, 0]
        start = None
        checked = 0
        for t, flow, kind in events:
            q[flow] += kind
            both = q[0] > 0 and q[1] > 0
            if both and start is None:
                start = t
            elif not both and start is not None:
                if t - start > 10.0:  # long enough to be meaningful
                    v0 = volume(ev["through"], start, t)
                    v1 = volume(ev["cross"], start, t)
                    assert abs((1 - phi1) * v0 - phi1 * v1) <= 1.0 + 1e-9
                    checked += 1
                start = None
        assert checked > 3

    def test_bound_dominates_simulation_smoke(self):
        cfg = small_cfg(measured_packets=20_000, warmup_packets=2000)
        sc = scenario()
        st = simulate(sc, SchedulerSpec.fifo(), cfg, 0)
        palm = palm_prefactor(sc)
        for d, hat in zip(GRID, st.ccdf):
            bound = palm * martingale_delay_bound(sc, SchedulerSpec.fifo(), d).value
            se = math.sqrt(max(hat * (1 - hat), 1e-12) / st.sample_count)
            assert hat - 3 * se <= bound


class TestInstabilityFlag:
    @staticmethod
    def flag(series):
        """The rule on a whole backlog series, sampled as ``simulate`` samples it."""
        return _instability_flag(series[_flag_window(series.size)])

    def test_flat_series_not_flagged(self):
        assert not self.flag(np.abs(np.sin(np.arange(1000.0))) * 5)

    def test_runaway_tail_flagged(self):
        series = np.concatenate([np.full(900, 4.0), np.linspace(4.0, 80.0, 100)])
        assert self.flag(series)

    def test_short_series_not_flagged(self):
        assert not self.flag(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("n", [0, 1, 8, 9, 10, 11, 12, 1000, 1001])
    def test_window_flags_as_the_whole_series_did(self, n):
        # the rule as it read a backlog sampled at every measured departure
        def whole(backlog):
            m = backlog.size
            if m < 9:
                return False
            mid = backlog[m // 3: 2 * (m // 3)]
            return bool(backlog[-1] > 10.0 * max(float(mid.max()), 1.0))

        rng = np.random.default_rng(n)
        seen = set()
        for _ in range(50):
            series = rng.exponential(3.0, n)
            series[-1:] *= 10.0 ** rng.uniform(0.0, 3.0)
            flagged = self.flag(series)
            assert flagged == whole(series)
            seen.add(flagged)
        assert seen == ({False, True} if n >= 9 else {False})

    def test_normal_run_unflagged(self):
        st = simulate(scenario(), SchedulerSpec.fifo(), small_cfg(), 0)
        assert not st.unstable

    SCHEDULERS = {"fifo": SchedulerSpec.fifo(), "sp": SchedulerSpec.sp(),
                  "edf_10_1": SchedulerSpec.edf(10.0, 1.0),
                  "edf_1_10": SchedulerSpec.edf(1.0, 10.0), "gps": SchedulerSpec.gps(0.5)}

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_overload_in_last_third_flagged(self, monkeypatch, name):
        import sncbounds.sim as sim

        # 30 + 300 through packets; the measured middle third is packets
        # [130, 230).  Up to t = 240 one through packet per unit time and a
        # cross packet every other one load C = 2.22 to 0.68; from t = 240
        # on, 4 through and 2 cross packets per unit time overload it, and
        # arrivals go on long after the last measured through packet leaves
        sc = scenario()
        cfg = small_cfg(measured_packets=300, warmup_packets=30, replications=1)
        tt = np.concatenate([np.arange(240.0), 240.0 + np.arange(0.0, 3000.0, 0.25)])
        ct = np.concatenate([np.arange(0.5, 240.0, 2.0), 240.0 + np.arange(0.1, 3000.0, 0.5)])
        flows = [(tt, np.ones(tt.size)), (ct, np.ones(ct.size))]
        monkeypatch.setattr(sim, "_flow_arrivals", lambda scenario, cfg, k: flows)
        assert simulate(sc, self.SCHEDULERS[name], cfg, 0).unstable
        monkeypatch.undo()
        assert not simulate(sc, self.SCHEDULERS[name], cfg, 0).unstable


class TestReplicate:
    def test_box_quartile_ordering_and_determinism(self):
        cfg = small_cfg(replications=4)
        box = replicate(scenario(), SchedulerSpec.fifo(), cfg)
        assert (box.q25 <= box.median).all() and (box.median <= box.q75).all()
        assert (box.minimum <= box.q25).all() and (box.q75 <= box.maximum).all()
        box2 = replicate(scenario(), SchedulerSpec.fifo(), cfg)
        assert np.array_equal(box.per_replication, box2.per_replication)

    def test_single_replication_degenerate(self):
        box = replicate(scenario(), SchedulerSpec.fifo(), small_cfg(replications=1))
        assert np.array_equal(box.median, box.q25)
        assert np.array_equal(box.median, box.maximum)

    def test_parallel_matches_sequential(self):
        cfg = small_cfg(measured_packets=2000, warmup_packets=100, replications=3)
        seq = replicate(scenario(), SchedulerSpec.sp(), cfg, n_jobs=None)
        par = replicate(scenario(), SchedulerSpec.sp(), cfg, n_jobs=2)
        assert np.array_equal(seq.per_replication, par.per_replication)

    @pytest.mark.parametrize("n_jobs,reps,cpus,workers", [
        (10**6, 3, 64, 3),      # at most one worker per replication
        (10**6, 8, 4, 4),       # at most one worker per CPU
        (2, 8, 4, 2),
    ])
    def test_jobs_clamped(self, monkeypatch, n_jobs, reps, cpus, workers):
        import sncbounds.sim as sim

        started = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records the size, runs serially."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        cfg = small_cfg(measured_packets=200, warmup_packets=20, replications=reps)
        box = replicate(scenario(), SchedulerSpec.fifo(), cfg, n_jobs=n_jobs)
        assert started == [workers]
        assert box.replications == reps

    def test_unstable_replications_counted(self, monkeypatch, capsys):
        import sncbounds.sim as sim

        cfg = small_cfg(measured_packets=2000, warmup_packets=100, replications=3)
        box = replicate(scenario(), SchedulerSpec.sp(), cfg)
        assert box.unstable_reps == 0
        flags = iter([False, True, True] * 3)
        monkeypatch.setattr(sim, "_instability_flag", lambda backlog: next(flags))
        box = replicate(scenario(), SchedulerSpec.sp(), cfg)
        assert box.unstable_reps == 2
        argv = ["simulate", "--rho", "0.75", "--scheduler", "sp", "--d", "1,2",
                "--packets", "2000", "--warmup", "100", "--reps", "3", "--jobs", "1"]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc)[-1] == "unstable_reps" and doc["unstable_reps"] == 2
        assert main(argv) == 0
        assert "unstable" not in capsys.readouterr().out

    def test_serialization(self, capsys):
        argv = ["simulate", "--rho", "0.75", "--d", "1:10:10", "--packets", "6000",
                "--warmup", "500", "--reps", "2", "--seed", "1234"]
        assert main(argv) == 0
        csv = capsys.readouterr().out
        assert csv.splitlines()[0] == "d,median,q25,q75,min,max,outlier_count"
        assert len(csv.splitlines()) == len(GRID) + 1
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)


class TestMartingaleMc:
    def test_time_zero_exact(self):
        est = martingale_mc_estimate(scenario(), 0.0, 5000, seed=1)
        assert est == {"mean": 1.0, "stderr": 0.0}

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidParamsError):
            martingale_mc_estimate(scenario(), 1.0, 10, seed=1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InvalidParamsError, match="finite"):
            martingale_mc_estimate(scenario(), t, 5000, seed=1)

    def test_mean_one_within_three_sigma(self):
        for t in (1.0, 5.0):
            est = martingale_mc_estimate(scenario(), t, 20_000, seed=(42, int(t)))
            assert abs(est["mean"] - 1.0) <= 3 * est["stderr"]

    def test_deterministic(self):
        a = martingale_mc_estimate(scenario(), 2.0, 2000, seed=7)
        b = martingale_mc_estimate(scenario(), 2.0, 2000, seed=7)
        assert a == b

    def test_initial_state_validated(self):
        with pytest.raises(InvalidParamsError):
            martingale_mc_estimate(scenario(), 1.0, 2000, seed=1, initial_state=9)

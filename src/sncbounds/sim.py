"""Packet-level simulator of one server shared by through/cross MMOO aggregates.

Packets are unit-sized except for the fractional remainder emitted at the end
of each On-dwell; a packet arrives when its last bit arrives and departs when
its last bit is served (rate C, non-preemptive).  Scheduling:

  fifo  by arrival time
  sp    cross flow has strict priority, non-preemptive
  edf   earliest (arrival + relative deadline), even when negative
  gps   simulated as WFQ, the packetized reference of fluid weighted sharing

WFQ variant (implementations differ, so stated precisely): virtual time V
advances between consecutive events at rate C / sum of weights of flows with
packets in the real system (queued or in service), with no iterated-deletion
correction; a packet of flow i gets finish tag max(F_i, V) + size/phi_i with
per-flow last-finish tracking, and the smallest tag among queue heads is
served next.  V and the finish trackers reset whenever the system empties.
At equal timestamps departures are processed before arrivals, and ties are
broken through-flow first, then by subflow id, then by sequence number.

Warm-up is counted in through-flow packets.  All randomness derives from
(master_seed, replication, subflow) spawn keys, so replications are
reproducible and independent.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ArrivalGenerationError, InvalidParamsError
from .martingale import SchedulerSpec, martingale_constants
from .traffic import Scenario, packet_arrays, sample_path, spawned_rng

__all__ = [
    "SimConfig",
    "DelayStats",
    "BoxStats",
    "simulate",
    "replicate",
    "martingale_mc_estimate",
    "box_stats_csv",
]


def check_delay_grid(grid) -> None:
    """Reject a delay grid that is empty, negative, NaN or not strictly increasing."""
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or not (g >= 0).all() or not (np.diff(g) > 0).all():
        raise InvalidParamsError("delay grid must be nonempty, >= 0, strictly increasing")


@dataclass(frozen=True)
class SimConfig:
    """Replication protocol: measured/warm-up through packets and a delay grid."""

    measured_packets: int = 10_000_000
    warmup_packets: int = 1_000_000
    replications: int = 100
    delay_grid: tuple = tuple(float(d) for d in range(1, 11))
    master_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_packets < self.measured_packets:
            raise InvalidParamsError("need 0 <= warmup < measured packets")
        if self.replications < 1:
            raise InvalidParamsError("need at least one replication")
        check_delay_grid(self.delay_grid)

    @classmethod
    def desk_scale(cls, **kw) -> "SimConfig":
        """Small configuration for interactive runs and the acceptance suite."""
        base = dict(measured_packets=100_000, warmup_packets=10_000, replications=10)
        base.update(kw)
        return cls(**base)


@dataclass(frozen=True)
class DelayStats:
    """Per-replication summary of measured through-flow packet delays."""

    sample_count: int
    q25: float
    q50: float
    q75: float
    q99: float
    delay_grid: tuple
    ccdf: np.ndarray
    unstable: bool = False


@dataclass(frozen=True)
class BoxStats:
    """Across-replication distribution of the per-grid-point CCDF."""

    delay_grid: tuple
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    outliers: tuple          # per grid point, values beyond 1.5 IQR whiskers
    replications: int
    per_replication: np.ndarray = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# arrival generation


_SLACK_SD = 4.0  # standard deviations of the through packet count added to the horizon
_TAIL_CYCLES = 10.0  # mean On-Off cycles of cross traffic after the last needed packet


def _arrival_horizon(scenario: Scenario, need: int) -> tuple[float, float]:
    """Horizon over which the through sources emit ``need`` packets, and its tail.

    A source completes lam*mu/(lam+mu) On-dwells per unit time and emits
    1/(exp(lam/P) - 1) + 1 packets per On-dwell: its whole packets are
    geometric, plus one fractional packet.  The horizon is the mean time the
    n1 through sources take to emit ``need`` packets, plus ``_SLACK_SD``
    standard deviations of that count (the renewal-reward variance of an
    On-Off cycle), plus a tail of ``_TAIL_CYCLES`` mean cycles.
    """
    params = scenario.params
    lam, mu, peak = params.lam, params.mu, params.peak
    cycle_mean = 1.0 / lam + 1.0 / mu
    whole = 1.0 / math.expm1(lam / peak)  # mean whole packets per On-dwell
    # per cycle, K packets in C time: Var(K) is geometric (floor and fraction
    # of an exponential are independent), so Cov(K, C) = Var(K)/P
    var_k = whole * (whole + 1.0)
    rate = (whole + 1.0) / cycle_mean  # packets per unit time per source
    var_rate = (var_k * (1.0 - 2.0 * rate / peak)
                + rate ** 2 * (1.0 / lam ** 2 + 1.0 / mu ** 2)) / cycle_mean
    through_rate = scenario.n1 * rate
    mean_time = need / through_rate
    slack = _SLACK_SD * math.sqrt(scenario.n1 * var_rate * mean_time) / through_rate
    tail = _TAIL_CYCLES * cycle_mean
    return mean_time + slack + tail, tail


def _flow_arrivals(scenario: Scenario, cfg: SimConfig, replication_index: int):
    """Merged (times, sizes) per flow, with enough through packets.

    Arrivals are generated over ``_arrival_horizon`` and accepted only if
    warmup+measured through packets all arrive before its tail starts, so
    the last measured ones stay exposed to the cross traffic that arrives
    while they wait.  Otherwise, rarely, the horizon grows geometrically;
    subflow seeds are horizon-independent, so regeneration extends the same
    sample paths.
    """
    need = cfg.warmup_packets + cfg.measured_packets
    horizon, tail = _arrival_horizon(scenario, need)
    peak = scenario.params.peak
    source = scenario.params.as_fluid_source()
    for _ in range(12):
        flows = []
        for flow_id, count in ((0, scenario.n1), (1, scenario.n2)):
            times, sizes, subs = [], [], []
            for j in range(count):
                rng = spawned_rng(cfg.master_seed, replication_index, flow_id, j)
                path = sample_path(source, horizon, rng)
                t, s = packet_arrays(path, peak)
                times.append(t)
                sizes.append(s)
                subs.append(np.full(t.size, j, dtype=np.int64))
            if times:
                t = np.concatenate(times)
                s = np.concatenate(sizes)
                sub = np.concatenate(subs)
                seq = np.concatenate([np.arange(a.size) for a in times])
                order = np.lexsort((seq, sub, t))
                flows.append((t[order], s[order]))
            else:
                flows.append((np.empty(0), np.empty(0)))
        if np.searchsorted(flows[0][0], horizon - tail) >= need:
            return flows
        horizon *= 1.5
    raise ArrivalGenerationError(
        f"could not generate {need} through packets in 12 attempts at growing horizons")


# ---------------------------------------------------------------------------
# service loops


def _fifo_fast(tt, ts, ct, cs, cap):
    """Vectorized FIFO departures via the work recursion.

    depart_k = max(arrive_k, depart_{k-1}) + size_k/C rewrites as a running
    maximum over arrive_j minus cumulative prior service.
    """
    t = np.concatenate([tt, ct])
    s = np.concatenate([ts, cs])
    is_cross = np.concatenate([np.zeros(tt.size, bool), np.ones(ct.size, bool)])
    order = np.lexsort((is_cross, t))  # through first on ties
    t, s, is_cross = t[order], s[order], is_cross[order]
    service = np.cumsum(s) / cap
    depart = np.maximum.accumulate(t - (service - s / cap)) + service
    return t, s, is_cross, depart


def _serve_loop(kind, tt, ts, ct, cs, cap, need, d1=0.0, d2=0.0,
                phi1=0.5, drain=False):
    """Two-queue head-selection service loop for all disciplines.

    Within each flow, EDF deadlines and WFQ finish tags are increasing, so
    the discipline's next packet is always one of the two queue heads.
    Returns (through departs, cross departs), each aligned with the input
    arrival order; unserved entries are NaN when the loop stops early.
    """
    nt, nc = tt.size, ct.size
    dep_t = np.full(nt, np.nan)
    dep_c = np.full(nc, np.nan)
    served_bits_t = np.empty(nt)
    phi2 = 1.0 - phi1
    wfq = kind == "gps"
    if wfq:
        tags_t = np.empty(nt)
        tags_c = np.empty(nc)

    it = ic = 0            # next head per flow
    tag_it = tag_ic = 0    # next packet to tag (wfq)
    q1 = q2 = 0            # packets in system per flow (wfq)
    v = vt = 0.0           # virtual time and its last update instant
    f1 = f2 = 0.0          # per-flow last finish tags
    pend_flow, pend_time = -1, math.inf
    free = 0.0
    through_served = 0
    cum_bits = 0.0
    inf = math.inf

    def wfq_advance(to):
        nonlocal v, vt, q1, q2, f1, f2, tag_it, tag_ic, pend_flow, pend_time
        while True:
            ta = tt[tag_it] if tag_it < nt else inf
            ca = ct[tag_ic] if tag_ic < nc else inf
            nxt = min(ta, ca, pend_time)
            if nxt > to:
                break
            denom = (phi1 if q1 > 0 else 0.0) + (phi2 if q2 > 0 else 0.0)
            if denom > 0.0:
                v += (nxt - vt) * cap / denom
            vt = nxt
            if pend_time <= ta and pend_time <= ca:  # departures first on ties
                if pend_flow == 0:
                    q1 -= 1
                else:
                    q2 -= 1
                pend_flow, pend_time = -1, inf
                if q1 == 0 and q2 == 0:
                    v = f1 = f2 = 0.0
            elif ta <= ca:  # through before cross on ties
                if q1 + q2 == 0:
                    v = f1 = f2 = 0.0
                    vt = ta
                q1 += 1
                f1 = max(f1, v) + ts[tag_it] / phi1
                tags_t[tag_it] = f1
                tag_it += 1
            else:
                if q1 + q2 == 0:
                    v = f1 = f2 = 0.0
                    vt = ca
                q2 += 1
                f2 = max(f2, v) + cs[tag_ic] / phi2
                tags_c[tag_ic] = f2
                tag_ic += 1

    while it < nt or ic < nc:
        if not drain and through_served >= need:
            break
        t_head = tt[it] if it < nt else inf
        c_head = ct[ic] if ic < nc else inf
        if t_head > free and c_head > free:
            free = min(t_head, c_head)  # idle period; jump to next arrival
        if wfq:
            wfq_advance(free)
        t_ok = t_head <= free
        c_ok = c_head <= free

        if kind == "fifo":
            take_t = t_ok and (not c_ok or t_head <= c_head)
        elif kind == "sp":
            take_t = not c_ok
        elif kind == "edf":
            if t_ok and c_ok:
                dl_t, dl_c = t_head + d1, c_head + d2
                take_t = dl_t < dl_c or (dl_t == dl_c and t_head <= c_head)
            else:
                take_t = t_ok
        else:  # wfq
            if t_ok and c_ok:
                take_t = tags_t[it] <= tags_c[ic]
            else:
                take_t = t_ok

        if take_t:
            dep = free + ts[it] / cap
            cum_bits += ts[it]
            dep_t[it] = dep
            served_bits_t[it] = cum_bits
            it += 1
            through_served += 1
        else:
            dep = free + cs[ic] / cap
            cum_bits += cs[ic]
            dep_c[ic] = dep
            ic += 1
        if wfq:
            pend_flow, pend_time = (0 if take_t else 1), dep
        free = dep

    return dep_t, dep_c, served_bits_t


def _instability_flag(backlog: np.ndarray) -> bool:
    """End-of-run backlog more than 10x the middle third's maximum."""
    n = backlog.size
    if n < 9:
        return False
    mid = backlog[n // 3: 2 * (n // 3)]
    return bool(backlog[-1] > 10.0 * max(float(mid.max()), 1.0))


def _stats_from_delays(delays: np.ndarray, grid, unstable: bool) -> DelayStats:
    q25, q50, q75, q99 = np.quantile(delays, [0.25, 0.5, 0.75, 0.99])
    garr = np.asarray(grid, dtype=float)
    sd = np.sort(delays)
    ccdf = 1.0 - np.searchsorted(sd, garr, side="right") / sd.size
    return DelayStats(delays.size, float(q25), float(q50), float(q75), float(q99),
                      tuple(garr.tolist()), ccdf, unstable)


def simulate(scenario: Scenario, sched: SchedulerSpec, cfg: SimConfig,
             replication_index: int = 0) -> DelayStats:
    """One replication: generate arrivals, serve at rate C, summarize delays."""
    (tt, ts), (ct, cs) = _flow_arrivals(scenario, cfg, replication_index)
    cap = scenario.capacity
    need = cfg.warmup_packets + cfg.measured_packets

    if sched.kind == "fifo":
        t, s, is_cross, depart = _fifo_fast(tt, ts, ct, cs, cap)
        thr = ~is_cross
        delays_all = (depart - t)[thr]
        dep_thr = depart[thr]
        served_bits = np.cumsum(s)[thr]
    else:
        dep_t, dep_c, served_bits = _serve_loop(
            sched.kind, tt, ts, ct, cs, cap, need,
            d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1)
        delays_all = dep_t - tt
        dep_thr = dep_t
    delays = delays_all[cfg.warmup_packets:need]
    dep_win = dep_thr[cfg.warmup_packets:need]
    served_win = served_bits[cfg.warmup_packets:need]

    # backlog (bits in system) sampled at each measured through departure
    arr_t = np.concatenate([tt, ct])
    arr_order = np.argsort(arr_t, kind="stable")
    arr_t = arr_t[arr_order]
    arr_bits = np.cumsum(np.concatenate([ts, cs])[arr_order])
    idx = np.searchsorted(arr_t, dep_win, side="right")
    arrived = np.where(idx > 0, arr_bits[np.maximum(idx - 1, 0)], 0.0)
    backlog = arrived - served_win

    return _stats_from_delays(delays, cfg.delay_grid, _instability_flag(backlog))


def simulate_events(scenario: Scenario, sched: SchedulerSpec, cfg: SimConfig,
                    replication_index: int = 0) -> dict:
    """Small-run debug variant: full per-packet event log, everything served.

    Returns arrays for both flows: arrival time, size, departure time.
    Intended for audits (work conservation, ordering); not for long runs.
    """
    (tt, ts), (ct, cs) = _flow_arrivals(scenario, cfg, replication_index)
    cap = scenario.capacity
    dep_t, dep_c, _ = _serve_loop(
        sched.kind, tt, ts, ct, cs, cap, need=tt.size,
        d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1, drain=True)
    return {
        "through": {"arrival": tt, "size": ts, "depart": dep_t},
        "cross": {"arrival": ct, "size": cs, "depart": dep_c},
        "capacity": cap,
    }


def _one_replication(args):
    scenario, sched, cfg, k = args
    return simulate(scenario, sched, cfg, k)


def replicate(scenario: Scenario, sched: SchedulerSpec, cfg: SimConfig,
              n_jobs: Optional[int] = None) -> BoxStats:
    """Run all replications and aggregate per-grid-point CCDFs into box stats.

    Replication k is seeded by (master_seed, k); results are deterministic
    and independent of ``n_jobs``.  Processes are used when n_jobs > 1, at
    most one per replication and per CPU.
    """
    jobs = [(scenario, sched, cfg, k) for k in range(cfg.replications)]
    workers = min(n_jobs or 1, cfg.replications, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            stats = list(ex.map(_one_replication, jobs))
    else:
        stats = [_one_replication(j) for j in jobs]
    ccdfs = np.vstack([st.ccdf for st in stats])
    q25, med, q75 = np.quantile(ccdfs, [0.25, 0.5, 0.75], axis=0)
    iqr = q75 - q25
    lo_w, hi_w = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    outliers = tuple(
        tuple(ccdfs[(ccdfs[:, j] < lo_w[j]) | (ccdfs[:, j] > hi_w[j]), j].tolist())
        for j in range(ccdfs.shape[1])
    )
    return BoxStats(tuple(np.asarray(cfg.delay_grid, float).tolist()),
                    med, q25, q75, ccdfs.min(axis=0), ccdfs.max(axis=0),
                    outliers, cfg.replications, per_replication=ccdfs)


# ---------------------------------------------------------------------------
# Monte-Carlo martingale constancy


def martingale_mc_estimate(scenario: Scenario, t: float, samples: int, seed,
                           initial_state: int = 0) -> dict:
    """Sample mean and stderr of M(t) for the through aggregate's chain.

    M(t) = exp(-theta*(Z(t)-i)) * exp(gamma*integral(P*Z(s)-C1 ds)) started
    at Z(0)=i should have expectation exactly 1 at every t.  The chain is
    simulated by uniformization (exact), vectorized across samples.
    """
    if t < 0:
        raise InvalidParamsError(f"t must be >= 0, got {t}")
    if t == 0:
        return {"mean": 1.0, "stderr": 0.0}
    if samples < 1000:
        raise InvalidParamsError("need at least 10^3 samples")
    params = scenario.params
    n = scenario.n1
    cap1 = scenario.through_capacity
    consts = martingale_constants(scenario)
    if not 0 <= initial_state <= n:
        raise InvalidParamsError(f"initial state must be in [0, {n}]")

    rng = spawned_rng(seed)
    lam_max = n * max(params.lam, params.mu)
    z = np.full(samples, initial_state, dtype=np.int64)
    clock = np.zeros(samples)
    integral = np.zeros(samples)
    alive = np.ones(samples, dtype=bool)
    while alive.any():
        idx = np.nonzero(alive)[0]
        dt = rng.exponential(1.0 / lam_max, idx.size)
        over = clock[idx] + dt > t
        step = np.where(over, t - clock[idx], dt)
        integral[idx] += z[idx] * step
        clock[idx] += step
        alive[idx[over]] = False
        live = idx[~over]
        if live.size:
            u = rng.random(live.size)
            p_up = (n - z[live]) * params.mu / lam_max
            p_down = z[live] * params.lam / lam_max
            z[live] = np.where(u < p_up, z[live] + 1,
                               np.where(u < p_up + p_down, z[live] - 1, z[live]))
    m = np.exp(-consts.theta * (z - initial_state)) * np.exp(
        consts.gamma * (params.peak * integral - cap1 * t))
    return {"mean": float(m.mean()),
            "stderr": float(m.std(ddof=1) / math.sqrt(samples))}


# ---------------------------------------------------------------------------
# serialization


def box_stats_csv(box: BoxStats) -> str:
    lines = ["d,median,q25,q75,min,max,outlier_count"]
    for j, d in enumerate(box.delay_grid):
        lines.append(
            f"{d:.12g},{box.median[j]:.12g},{box.q25[j]:.12g},{box.q75[j]:.12g},"
            f"{box.minimum[j]:.12g},{box.maximum[j]:.12g},{len(box.outliers[j])}"
        )
    return "\n".join(lines) + "\n"


def box_stats_json(box: BoxStats) -> str:
    return json.dumps({
        "delay_grid": list(box.delay_grid),
        "median": box.median.tolist(),
        "q25": box.q25.tolist(),
        "q75": box.q75.tolist(),
        "min": box.minimum.tolist(),
        "max": box.maximum.tolist(),
        "outliers": [list(o) for o in box.outliers],
        "replications": box.replications,
    })

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

Both flows arrive sorted, one after the other in a flat index (through
packets first): each flow's sources are packetized, and a stable sort of
their concatenation writes them straight into the flow's slice
(``_sort_flows``).  ``_merge`` merges the two flows with one stable sort,
which orders ties through first, and runs the FIFO work recursion on the
merged order.

Service runs busy period by busy period.  A busy period is a stretch in
which the server never idles; every work-conserving discipline has the same
ones, and the FIFO work recursion finds them.  The recursion rounds
differently from the scalar head-selection loop ``_serve_loop``, so
``_lanes`` keeps only the busy-period bounds at which the loop is provably
idle too: one comparison over the merged arrivals finds those whose idle
gap exceeds 4(N + 3) eps t, with N packets and first arrival t, a margin
over the rounding of both (``_serve`` derives it).  It builds two small
tables with one entry per kept bound: its merged index and the through
packets before it.  The packets between two kept bounds (a "lane",
one or more busy periods) are a contiguous slice of the flat index per
flow, read from the two bounds, so service searches no packet array.

Nothing carries over from one lane to the next: the server starts again at
the next arrival, and the WFQ virtual time and finish trackers reset when
the system empties.  So each lane is served on its own, with the
arithmetic of ``_serve_loop`` applied operation for operation (inside a
lane the loop's idle jump and WFQ reset still apply), and the departures
equal those of the loop run over the whole sample path, bit for bit.

A lane of one packet departs at arrival + size/C.  The others are served in
lockstep by ``_lockstep``, all lanes a step at a time.  Under SP and EDF
step k serves the k-th packet of every lane.  Under WFQ a step of a lane
takes, in order, at most one arrival (the next event up to the free
instant, before the pending departure), then the pending departure if it
is now the next event, then a selection once no event up to the free
instant is left; a lane of n packets takes about 1.3n steps at desk scale.
Before a lane is served, each of its packets' departure slots is filled
with what a step reads from it: the service time size/C under SP and EDF,
the tag increment size/phi under WFQ.  The ``_SCALAR_LANES`` longest lanes
go through ``_serve_loop`` instead, and the rest, longest first, through
lockstep calls of at most ``_LOCKSTEP_LANES`` lanes (the reasons for each
constant are next to it).

``simulate`` serves only the lanes that hold measured through packets:
from the one that holds the first to the one that holds the last.  The
warm-up lanes before and the ones after are not served, and their packets
stay NaN.  FIFO itself takes its departures from the recursion, so the
kernels serve only SP, EDF and WFQ.

The kernels return departures only.  The backlog that ``DelayStats.unstable``
samples needs no service order: every discipline here is work-conserving, so
all leave the same unfinished work at every instant, and the FIFO recursion
gives it (C times the wait left to the FIFO departure of the last arrival).
``simulate`` samples it at the last measured departure and, only when that
sample exceeds 10 bits (the flag cannot trip otherwise), at the middle third
of them that the flag compares it with (``_flag_window``).  A sample counts
the arrivals up to its departure with one binary search per flow of the flat
index, under every discipline.

Warm-up is counted in through-flow packets.  All randomness derives from
(master_seed, replication, subflow) spawn keys, so replications are
reproducible and independent.
"""

from __future__ import annotations

import functools
import math
import os
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
]


def check_delay_grid(grid) -> None:
    """Reject a delay grid that is empty, negative, not finite or not increasing."""
    g = np.asarray(grid, dtype=float)
    if g.size == 0 or not ((g >= 0) & (g < np.inf)).all() or not (np.diff(g) > 0).all():
        raise InvalidParamsError(
            "delay grid must be nonempty, finite, >= 0, strictly increasing")


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


@dataclass(frozen=True)
class DelayStats:
    """Per-replication summary of measured through-flow packet delays."""

    sample_count: int
    q25: float
    q50: float
    q75: float
    q99: float
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
    unstable_reps: int = 0   # replications whose backlog ran away (DelayStats.unstable)
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
    try:
        whole = 1.0 / math.expm1(lam / peak)  # mean whole packets per On-dwell
    except OverflowError:  # lam/P above ~709.8: fewer than 1e-307 whole packets
        whole = 0.0
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


def _flow_packets(scenario: Scenario, cfg: SimConfig, replication_index: int,
                  flow_id: int, horizon: float) -> list:
    """(times, sizes) of each source of a flow (0 through, 1 cross), in subflow order."""
    params = scenario.params
    return [packet_arrays(sample_path(params, horizon,
                                      spawned_rng(cfg.master_seed, replication_index,
                                                  flow_id, j)),
                          params.peak)
            for j in range(scenario.n2 if flow_id else scenario.n1)]


def _sort_flows(through: list, cross: list):
    """Flat arrival times and sizes of the through then the cross packets.

    Each flow's sources are concatenated in (subflow, sequence) order, and
    a stable sort, which keeps that order among equal times, writes them
    sorted straight into the flow's slice of the flat arrays.  Empties both
    lists on the way.  Returns (times, sizes, through packet count).
    """
    counts = [sum(t.size for t, _ in flow) for flow in (through, cross)]
    T, S = np.empty(sum(counts)), np.empty(sum(counts))
    lo = 0
    for flow, count in zip((through, cross), counts):
        if flow:
            t = np.concatenate([times for times, _ in flow])
            s = np.concatenate([sizes for _, sizes in flow])
            flow.clear()  # frees each source's arrays
            order = np.argsort(t, kind="stable")
            # "clip" skips the bounds check, and with it the buffered copy
            # that ``out`` takes under "raise"; ``order`` is in range
            t.take(order, out=T[lo:lo + count], mode="clip")
            s.take(order, out=S[lo:lo + count], mode="clip")
        lo += count
    return T, S, counts[0]


def _flat_arrivals(scenario: Scenario, cfg: SimConfig, replication_index: int):
    """Arrival times and sizes of all through packets then all cross packets.

    Arrivals are generated over ``_arrival_horizon`` and accepted only if
    warmup+measured through packets all arrive before its tail starts, so
    the last measured ones stay exposed to the cross traffic that arrives
    while they wait.  Otherwise, rarely, the horizon grows geometrically;
    subflow seeds are horizon-independent, so regeneration extends the same
    sample paths.  The cross flow is generated once the through flow has
    enough packets.  Returns (times, sizes, through packet count).
    """
    need = cfg.warmup_packets + cfg.measured_packets
    horizon, tail = _arrival_horizon(scenario, need)
    for _ in range(12):
        through = _flow_packets(scenario, cfg, replication_index, 0, horizon)
        # each source's times are sorted: count those before the tail per source
        if sum(int(np.searchsorted(t, horizon - tail)) for t, _ in through) >= need:
            return _sort_flows(through,
                               _flow_packets(scenario, cfg, replication_index, 1, horizon))
        horizon *= 1.5
    raise ArrivalGenerationError(
        f"could not generate {need} through packets in 12 attempts at growing horizons")


# ---------------------------------------------------------------------------
# service

# Lanes per lockstep call, taken longest first.  Per-step temporaries and
# per-lane state are a few dozen arrays of this width: 4096 keeps them
# near 1 MB, while the calls after the first, holding the short lanes, add
# only a few steps each.
_LOCKSTEP_LANES = 1 << 12
# Longest lanes of a run served by the scalar loop instead.  A lockstep
# step costs about 25 (SP), 30 (EDF) or 100 (WFQ) NumPy calls whatever its
# width, so the step count is set by the longest lane served in lockstep:
# handing the few longest to the scalar loop, at 0.2 (SP/EDF) to 0.6 (WFQ)
# us per packet, cuts the steps to the length of the next one.  Service ms
# from the busy period of the first measured packet on, with
# 16/32/48/64/96/128 scalar lanes (mean over seeds 3, 5 and 7 of the minimum
# of 15 runs, 31 at the small size):
#   desk, 4.0e4 busy periods, the longest about 400 packets
#     SP        13.0/12.5/12.2/12.5/13.2/14.1
#     EDF(10,1) 15.4/15.6/16.0/16.3/17.1/17.4
#     WFQ(0.5)  57.3/57.0/54.5/54.3/54.9/56.1
#   the benchmark's warm-up size, 200 + 2000 through packets
#     SP        1.56/1.36/1.25/1.28/1.40/1.52
#     EDF(10,1) 1.52/1.25/1.18/1.18/1.25/1.37
#     WFQ(0.5)  5.96/4.37/3.93/3.66/3.38/3.31
# 48 is within the spread of the best at desk scale for each discipline;
# at the small size it is the best for SP and EDF and 10 % below 32 for WFQ.
_SCALAR_LANES = 48


def _merge(T, S, nt, cap):
    """Stable merge of the two sorted flows and the FIFO work recursion.

    ``T``/``S`` hold the arrival times and sizes of the ``nt`` through
    packets followed by the cross packets (the flat index).  ``T`` is two
    sorted runs, so a stable sort merges them in one pass and orders ties
    through first.  FIFO departures follow from depart_k = max(arrive_k,
    depart_{k-1}) + size_k/C, rewritten as a running maximum over arrive_j
    minus cumulative prior service.  Returns, in merged order, which
    packets are through packets, the FIFO departures and the arrivals.
    """
    order = np.argsort(T, kind="stable")
    t = np.empty(T.size + 1)  # the last arrival, at +inf, ends the last busy period
    T.take(order, out=t[:-1], mode="clip")  # unbuffered, as in ``_sort_flows``
    t[-1] = np.inf
    s = S.take(order)
    through = order < nt
    del order
    service = np.cumsum(s)
    service /= cap
    fifo = s  # in place: max.accumulate(t - (service - s/C)) + service
    np.divide(s, cap, out=fifo)
    np.subtract(service, fifo, out=fifo)
    np.subtract(t[:-1], fifo, out=fifo)
    np.maximum.accumulate(fifo, out=fifo)
    fifo += service
    del service
    return through, fifo, t


def _lanes(t, through, fifo):
    """Lane tables from ``_merge``'s outputs: the kept bounds and the through
    packets before each.

    A bound is 0 or a merged index k whose first arrival t, scaled down by
    1 - 4(N + 3) eps (N packets), still exceeds the FIFO recursion's
    departure of the packet before it: an idle gap above the margin
    ``_serve`` derives, so the scalar loop is idle there too.  The last
    arrival, at +inf, keeps the last bound (the packet count).  A lane
    [bounds[i], bounds[i+1]) owns the flat slices [before[i], before[i+1])
    and [nt + bounds[i] - before[i], nt + bounds[i+1] - before[i+1]).
    """
    shrink = 1.0 - 4.0 * np.finfo(float).eps * (t.size + 2)  # exact in binary
    bounds = np.concatenate([[0], np.flatnonzero(t[1:] * shrink > fifo) + 1])
    before = np.zeros(bounds.size, dtype=np.intp)
    # an int32 running count halves the packet-sized array; it reaches nt
    count = np.int32 if through.size < 2**31 else np.intp
    before[1:] = np.cumsum(through, dtype=count)[bounds[1:] - 1]
    return bounds, before


def _serve_loop(sched, tt, ts, ct, cs, cap):
    """Two-queue head-selection service loop for SP, EDF and WFQ (the ``gps`` kind).

    FIFO's selection is EDF with equal deadlines; ``simulate`` takes FIFO
    departures from the work recursion instead.  Within each flow, EDF
    deadlines and WFQ finish tags are increasing, so the discipline's next
    packet is always one of the two queue heads.  Serves everything and
    returns the through and the cross departures as lists, aligned with the
    input arrival order.

    It runs on Python floats, which perform the same IEEE operations as
    NumPy's float64 and cost far less one at a time; each flow's arrivals end
    with a +inf sentinel, so an exhausted flow's next arrival is +inf.  Each
    iteration serves one packet.  Under WFQ it first takes the events up to
    the free instant in time order (departures first on ties, then through
    before cross), each advancing V.  An arrival into an empty system finds
    V and the finish trackers already reset by the departure that emptied
    it, or at their initial zeros.
    """
    nt, nc = tt.size, ct.size
    inf = math.inf
    tt, ts, ct, cs = tt.tolist(), ts.tolist(), ct.tolist(), cs.tolist()
    tt.append(inf)
    ct.append(inf)
    dep_t, dep_c = [0.0] * nt, [0.0] * nc
    sp, edf, wfq = sched.kind == "sp", sched.kind == "edf", sched.kind == "gps"
    d1, d2, phi1 = sched.d1_star, sched.d2_star, sched.phi1
    phi2 = 1.0 - phi1
    phi12 = phi1 + phi2  # weight sum of a busy system; adding an idle flow's 0.0 is exact
    if wfq:
        tags_t, tags_c = [0.0] * nt, [0.0] * nc

    it = ic = 0            # next head per flow
    th, ch = tt[0], ct[0]  # ... and its arrival
    gt = gc = 0            # next packet to tag per flow (wfq)
    ta, ca = th, ch        # ... and its arrival
    q1 = q2 = 0            # packets in system per flow
    v = vt = 0.0           # virtual time and its last update instant
    f1 = f2 = 0.0          # per-flow last finish tags
    pend, pend_c = inf, False  # departure not yet processed, and whether cross
    free = 0.0

    for _ in range(nt + nc):
        if th > free and ch > free:
            free = th if th <= ch else ch  # idle period; jump to next arrival
        if wfq:
            while True:
                a = ta if ta <= ca else ca
                if pend <= a and pend <= free:  # departures first on ties
                    v += (pend - vt) * cap / ((phi12 if q2 else phi1) if q1 else phi2)
                    vt = pend
                    if pend_c:
                        q2 -= 1
                    else:
                        q1 -= 1
                    pend = inf
                    if not (q1 or q2):
                        v = f1 = f2 = 0.0
                elif a <= free:
                    if q1 or q2:
                        v += (a - vt) * cap / ((phi12 if q2 else phi1) if q1 else phi2)
                    vt = a
                    if ta <= ca:  # through before cross on ties
                        q1 += 1
                        f1 = (v if v > f1 else f1) + ts[gt] / phi1
                        tags_t[gt] = f1
                        gt += 1
                        ta = tt[gt]
                    else:
                        q2 += 1
                        f2 = (v if v > f2 else f2) + cs[gc] / phi2
                        tags_c[gc] = f2
                        gc += 1
                        ca = ct[gc]
                else:
                    break

        if sp:
            take_t = ch > free
        elif th <= free and ch <= free:
            if edf:
                dl_t, dl_c = th + d1, ch + d2
                take_t = dl_t < dl_c or (dl_t == dl_c and th <= ch)
            else:  # wfq
                take_t = tags_t[it] <= tags_c[ic]
        else:
            take_t = th <= free

        if take_t:
            free += ts[it] / cap
            dep_t[it] = free
            it += 1
            th = tt[it]
        else:
            free += cs[ic] / cap
            dep_c[ic] = free
            ic += 1
            ch = ct[ic]
        pend, pend_c = free, not take_t

    return dep_t, dep_c


def _lockstep(sched, T, S, cap, lo_t, hi_t, lo_c, hi_c, dep):
    """Serve lanes sorted longest first, all of them a step at a time, under ``sched``.

    ``T``/``S`` hold the arrival times and sizes of all through packets then
    all cross packets (the flat index); lane i owns [lo_t, hi_t) and [lo_c,
    hi_c) of it.  ``dep`` comes filled by ``_serve``: under SP and EDF a
    packet's slot holds its service time size/C until it departs, and under
    WFQ size/phi of its flow until it arrives, then its finish tag until it
    is served (WFQ divides size by C at service).  Each step applies the
    scalar loop's arithmetic to every lane: the idle jump, then under SP/EDF
    one head selection.  Under WFQ a step does three things in order: at
    most one arrival, if it is the next event up to the free instant (before
    the pending departure, which goes first on ties; through first among
    arrivals), which advances V and gets its finish tag; then the pending
    departure, if it is now the next event up to that instant; then a head
    selection, once no event up to that instant is left.  So a lane of n
    packets takes n steps, plus one for each arrival after which another is
    still due by the free instant: about 1.3n at desk scale (2.6e5 lane
    steps for 2.0e5 packets).

    A flow's head past the lane's last packet of that flow is the next
    lane's first (``_serve_lanes`` hands lockstep only lanes that have one).
    It arrives no earlier than any packet of the lane, so the idle jump to
    the earlier head picks it only once the lane is finished, and a mask
    keeps it from being served.  A finished lane serves nothing, so the
    steps cover the lanes up to the last unfinished one.  Writes departures
    into ``dep`` at flat indices (the last slot takes the writes of lanes
    that serve nothing in a step) and returns the number of steps.
    """
    kind, d1, d2, phi1 = sched.kind, sched.d1_star, sched.d2_star, sched.phi1
    wfq = kind == "gps"
    it, ic = lo_t.copy(), lo_c.copy()
    done = np.full(it.size, -np.inf)  # the last departure per lane
    inf = np.inf
    nothing = dep.size - 1
    if wfq:
        # the weight sum by busy flows (1 through, 2 cross); an empty system
        # divides by inf, so an arrival into it leaves V at 0
        weights = np.array([inf, phi1, 1.0 - phi1, phi1 + (1.0 - phi1)])
        gt, gc = lo_t.copy(), lo_c.copy()        # next packet to tag per flow
        ta = np.where(gt < hi_t, T.take(gt), inf)  # ... and its arrival
        ca = np.where(gc < hi_c, T.take(gc), inf)
        vf = np.zeros((3, it.size))              # V and the per-flow last finish tags
        vt = np.zeros(it.size)                   # instant of V's last update
        pending = np.zeros(it.size, dtype=bool)  # the last departure is not processed yet
        pend_c = np.zeros(it.size, dtype=bool)   # ... and it is cross

    w, steps = it.size, 0
    while w:
        steps += 1
        it_, ic_, hi_t_, hi_c_, done_ = it[:w], ic[:w], hi_t[:w], hi_c[:w], done[:w]
        t_in, c_in = it_ < hi_t_, ic_ < hi_c_
        th, ch = T.take(it_), T.take(ic_)
        free = np.maximum(done_, np.minimum(th, ch))  # after the idle jump
        t_ok = th <= free
        t_ok &= t_in
        c_ok = ch <= free
        c_ok &= c_in

        if wfq:
            gt_, gc_, ta_, ca_, vt_, pending_, pend_c_ = (
                gt[:w], gc[:w], ta[:w], ca[:w], vt[:w], pending[:w], pend_c[:w])
            vf_ = vf[:, :w]
            v_, f1_, f2_ = vf_
            # an arrival before the pending departure and up to the free
            # instant (through first on ties) advances V and gets its tag
            arrive = np.minimum(ta_, ca_)
            come = arrive <= free
            late = arrive >= done_
            late &= pending_
            np.greater(come, late, out=come)
            come_t = ta_ <= ca_
            come_t &= come
            come_c = come ^ come_t
            # a flow has packets in the system if one is tagged and not yet
            # served, or if the departure not yet processed is its own
            pend_t = pending_ > pend_c_
            pend_x = pending_ & pend_c_
            busy = (gt_ > it_) | pend_t
            busy_c = (gc_ > ic_) | pend_x
            x = np.where(come, arrive, vt_)
            v_ += (x - vt_) * cap / weights.take(busy + 2 * busy_c)
            vt_[...] = x
            g = np.where(come_t, gt_, gc_)
            tag = np.maximum(np.where(come_t, f1_, f2_), v_)
            tag += dep.take(g)
            np.putmask(f1_, come_t, tag)
            np.putmask(f2_, come_c, tag)
            dep[np.where(come, g, nothing)] = tag
            gt_ += come_t
            gc_ += come_c
            ta_[...] = np.where(gt_ < hi_t_, T.take(gt_), inf)
            ca_[...] = np.where(gc_ < hi_c_, T.take(gc_), inf)
            # then the pending departure, if it is now the next event (first
            # on ties); V and the finish trackers reset when the system empties
            np.minimum(ta_, ca_, out=arrive)
            gone = done_ <= arrive
            gone &= pending_
            busy = (gt_ > it_) | pend_t
            busy_c = (gc_ > ic_) | pend_x
            x = np.where(gone, done_, vt_)
            v_ += (x - vt_) * cap / weights.take(busy + 2 * busy_c)
            vt_[...] = x
            np.greater(pending_, gone, out=pending_)
            # only an empty lane with arrivals still to come needs the reset
            reset = (gt_ == it_) & (gc_ == ic_) & (arrive < inf)
            reset &= gone
            if reset.any():
                vf_ *= ~reset

        if kind == "sp":
            take = t_ok > c_ok
        else:
            if kind == "edf":
                dl_t, dl_c = th + d1, ch + d2
                first_t = (dl_t < dl_c) | ((dl_t == dl_c) & (th <= ch))
            else:
                first_t = dep.take(it_) <= dep.take(ic_)
            take = t_ok > (c_ok > first_t)
        take_c = c_ok > take  # neither takes: the lane waits or is finished
        if wfq:
            # then a selection, once no event up to the free instant is left
            ready = arrive > free
            take &= ready
            take_c &= ready
        serve = take | take_c
        idx = np.where(take, it_, ic_)
        d = free + (S.take(idx) / cap if wfq else dep.take(idx))
        dep[np.where(serve, idx, nothing)] = d
        it_ += take
        ic_ += take_c
        np.putmask(done_, serve, d)
        if wfq:
            pending_ |= serve
            np.putmask(pend_c_, serve, take_c)
        # NumPy keeps freed buffers under 1 KiB for reuse, one cache per
        # byte size, so narrowing lane by lane would leave a buffer of every
        # size behind: below 1024 lanes, widths are multiples of 128.  A lane
        # that finished in this step drops out in the next.
        left = t_in | c_in
        k = int(left[::-1].argmax())
        live = w - k if left[w - 1 - k] else 0
        w = live if live >= 1024 else min(-(-live // 128) * 128, w)
    return steps


def _serve_lanes(sched, T, S, cap, nt, bounds, before, dep):
    """Serve the lanes between consecutive ``bounds`` exactly as the scalar loop would.

    Lane i is [bounds[i], bounds[i+1]) of the merged order, with
    ``before[i]`` through packets ahead of it (see ``_lanes``).  Their slots
    of ``dep`` are first filled as ``_lockstep`` reads them, one slice per
    flow.  A lane of one packet departs at arrival + size/C.  The
    ``_SCALAR_LANES`` longest go through ``_serve_loop`` on their own
    packets, and so do the lanes from the one that holds the last packet of
    a flow on, which have no next packet of it; the rest go through
    ``_lockstep``.  Where there are no cross packets at all, lockstep reads
    the last arrival as the cross head, which comes no earlier than any
    other.
    """
    scale = (sched.phi1, 1.0 - sched.phi1) if sched.kind == "gps" else (cap, cap)
    lo_t, hi_t = before[:-1], before[1:]
    lo_c, hi_c = nt + bounds[:-1] - lo_t, nt + bounds[1:] - hi_t
    for lo, hi, s in ((before[0], before[-1], scale[0]),
                      (nt + bounds[0] - before[0], nt + bounds[-1] - before[-1], scale[1])):
        np.divide(S[lo:hi], s, out=dep[lo:hi])
    n = np.diff(bounds)
    one = np.flatnonzero(n == 1)
    p = np.where(hi_t[one] > lo_t[one], lo_t[one], lo_c[one])  # through or cross
    dep[p] = T[p] + S[p] / cap
    many = np.flatnonzero(n > 1)
    key = -n[many]
    if key.size and key.min() >= np.iinfo(np.int16).min:
        key = key.astype(np.int16)  # a stable sort radix-sorts a 16-bit key
    many = many[np.argsort(key, kind="stable")]
    del n, one, p, key
    lo_t, hi_t, lo_c, hi_c = lo_t[many], hi_t[many], lo_c[many], hi_c[many]
    if nt == T.size:  # no cross packets: every lane would end the cross flow
        lo_c[:] = hi_c[:] = nt - 1
    scalar = np.zeros(many.size, dtype=bool)
    scalar[:_SCALAR_LANES] = True
    scalar |= (hi_t == nt) | (hi_c == T.size)
    for i in np.flatnonzero(scalar):
        a, z, c, e = lo_t[i], hi_t[i], lo_c[i], hi_c[i]
        dep[a:z], dep[c:e] = _serve_loop(sched, T[a:z], S[a:z], T[c:e], S[c:e], cap)
    rest = np.flatnonzero(~scalar)
    for g in range(0, rest.size, _LOCKSTEP_LANES):
        group = rest[g:g + _LOCKSTEP_LANES]
        _lockstep(sched, T, S, cap, lo_t[group], hi_t[group], lo_c[group], hi_c[group],
                  dep)


def _serve(sched, T, S, nt, lanes, cap, need=None, warm=0):
    """Departures of a non-preemptive two-flow server, lane by lane.

    Gives, bit for bit, what the scalar loop gives on the whole run under
    ``sched`` (SP, EDF or GPS) on every packet it serves; see the module
    docstring.  ``T``/``S`` are the flat arrivals of ``nt`` through packets
    then the cross packets, and ``lanes`` the tables of ``_lanes``.
    Service starts at the lane that holds through packet ``warm`` (0: at
    the first) and stops after the one that holds the ``need``-th through
    packet (None serves all).  Returns (through departs, cross departs);
    packets of lanes outside that range are NaN.

    Serving a lane on its own needs the loop's server to be idle at the
    lane's bound, and the FIFO recursion shows it idle only in its own
    rounding.  Take a bound with k packets ahead of it and first arrival t;
    no value either computation meets on the way there exceeds t, and each
    operation is off by at most 2^-53 of its value.  The recursion's end of
    that work carries a k-term running sum twice plus five single
    operations: at most (2k + 7) 2^-53 t off the exact end.  The loop's is
    k divisions and k additions from the last instant at which it jumped to
    an arrival, and never above the exact end by more than (k + 1) 2^-53 t.
    So where the recursion's idle gap t - fifo exceeds (1.5k + 4) eps t,
    eps = 2^-52, the loop is idle there too.  ``_lanes`` keeps a bound only
    where t (1 - 4(N + 3) eps) > fifo in floating point, N being the packet
    count: the factor is exact in binary (1 minus a multiple of 2^-50) and
    the product rounds by at most eps/2 of t, so the gap there exceeds
    (4N + 11.5) eps t, above (1.5k + 4) eps t for every k <= N.  The loop is
    idle at every bound of the tables.
    """
    bounds, before = lanes
    low = int(np.searchsorted(before, warm, side="right")) - 1 if warm else 0
    # up to the lane whose through packets reach ``need``
    high = (int(np.searchsorted(before, need)) if need is not None and need <= nt
            else bounds.size - 1)
    dep = np.full(T.size + 1, np.nan)
    _serve_lanes(sched, T, S, cap, nt, bounds[low:high + 1], before[low:high + 1], dep)
    return dep[:nt], dep[nt:-1]


def _flag_window(n: int) -> np.ndarray:
    """The middle third [n//3, 2*(n//3)) of n measured departures, at which
    ``_instability_flag`` reads the backlog; none below 9."""
    if n < 9:
        return np.empty(0, dtype=np.intp)
    return np.arange(n // 3, 2 * (n // 3))


def _instability_flag(last: float, window) -> bool:
    """End-of-run backlog more than 10x the middle third's maximum.

    ``last`` is the backlog at the last measured departure, and ``window()``
    samples it at the ``_flag_window`` departures.  10 max(M, 1) is at least
    10 for any window maximum M, and a NaN M fails the comparison, so the
    window is read only when ``last`` exceeds 10 bits.
    """
    if not last > 10.0:
        return False
    backlog = window()
    return backlog.size > 0 and bool(last > 10.0 * max(float(backlog.max()), 1.0))


def _stats_from_delays(delays: np.ndarray, grid, unstable: bool) -> DelayStats:
    sd = np.sort(delays)
    ccdf = 1.0 - np.searchsorted(sd, np.asarray(grid, dtype=float), side="right") / sd.size
    # np.quantile partitions, which a sorted array passes fast; in place,
    # since ``sd`` is no longer needed sorted
    q25, q50, q75, q99 = np.quantile(sd, [0.25, 0.5, 0.75, 0.99], overwrite_input=True)
    return DelayStats(delays.size, float(q25), float(q50), float(q75), float(q99),
                      ccdf, unstable)


def _backlog(T, nt, fifo, dep, cap):
    """Backlog (bits in system) at each departure instant in ``dep``.

    It is the FIFO unfinished work, which every discipline here shares
    (module docstring): C times the wait left to the FIFO departure
    ``fifo`` (merged order) of the last arrival.  The arrivals up to a
    departure are counted in each flow of the flat arrivals ``T`` (``nt``
    through packets first) and summed, the same count as in merged order.
    """
    idx = np.searchsorted(T[:nt], dep, side="right")
    idx += np.searchsorted(T[nt:], dep, side="right")
    return cap * np.maximum(fifo[idx - 1] - dep, 0.0)


def simulate(scenario: Scenario, sched: SchedulerSpec, cfg: SimConfig,
             replication_index: int = 0) -> DelayStats:
    """One replication: generate arrivals, serve at rate C, summarize delays."""
    T, S, nt = _flat_arrivals(scenario, cfg, replication_index)
    cap = scenario.capacity
    warm, need = cfg.warmup_packets, cfg.warmup_packets + cfg.measured_packets
    through, fifo, t = _merge(T, S, nt, cap)
    # packet-sized arrays are freed as soon as they are used
    if sched.kind == "fifo":
        del S, t
        dep_thr = fifo[np.flatnonzero(through)]
        del through
    else:
        lanes = _lanes(t, through, fifo)
        del t, through
        dep_thr, _ = _serve(sched, T, S, nt, lanes, cap, need, warm)
        del lanes
    unstable = _instability_flag(
        _backlog(T, nt, fifo, dep_thr[need - 1], cap),
        lambda: _backlog(T, nt, fifo, dep_thr[warm + _flag_window(cfg.measured_packets)], cap))
    delays = dep_thr[warm:need] - T[warm:need]
    return _stats_from_delays(delays, cfg.delay_grid, unstable)


def replicate(scenario: Scenario, sched: SchedulerSpec, cfg: SimConfig,
              n_jobs: Optional[int] = None) -> BoxStats:
    """Run all replications and aggregate per-grid-point CCDFs into box stats.

    Replication k is seeded by (master_seed, k); results are deterministic
    and independent of ``n_jobs``.  Processes are used when n_jobs > 1, at
    most one per replication and per CPU; None runs serially, and a count
    below 1 is rejected.
    """
    if n_jobs is not None and n_jobs < 1:
        raise InvalidParamsError(f"the job count must be at least 1, got {n_jobs}")
    one = functools.partial(simulate, scenario, sched, cfg)
    workers = min(n_jobs or 1, cfg.replications, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as ex:
            stats = list(ex.map(one, range(cfg.replications)))
    else:
        stats = list(map(one, range(cfg.replications)))
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
                    outliers, cfg.replications,
                    unstable_reps=sum(st.unstable for st in stats), per_replication=ccdfs)


# ---------------------------------------------------------------------------
# Monte-Carlo martingale constancy


def martingale_mc_estimate(scenario: Scenario, t: float, samples: int, seed) -> dict:
    """Sample mean and stderr of M(t) for the through aggregate's chain.

    M(t) = exp(-theta*Z(t)) * exp(gamma*integral(P*Z(s)-C1 ds)) started
    at Z(0)=0 should have expectation exactly 1 at every t.  The chain is
    simulated by uniformization (exact), vectorized across samples.
    """
    if not 0 <= t < math.inf:
        raise InvalidParamsError(f"t must be finite and >= 0, got {t}")
    if t == 0:
        return {"mean": 1.0, "stderr": 0.0}
    if samples < 1000:
        raise InvalidParamsError("need at least 10^3 samples")
    params = scenario.params
    n = scenario.n1
    cap1 = scenario.through_capacity
    consts = martingale_constants(scenario)

    rng = spawned_rng(seed)
    lam_max = n * max(params.lam, params.mu)
    z = np.zeros(samples, dtype=np.int64)
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
    m = np.exp(-consts.theta * z) * np.exp(
        consts.gamma * (params.peak * integral - cap1 * t))
    return {"mean": float(m.mean()),
            "stderr": float(m.std(ddof=1) / math.sqrt(samples))}

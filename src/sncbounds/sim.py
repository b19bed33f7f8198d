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
packets first).  ``_merge`` merges them with one stable sort, which orders
ties through first, and runs the FIFO work recursion on the merged order.

Service runs busy period by busy period.  A busy period is a stretch in
which the server never idles; every work-conserving discipline has the same
ones, and the FIFO work recursion finds them.  ``_merge`` keeps three small
tables with one entry per busy-period bound: the bound's merged index, the
through packets before it and the first arrival at it.  A busy period's
packets of each flow are a contiguous slice of the flat index, read from
its two bounds, so service searches no packet array.

Nothing carries over from one busy period to the next: the server starts
again at the next arrival, and the WFQ virtual time and finish trackers
reset when the system empties.  So each busy period (a "lane") is served on
its own, with the arithmetic of the scalar head-selection loop
``_serve_loop`` applied operation for operation, and the departures equal
those of the loop run over the whole sample path, bit for bit.  The FIFO
recursion rounds differently from that loop, so a split stands only if the
exact last departure of a lane comes before the next lane's first arrival;
lanes that touch are merged, by dropping the tables' entries at the bounds
between them, and served again (inside a lane the loop's idle jump and WFQ
reset still apply).

A lane of one packet departs at arrival + size/C.  The others are served in
lockstep by ``_lockstep``, all lanes a step at a time.  Under SP and EDF
step k serves the k-th packet of every lane.  Under WFQ a step of a lane
takes, in order, at most one arrival (the next event up to the free
instant, before the pending departure), then the pending departure if it
is now the next event, then a selection once no event up to the free
instant is left; a lane of n packets takes about 1.3n steps at desk scale.
The ``_SCALAR_LANES`` longest lanes go through ``_serve_loop`` instead, and
the rest, longest first, through lockstep calls of at most
``_LOCKSTEP_LANES`` lanes (the reasons for each constant are next to it).
``simulate`` stops after the warm-up plus measured through packets: busy
periods after the one that holds the last of them are not served, and their
packets stay NaN.  FIFO itself takes its departures from the recursion,
so the kernels serve only SP, EDF and WFQ.

The kernels return departures only.  The backlog that ``DelayStats.unstable``
samples needs no service order: every discipline here is work-conserving, so
all leave the same unfinished work at every instant, and the FIFO recursion
gives it (C times the wait left to the FIFO departure of the last arrival).
``simulate`` takes it only at the measured departures the flag reads
(``_flag_window``).

Warm-up is counted in through-flow packets.  All randomness derives from
(master_seed, replication, subflow) spawn keys, so replications are
reproducible and independent.
"""

from __future__ import annotations

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
            times, sizes = [], []
            for j in range(count):
                rng = spawned_rng(cfg.master_seed, replication_index, flow_id, j)
                path = sample_path(source, horizon, rng)
                t, s = packet_arrays(path, peak)
                times.append(t)
                sizes.append(s)
            if times:
                # concatenated in (subflow, sequence) order, which a stable
                # sort keeps among equal times
                t = np.concatenate(times)
                s = np.concatenate(sizes)
                order = np.argsort(t, kind="stable")
                flows.append((t[order], s[order]))
            else:
                flows.append((np.empty(0), np.empty(0)))
        if np.searchsorted(flows[0][0], horizon - tail) >= need:
            return flows
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
# step costs 30 (SP/EDF) to 120 (WFQ) NumPy calls whatever its width, so the
# step count is set by the longest lane served in lockstep: handing the few
# longest to the scalar loop, at 0.2 (SP/EDF) to 0.6 (WFQ) us per packet,
# cuts the steps to the length of the next one.  Service ms of a desk run
# (4.4e4 busy periods, the longest about 400 packets; mean over seeds 3, 5
# and 7 of the minimum of 7 runs) with 16/32/48/64/96/128 scalar lanes:
#   SP        15.5/15.3/15.1/15.8/17.2/16.6
#   EDF(10,1) 18.2/17.7/17.4/17.9/17.9/18.8
#   WFQ(0.5)  75.7/73.2/75.4/73.0/75.3/73.7
# 32 is within the spread of the best for each discipline, so one count
# serves all three.  At the 2.2e3-packet size of the benchmark's warm-up,
# 32 and 64 tie for SP/EDF (1.1-1.3 ms) and WFQ takes 4.5 ms at 32 against
# 3.4 at 64.
_SCALAR_LANES = 32


def _merge(T, S, nt, cap):
    """Stable merge of the two sorted flows, the FIFO work recursion, busy periods.

    ``T``/``S`` hold the arrival times and sizes of the ``nt`` through
    packets followed by the cross packets (the flat index).  ``T`` is two
    sorted runs, so a stable sort merges them in one pass and orders ties
    through first.  FIFO departures follow from depart_k = max(arrive_k,
    depart_{k-1}) + size_k/C, rewritten as a running maximum over arrive_j
    minus cumulative prior service.  Returns the merged index of each
    through packet, the FIFO departures in merged order, and the busy
    periods as three per-bound tables (``_busy_periods`` bounds, through
    packets before each bound, first merged arrival at it; the last bound
    is the packet count, with no through packet after it and an arrival at
    +inf).  A lane [bounds[i], bounds[i+1]) then owns the flat slices
    [before[i], before[i+1]) and [nt + bounds[i] - before[i], nt +
    bounds[i+1] - before[i+1]), with no search over the packets.
    """
    order = np.argsort(T, kind="stable")
    t = np.empty(T.size + 1)  # the last arrival, at +inf, ends the last busy period
    np.take(T, order, out=t[:-1])
    t[-1] = np.inf
    s = S.take(order)
    through = order < nt
    del order
    service = np.cumsum(s) / cap
    fifo = s  # in place: max.accumulate(t - (service - s/C)) + service
    np.divide(s, cap, out=fifo)
    np.subtract(service, fifo, out=fifo)
    np.subtract(t[:-1], fifo, out=fifo)
    np.maximum.accumulate(fifo, out=fifo)
    fifo += service
    del service
    bounds = _busy_periods(t, fifo)
    first = t[bounds]
    del t  # each packet-sized array goes once used up: they set the peak memory
    pos_t = np.flatnonzero(through)
    before = np.zeros(bounds.size, dtype=np.intp)
    # an int32 running count halves the packet-sized array; it reaches nt
    count = np.int32 if nt < 2**31 else np.intp
    before[1:] = np.cumsum(through, dtype=count)[bounds[1:] - 1]
    return pos_t, fifo, (bounds, before, first)


def _busy_periods(t, fifo):
    """Merged-index bounds of the busy periods, from 0 to the packet count.

    A busy period starts where an arrival finds the FIFO server idle; every
    work-conserving discipline has the same ones.  ``t`` ends with an
    arrival at +inf, which finds the server idle after the last one.
    """
    return np.concatenate([[0], np.flatnonzero(t[1:] > fifo) + 1])


def _serve_loop(kind, tt, ts, ct, cs, cap, d1=0.0, d2=0.0, phi1=0.5):
    """Two-queue head-selection service loop for SP, EDF and WFQ (``kind`` gps).

    FIFO's selection is EDF with equal deadlines; ``simulate`` takes FIFO
    departures from the work recursion instead.  Within each flow, EDF
    deadlines and WFQ finish tags are increasing, so the discipline's next
    packet is always one of the two queue heads.  Serves everything and
    returns the through and the cross departures as lists, aligned with the
    input arrival order, and the last departure.

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
    sp, edf, wfq = kind == "sp", kind == "edf", kind == "gps"
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

    return dep_t, dep_c, free


def _lockstep(kind, T, S, cap, lo_t, hi_t, lo_c, hi_c, d1, d2, phi1, dep):
    """Serve lanes sorted longest first, all of them a step at a time.

    ``T``/``S`` hold the arrival times and sizes of all through packets then
    all cross packets (the flat index); lane i owns [lo_t, hi_t) and
    [lo_c, hi_c) of it.  Each step applies the scalar loop's arithmetic to
    every lane: the idle jump, then under SP/EDF one head selection.  Under
    WFQ a step does three things in order: at most one arrival, if it is the
    next event up to the free instant (before the pending departure, which
    goes first on ties; through first among arrivals), which advances V and
    gets its finish tag; then the pending departure, if it is now the next
    event up to that instant; then a head selection, once no event up to
    that instant is left.  So a lane of n packets takes n steps, plus one
    for each arrival after which another is still due by the free instant:
    about 1.3n at desk scale (2.6e5 lane steps for 2.0e5 packets).  A
    finished lane has NaN heads, serves nothing and keeps its state, so the
    steps cover the lanes up to the last unfinished one.  Writes departures
    into ``dep`` at flat indices (the last slot takes the writes of lanes
    that serve nothing in a step) and returns each lane's last departure
    and the number of steps.
    """
    wfq = kind == "gps"
    it, ic = lo_t.copy(), lo_c.copy()
    free = np.full(it.size, -np.inf)
    inf, nan = np.inf, np.nan
    nothing = dep.size - 1
    if wfq:
        # a packet's finish tag is read only while it waits and its
        # departure written only once it is served, so both share ``dep``
        tags = dep
        phi2 = 1.0 - phi1
        gt, gc = lo_t.copy(), lo_c.copy()        # next packet to tag per flow
        ta = np.where(gt < hi_t, T.take(gt, mode="clip"), inf)  # ... its arrival
        ca = np.where(gc < hi_c, T.take(gc, mode="clip"), inf)
        q1 = np.zeros(it.size, dtype=np.intp)    # packets in system per flow
        q2 = np.zeros(it.size, dtype=np.intp)
        v, vt, f1, f2 = (np.zeros(it.size) for _ in range(4))
        pend = np.full(it.size, inf)             # departure not yet processed
        pend_c = np.zeros(it.size, dtype=bool)   # ... and whether it is cross

    w, steps = it.size, 0
    while w:
        steps += 1
        it_, ic_, hi_t_, hi_c_, free_ = it[:w], ic[:w], hi_t[:w], hi_c[:w], free[:w]
        th = np.where(it_ < hi_t_, T.take(it_, mode="clip"), nan)
        ch = np.where(ic_ < hi_c_, T.take(ic_, mode="clip"), nan)
        np.fmax(free_, np.fmin(th, ch), out=free_)  # idle jump
        t_ok = th <= free_
        c_ok = ch <= free_

        if wfq:
            gt_, gc_, ta_, ca_, q1_, q2_ = gt[:w], gc[:w], ta[:w], ca[:w], q1[:w], q2[:w]
            v_, vt_, f1_, f2_, pend_, pend_c_ = (v[:w], vt[:w], f1[:w], f2[:w],
                                                 pend[:w], pend_c[:w])
            # an arrival before the pending departure and up to the free
            # instant (through first on ties) advances V and gets its tag
            arrive = np.minimum(ta_, ca_)
            come = (arrive < pend_) & (arrive <= free_)
            come_t = come & (ta_ <= ca_)
            come_c = come ^ come_t
            denom = np.where(q1_ > 0, phi1, 0.0) + np.where(q2_ > 0, phi2, 0.0)
            np.copyto(v_, v_ + (arrive - vt_) * cap / denom, where=come & (denom > 0.0))
            np.copyto(vt_, arrive, where=come)
            q1_ += come_t
            q2_ += come_c
            g = np.where(come_t, gt_, gc_)
            tag = (np.maximum(np.where(come_t, f1_, f2_), v_)
                   + S.take(g, mode="clip") / np.where(come_t, phi1, phi2))
            np.copyto(f1_, tag, where=come_t)
            np.copyto(f2_, tag, where=come_c)
            tags[np.where(come, g, nothing)] = tag
            gt_ += come_t
            gc_ += come_c
            g += 1
            a = np.where(g < np.where(come_t, hi_t_, hi_c_), T.take(g, mode="clip"), inf)
            np.copyto(ta_, a, where=come_t)
            np.copyto(ca_, a, where=come_c)
            # then the pending departure, if it is now the next event (first
            # on ties); V and the finish trackers reset when the system empties
            np.minimum(ta_, ca_, out=arrive)
            gone = (pend_ <= arrive) & (pend_ <= free_)
            denom = np.where(q1_ > 0, phi1, 0.0) + np.where(q2_ > 0, phi2, 0.0)
            np.copyto(v_, v_ + (pend_ - vt_) * cap / denom, where=gone)
            np.copyto(vt_, pend_, where=gone)
            q1_ -= gone & ~pend_c_
            q2_ -= gone & pend_c_
            np.copyto(pend_, inf, where=gone)
            reset = gone & (q1_ + q2_ == 0)
            np.copyto(v_, 0.0, where=reset)
            np.copyto(f1_, 0.0, where=reset)
            np.copyto(f2_, 0.0, where=reset)

        if kind == "sp":
            take = t_ok & ~c_ok
        elif kind == "edf":
            dl_t, dl_c = th + d1, ch + d2
            take = np.where(t_ok & c_ok, (dl_t < dl_c) | ((dl_t == dl_c) & (th <= ch)), t_ok)
        else:
            take = np.where(t_ok & c_ok, tags.take(it_) <= tags.take(ic_), t_ok)
        take_c = c_ok & ~take  # neither takes: the lane is finished
        serve = take | take_c
        if wfq:
            # then a selection, once no event up to the free instant is left
            serve &= arrive > free_
            take &= serve
            take_c &= serve
        idx = np.where(take, it_, np.where(take_c, ic_, nothing))
        d = free_ + S.take(idx, mode="clip") / cap
        if wfq:
            np.copyto(pend_, d, where=serve)
            np.copyto(pend_c_, take_c, where=serve)

        dep[idx] = d
        it_ += take
        ic_ += take_c
        np.copyto(free_, d, where=serve)
        # NumPy keeps freed buffers under 1 KiB for reuse, one cache per
        # byte size, so narrowing lane by lane would leave a buffer of every
        # size behind: below 1024 lanes, widths are multiples of 128
        left = (it_ < hi_t_) | (ic_ < hi_c_)
        k = int(left[::-1].argmax())
        live = w - k if left[w - 1 - k] else 0
        w = live if live >= 1024 else min(-(-live // 128) * 128, w)
    return free, steps


def _serve_lanes(kind, T, S, cap, nt, bounds, before, lanes, d1, d2, phi1, dep):
    """Serve the given lanes exactly as the scalar loop would; last departures.

    Lane i is the busy period [bounds[i], bounds[i+1]) of the merged order,
    with ``before[i]`` through packets ahead of it (see ``_merge``).  A lane
    of one packet departs at arrival + size/C, the ``_SCALAR_LANES`` longest
    go through ``_serve_loop`` on their own packets, and the rest through
    ``_lockstep``.
    """
    last = np.empty(lanes.size)
    start, lo_t = bounds[lanes], before[lanes]
    n = bounds[lanes + 1] - start
    one = np.flatnonzero(n == 1)
    m, lo = start[one], lo_t[one]
    p = np.where(before[lanes[one] + 1] > lo, lo, nt + m - lo)  # through or cross
    dep[p] = T[p] + S[p] / cap
    last[one] = dep[p]
    many = np.flatnonzero(n > 1)
    many = many[np.argsort(-n[many], kind="stable")]
    start, end, lo_t = start[many], start[many] + n[many], lo_t[many]
    hi_t = before[lanes[many] + 1]
    del n, one, m, lo, p
    lo_c, hi_c = nt + start - lo_t, nt + end - hi_t
    for i in range(min(_SCALAR_LANES, many.size)):
        a, z, c, e = lo_t[i], hi_t[i], lo_c[i], hi_c[i]
        dep[a:z], dep[c:e], last[many[i]] = _serve_loop(
            kind, T[a:z], S[a:z], T[c:e], S[c:e], cap, d1=d1, d2=d2, phi1=phi1)
    for g in range(_SCALAR_LANES, many.size, _LOCKSTEP_LANES):
        group = slice(g, g + _LOCKSTEP_LANES)
        with np.errstate(divide="ignore", invalid="ignore"):
            last[many[group]], _ = _lockstep(kind, T, S, cap, lo_t[group], hi_t[group],
                                             lo_c[group], hi_c[group], d1, d2, phi1, dep)
    return last


def _serve(kind, T, S, nt, lanes, cap, need=None, d1=0.0, d2=0.0, phi1=0.5):
    """Departures of a non-preemptive two-flow server, busy period by busy period.

    Gives, bit for bit, what the scalar loop gives on the whole run; see the
    module docstring.  ``T``/``S`` are the flat arrivals of ``nt`` through
    packets then the cross packets, and ``lanes`` the per-bound tables of
    ``_merge``.  ``need`` stops service after the busy period that holds
    the ``need``-th through packet (None serves all).  Returns (through
    departs, cross departs); packets of later busy periods are NaN.
    """
    bounds, before, first = lanes
    dep = np.full(T.size + 1, np.nan)
    stop = need is not None and need <= nt
    last = np.full(bounds.size - 1, np.nan)  # last departure; NaN: not served yet
    while True:
        # lanes [0, served): up to the one whose through packets reach ``need``
        served = int(np.searchsorted(before, need)) if stop else bounds.size - 1
        todo = np.flatnonzero(np.isnan(last[:served]))
        last[todo] = _serve_lanes(kind, T, S, cap, nt, bounds, before, todo,
                                  d1, d2, phi1, dep)
        # a split is exact only if the server is idle when the next lane begins
        inner = np.arange(1, min(served + 1, bounds.size - 1))
        touch = inner[last[inner - 1] >= first[inner]]
        if not touch.size:
            break
        keep = np.ones(bounds.size, dtype=bool)
        keep[touch] = False
        last = last[keep[:-1]]
        last[~keep[1:][keep[:-1]]] = np.nan  # the merged lanes
        bounds, before, first = bounds[keep], before[keep], first[keep]
    return dep[:nt], dep[nt:-1]


def _serve_flows(kind, tt, ts, ct, cs, cap, need=None, d1=0.0, d2=0.0, phi1=0.5):
    """``_serve`` on per-flow arrival arrays, each sorted by time."""
    T, S = np.concatenate([tt, ct]), np.concatenate([ts, cs])
    _, _, lanes = _merge(T, S, tt.size, cap)
    return _serve(kind, T, S, tt.size, lanes, cap, need, d1=d1, d2=d2, phi1=phi1)


def _flag_window(n: int) -> np.ndarray:
    """Which of n measured departures ``_instability_flag`` reads the backlog at.

    The middle third [n//3, 2*(n//3)), then the last; none below 9.
    """
    if n < 9:
        return np.empty(0, dtype=np.intp)
    return np.append(np.arange(n // 3, 2 * (n // 3)), n - 1)


def _instability_flag(backlog: np.ndarray) -> bool:
    """End-of-run backlog more than 10x the middle third's maximum.

    ``backlog`` is sampled at the ``_flag_window`` departures: the middle
    third, then the last.
    """
    if backlog.size == 0:
        return False
    return bool(backlog[-1] > 10.0 * max(float(backlog[:-1].max()), 1.0))


def _stats_from_delays(delays: np.ndarray, grid, unstable: bool) -> DelayStats:
    sd = np.sort(delays)
    garr = np.asarray(grid, dtype=float)
    ccdf = 1.0 - np.searchsorted(sd, garr, side="right") / sd.size
    # np.quantile partitions, which a sorted array passes fast; in place,
    # since ``sd`` is no longer needed sorted
    q25, q50, q75, q99 = np.quantile(sd, [0.25, 0.5, 0.75, 0.99], overwrite_input=True)
    return DelayStats(delays.size, float(q25), float(q50), float(q75), float(q99),
                      tuple(garr.tolist()), ccdf, unstable)


def _backlog(T, nt, fifo, dep, cap):
    """Backlog (bits in system) sampled at each departure instant in ``dep``.

    It is the FIFO unfinished work, which every discipline here shares
    (module docstring): C times the wait left to the FIFO departure
    ``fifo`` (merged order) of the last arrival.  Arrivals are counted per
    flow of the flat index, the same count as in merged order.
    """
    idx = (np.searchsorted(T[:nt], dep, side="right")
           + np.searchsorted(T[nt:], dep, side="right"))
    return cap * np.maximum(fifo[idx - 1] - dep, 0.0)


def _flat_arrivals(scenario: Scenario, cfg: SimConfig, replication_index: int):
    """Arrival times and sizes of all through packets then all cross packets."""
    (tt, ts), (ct, cs) = _flow_arrivals(scenario, cfg, replication_index)
    return np.concatenate([tt, ct]), np.concatenate([ts, cs]), tt.size


def simulate(scenario: Scenario, sched: SchedulerSpec, cfg: SimConfig,
             replication_index: int = 0) -> DelayStats:
    """One replication: generate arrivals, serve at rate C, summarize delays."""
    T, S, nt = _flat_arrivals(scenario, cfg, replication_index)
    cap = scenario.capacity
    need = cfg.warmup_packets + cfg.measured_packets
    pos_t, fifo, lanes = _merge(T, S, nt, cap)
    # the packet-sized through positions are freed as soon as they are used;
    # service reads the lane tables instead
    if sched.kind == "fifo":
        dep_thr = fifo[pos_t]
        del pos_t
    else:
        del pos_t
        dep_thr, _ = _serve(sched.kind, T, S, nt, lanes, cap, need,
                            d1=sched.d1_star, d2=sched.d2_star, phi1=sched.phi1)
    del lanes
    delays = dep_thr[cfg.warmup_packets:need] - T[cfg.warmup_packets:need]
    at = dep_thr[cfg.warmup_packets + _flag_window(cfg.measured_packets)]
    backlog = _backlog(T, nt, fifo, at, cap)
    return _stats_from_delays(delays, cfg.delay_grid, _instability_flag(backlog))


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
                    outliers, cfg.replications,
                    unstable_reps=sum(st.unstable for st in stats), per_replication=ccdfs)


# ---------------------------------------------------------------------------
# Monte-Carlo martingale constancy


def martingale_mc_estimate(scenario: Scenario, t: float, samples: int, seed,
                           initial_state: int = 0) -> dict:
    """Sample mean and stderr of M(t) for the through aggregate's chain.

    M(t) = exp(-theta*(Z(t)-i)) * exp(gamma*integral(P*Z(s)-C1 ds)) started
    at Z(0)=i should have expectation exactly 1 at every t.  The chain is
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

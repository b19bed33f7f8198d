"""Earlier forms of the simulator's kernels, kept as test oracles.

- ``_serve_loop``: the one-packet-per-iteration service loop, as it was
  before busy periods were served in lockstep.  The tests assert that the
  simulator's kernel gives ``array_equal`` departures, NaN pattern and
  served bits.
- ``merge`` and ``lane_tables``: the two-flow merge by binary search (each
  packet's merged index from a search in the other flow) and the lane
  slices found by searching the through packets' merged indices, as they
  were before the merge became one stable sort with per-bound tables.
- ``packet_arrays``: packetization by a stable sort of the unit packets
  followed by the fractional ones, as it was before each dwell's packets
  were written into consecutive slots.
- ``sample_path``: an On-Off path drawn one block of dwells per call, as it
  was before all the blocks a horizon needs were drawn in one call.

Do not edit them to follow the simulator.
"""

import math

import numpy as np

from sncbounds.traffic import StatePath, spawned_rng, stationary_distribution


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


def merge(T, S, nt, cap, busy_periods):
    """Search-based stable merge of the two sorted flows and the FIFO recursion.

    ``T``/``S`` hold the ``nt`` through packets then the cross packets.  A
    through packet's merged index is its own index plus the cross packets
    strictly before it, and a cross packet's its own plus the through
    packets at or before it.  Returns (merged index of each through packet,
    FIFO departures in merged order, ``busy_periods(t, fifo)`` bounds).
    """
    tt, ct = T[:nt], T[nt:]
    pos_t = np.searchsorted(ct, tt, side="left") + np.arange(nt)
    pos_c = np.searchsorted(tt, ct, side="right") + np.arange(ct.size)
    t = np.empty(T.size + 1)  # the last arrival, at +inf, ends the last busy period
    t[pos_t], t[pos_c], t[-1] = tt, ct, np.inf
    s = np.empty(S.size)
    s[pos_t], s[pos_c] = S[:nt], S[nt:]
    del pos_c
    service = np.cumsum(s) / cap
    fifo = s  # in place: max.accumulate(t - (service - s/C)) + service
    np.divide(s, cap, out=fifo)
    np.subtract(service, fifo, out=fifo)
    np.subtract(t[:-1], fifo, out=fifo)
    np.maximum.accumulate(fifo, out=fifo)
    fifo += service
    return pos_t, fifo, busy_periods(t, fifo)


def lane_tables(T, pos_t, bounds):
    """Per-bound lane lookups by searching the through packets' merged indices.

    For every merged-index bound: the through packets before it, the flat
    index of the first cross packet at or after it, and the first arrival
    at it (+inf past the last packet).
    """
    nt, n_all = pos_t.size, T.size
    lo_t = np.searchsorted(pos_t, bounds)
    lo_c = nt + bounds - lo_t
    first = np.minimum(np.where(lo_t < nt, T.take(lo_t, mode="clip"), np.inf),
                       np.where(lo_c < n_all, T.take(lo_c, mode="clip"), np.inf))
    return lo_t, lo_c, first


def packet_arrays(path, peak):
    """Packetized arrivals of a binary On/Off path as (times, sizes) arrays.

    An On-dwell of length tau at rate P emits floor(P*tau) unit packets, the
    k-th timestamped at dwell start + k/P, plus one fractional packet of size
    P*tau - floor(P*tau) at the dwell end.  Total bits equal the fluid volume.
    """
    on = path.states == 1
    starts = np.concatenate(([0.0], np.cumsum(path.durations)[:-1]))[on]
    durs = path.durations[on]
    counts = np.floor(peak * durs).astype(np.int64)
    frac = peak * durs - counts
    total = int(counts.sum())
    cum = np.cumsum(counts) - counts  # exclusive prefix sum
    k = np.arange(total) - np.repeat(cum, counts) + 1
    unit_t = np.repeat(starts, counts) + k / peak
    keep = frac > 0
    # a fractional packet whose float timestamp collides with the last unit
    # packet would break strict ordering; drop it (volume error ~ ulp)
    last_unit = np.where(counts > 0, starts + counts / peak, -np.inf)
    keep &= (starts + durs) > last_unit
    times = np.concatenate([unit_t, (starts + durs)[keep]])
    sizes = np.concatenate([np.ones(total), frac[keep]])
    order = np.argsort(times, kind="stable")
    return times[order], sizes[order]


def sample_path(params, horizon, seed, block=1024):
    """One On-Off source over [0, horizon], its dwells drawn block by block.

    The initial state comes from the stationary law and the states
    alternate; each block is ``block`` standard exponentials divided by the
    exit rates of its states, and its ends are its cumulative sum plus the
    end of the block before.  Blocks are drawn until one ends at or past the
    horizon, and the dwell that reaches it is cut there.
    """
    rng = spawned_rng(seed)
    state = int(rng.choice(2, p=stationary_distribution([params.mu], [params.lam])))
    exits = (params.mu, params.lam)
    block_rates = np.resize(np.array([exits[state], exits[1 - state]]), block)
    dwells, ends = [], []
    t = 0.0
    while t < horizon:
        dwell = rng.standard_exponential(block) / block_rates
        end = np.cumsum(dwell)
        end += t
        dwells.append(dwell)
        ends.append(end)
        t = float(end[-1])
    end = np.concatenate(ends)
    last = int(np.searchsorted(end, horizon, side="left"))
    durations = np.concatenate(dwells)[:last + 1]
    durations[last] = horizon - (end[last - 1] if last else 0.0)
    states = (np.arange(last + 1, dtype=np.int64) + state) % 2
    return StatePath(states, durations)

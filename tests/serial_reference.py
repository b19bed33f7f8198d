"""The original scalar head-selection service loop, kept as a test oracle.

A verbatim copy of the simulator's one-packet-per-iteration service loop, as
it was before busy periods were served in lockstep.  The tests assert that
the simulator's kernel gives ``array_equal`` departures, NaN pattern and
served bits.  Do not edit it to follow the kernel.
"""

import math

import numpy as np


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

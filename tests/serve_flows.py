"""The simulator's service step on per-flow arrival arrays.

``sim.simulate`` generates and serves one flat array of both flows' packets.
The service tests build the two flows by hand or take the generated ones
apart, so they merge them here first.  The lane tests take from here the
exact busy-period rule, and inputs whose idle gaps fall inside the rounding
margin of ``_lanes``.
"""

import math

import numpy as np

from sncbounds.sim import _flat_arrivals, _lanes, _merge, _serve


def flow_arrivals(scenario, cfg, replication_index):
    """``sim._flat_arrivals`` taken apart: (times, sizes) of the through, then the cross flow."""
    T, S, nt = _flat_arrivals(scenario, cfg, replication_index)
    return (T[:nt], S[:nt]), (T[nt:], S[nt:])


def serve_flows(sched, tt, ts, ct, cs, cap, need=None, warm=0):
    """``sim._serve`` under ``sched`` on per-flow arrival arrays, each sorted by time."""
    T, S = np.concatenate([tt, ct]), np.concatenate([ts, cs])
    through, fifo, t = _merge(T, S, tt.size, cap)
    return _serve(sched, T, S, tt.size, _lanes(t, through, fifo), cap, need, warm)


def busy_periods(t, fifo):
    """Merged-index bounds at which an arrival finds the FIFO server idle,
    exactly: ``_lanes`` without its rounding margin."""
    return np.concatenate([[0], np.flatnonzero(t[1:] > fifo) + 1])


def near_ties(tt, ts, ct, cs, cap, seed):
    """The two flows with most idle gaps pulled to within a few ulps of zero.

    In merged order, the first arrival of about three in four busy periods
    moves earlier, to within 4 ulps either side of the end of the work
    before it (a running FIFO sum), where the FIFO recursion and the scalar
    loop may disagree whether the server is idle.  No arrival passes the one
    before it, so the merged order stays.  Returns (tt, ts, ct, cs, cap).
    """
    T, S = np.concatenate([tt, ct]), np.concatenate([ts, cs])
    order = np.argsort(T, kind="stable")
    t, s = T[order].tolist(), S[order].tolist()
    rng = np.random.default_rng(seed)
    end = -math.inf
    for k in range(len(t)):
        if k and t[k] > end and rng.random() < 0.75:
            near = end + int(rng.integers(-4, 5)) * math.ulp(end)
            if t[k - 1] < near < t[k]:
                t[k] = near
        end = max(end, t[k]) + s[k] / cap
    T[order] = t
    return T[:tt.size], S[:tt.size], T[tt.size:], S[tt.size:], cap

"""The simulator's service step on per-flow arrival arrays.

``sim.simulate`` generates and serves one flat array of both flows' packets.
The service tests build the two flows by hand or take the generated ones
apart, so they merge them here first.
"""

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

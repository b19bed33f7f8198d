"""Per-stage wall times of one desk-scale ``simulate`` replication.

Run from the repository root:

    PYTHONPATH=src python3 scripts/stage_times.py [--seed 3] [--repeats 7]

Setting: n1 = n2 = 5 sources of the paper's MMOO source (lambda 0.5, mu 0.1,
P 1), rho 0.75, 1e4 warm-up + 1e5 measured through packets, one
replication.  Each stage is timed alone on the same inputs, ``--repeats``
times, and the minimum is printed in milliseconds as one JSON object:

- ``arrivals``: sample paths, packetization and the per-flow sort, and
  each alone on the first horizon's inputs: ``arrivals.paths`` (the sample
  paths of all sources), ``arrivals.packetize`` (``packet_arrays`` on
  them) and ``arrivals.sort`` (each flow's packets merged into the flat
  arrays);
- ``merge``: the two-flow merge and FIFO recursion;
- ``lanes``: the lane tables (the busy-period bounds the scalar loop is
  idle at), which only SP, EDF and GPS service reads;
- ``service.<scheduler>``: departures of the through packets (FIFO reads
  them from the recursion; the others are served lane by lane, as
  ``simulate`` serves them: from the one that holds the first measured
  packet to the one that holds the last);
- ``service.<scheduler>.loop`` and ``.lockstep``: for SP, EDF and GPS, the
  part of that service spent in the scalar loop (the longest lanes) and in
  lockstep calls, ``.steps`` the lockstep steps taken and ``.lanes`` the
  lanes served (counts);
- ``backlog``: the ``unstable`` flag as ``simulate`` takes it on a stable
  run: the backlog at the last measured FIFO departure, one search per
  flow, which does not exceed 10 bits, so the flag reads no window;
- ``backlog.window``: the same with the last sample taken above 10 bits,
  so that the flag also samples the backlog at the middle third of the
  measured departures;
- ``statistics``: delay quantiles and the CCDF on the delay grid;
- ``simulate.<scheduler>``: the whole call.

The bound layer follows, in microseconds: ``bounds.<scheduler>`` is the
median, over n1 = n2 = n/2 with n = 10, 10^3, 10^5 and d = 1, 2, 5, 10 at
rho 0.75, of the minimum time of one ``standard_delay_bound`` call over
``20 * --repeats`` sweeps of that grid.  It is a warm figure: the pre-scan
axis (``standard._axis``) and the constants K, gamma, theta
(``martingale._constants``) of each reduced system are cached from the
first sweep on.  ``bounds.<scheduler>.cold`` is the same with both caches
cleared before each timed call, the cost without reuse.
``bounds.<scheduler>.refine`` is the part of the warm figure spent inside
the refinements (``standard._refine``, Newton steps in the axis coordinate
w), and ``bounds.<scheduler>.slopes`` the mean number of slope evaluations
per refinement over that grid (a count, so it repeats exactly).
``bounds.<scheduler>.martingale`` and ``bounds.<scheduler>.martingale.cold``
are the warm and cold figures of one ``martingale_delay_bound`` call on the
same grid.  Last, in milliseconds, ``bound_rows.<scheduler>`` is the
minimum time of one ``analysis.bound_rows`` over the 1001-point delay grid
0, 0.01, ..., 10 at n1 = n2 = 5, rho 0.75.
"""

import argparse
import json
import time
from statistics import median

import numpy as np

import sncbounds.martingale as martingale
import sncbounds.sim as sim
import sncbounds.standard as standard
from sncbounds import (MmooParams, Scenario, SchedulerSpec, SimConfig, martingale_delay_bound,
                       standard_delay_bound)
from sncbounds.traffic import packet_arrays, sample_path, spawned_rng
from sncbounds.analysis import bound_rows

SCHEDULERS = {
    "fifo": SchedulerSpec.fifo(),
    "sp": SchedulerSpec.sp(),
    "edf_10_1": SchedulerSpec.edf(10.0, 1.0),
    "edf_1_10": SchedulerSpec.edf(1.0, 10.0),
    "gps": SchedulerSpec.gps(0.5),
}


def best_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(min(times) * 1e3, 2)


def service_split(serve, repeats):
    """Minimum ms in the scalar loop and in lockstep over the repeats, the
    steps and the lanes served."""
    loop, lockstep, lanes = sim._serve_loop, sim._lockstep, sim._serve_lanes
    spent = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[name] += time.perf_counter() - t0
            if fn is lockstep:
                spent["steps"] += out
            return out
        return call

    def counted(*args):
        spent["lanes"] += args[5].size - 1  # between the ``bounds`` argument's
        return lanes(*args)

    best = {"loop": float("inf"), "lockstep": float("inf")}
    sim._serve_loop, sim._lockstep = timed("loop", loop), timed("lockstep", lockstep)
    sim._serve_lanes = counted
    try:
        for _ in range(repeats):
            spent.update(loop=0.0, lockstep=0.0, steps=0, lanes=0)
            serve()
            for name in best:
                best[name] = min(best[name], spent[name])
    finally:
        sim._serve_loop, sim._lockstep, sim._serve_lanes = loop, lockstep, lanes
    return ({name: round(t * 1e3, 2) for name, t in best.items()}
            | {"steps": spent["steps"], "lanes": spent["lanes"]})


BOUND_FLOWS = (10, 1_000, 100_000)
BOUND_DELAYS = (1.0, 2.0, 5.0, 10.0)
# a bound call lasts about 1e-4 s, a desk stage 1e-2 s or more: sweep the
# bound grid this many times per repeat, so its minima span comparable time
BOUND_SWEEPS_PER_REPEAT = 20
ROWS_GRID = [k / 100 for k in range(1001)]


def clear_bound_caches():
    """Empty the per-system caches of both bound families."""
    standard._axis.cache_clear()
    martingale._constants.cache_clear()


def bound_us(source, repeats):
    """Per scheduler, the median over the bound grid of the minimum us per
    standard call, warm, cold and inside the refinement, the mean slope
    evaluations per refinement, and the minimum us per martingale call,
    warm and cold.

    Each sweep times every scheduler at every point, so no minimum is taken
    from one burst of a shared machine.  The whole call is timed without
    the timer around ``_refine``, whose own overhead it would include.
    """
    refine = standard._refine
    inside = 0.0

    def timed(*args, **kwargs):
        nonlocal inside
        t0 = time.perf_counter()
        out = refine(*args, **kwargs)
        inside += time.perf_counter() - t0
        return out

    counts = []  # slope evaluations of each refinement

    def counted(slope, *args):
        counts.append(0)

        def call(th):
            counts[-1] += 1
            return slope(th)
        return refine(call, *args)

    points = [(spec, Scenario.from_utilization(n // 2, n // 2, 0.75, source), d)
              for spec in SCHEDULERS.values() for n in BOUND_FLOWS for d in BOUND_DELAYS]
    whole = [float("inf")] * len(points)
    cold = [float("inf")] * len(points)
    in_refine = [float("inf")] * len(points)
    mart = [float("inf")] * len(points)
    mart_cold = [float("inf")] * len(points)
    for _ in range(repeats * BOUND_SWEEPS_PER_REPEAT):
        for i, (spec, sc, d) in enumerate(points):
            clear_bound_caches()
            t0 = time.perf_counter()
            standard_delay_bound(sc, spec, d)
            cold[i] = min(cold[i], time.perf_counter() - t0)
            t0 = time.perf_counter()
            standard_delay_bound(sc, spec, d)
            whole[i] = min(whole[i], time.perf_counter() - t0)
            standard._refine, inside = timed, 0.0
            try:
                standard_delay_bound(sc, spec, d)
            finally:
                standard._refine = refine
            in_refine[i] = min(in_refine[i], inside)
            clear_bound_caches()
            t0 = time.perf_counter()
            martingale_delay_bound(sc, spec, d)
            mart_cold[i] = min(mart_cold[i], time.perf_counter() - t0)
            t0 = time.perf_counter()
            martingale_delay_bound(sc, spec, d)
            mart[i] = min(mart[i], time.perf_counter() - t0)
    per = len(BOUND_FLOWS) * len(BOUND_DELAYS)
    out = {}
    for j, name in enumerate(SCHEDULERS):
        cut = slice(j * per, (j + 1) * per)
        out[f"bounds.{name}"] = round(median(whole[cut]) * 1e6, 1)
        out[f"bounds.{name}.cold"] = round(median(cold[cut]) * 1e6, 1)
        out[f"bounds.{name}.refine"] = round(median(in_refine[cut]) * 1e6, 1)
        counts.clear()
        standard._refine = counted
        try:
            for spec, sc, d in points[cut]:
                standard_delay_bound(sc, spec, d)
        finally:
            standard._refine = refine
        out[f"bounds.{name}.slopes"] = round(sum(counts) / len(counts), 3)
        out[f"bounds.{name}.martingale"] = round(median(mart[cut]) * 1e6, 2)
        out[f"bounds.{name}.martingale.cold"] = round(median(mart_cold[cut]) * 1e6, 2)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)

    sc = Scenario.from_utilization(5, 5, 0.75, MmooParams(0.5, 0.1, 1.0))
    cfg = SimConfig(measured_packets=100_000, warmup_packets=10_000, replications=1,
                    master_seed=args.seed)
    cap, warm = sc.capacity, cfg.warmup_packets
    need = warm + cfg.measured_packets
    T, S, nt = sim._flat_arrivals(sc, cfg, 0)
    through, fifo, t = sim._merge(T, S, nt, cap)
    lanes = sim._lanes(t, through, fifo)

    def service(spec):
        if spec.kind == "fifo":
            return fifo[np.flatnonzero(through)]
        return sim._serve(spec, T, S, nt, lanes, cap, need, warm)[0]

    delays = service(SCHEDULERS["sp"])[warm:need] - T[warm:need]
    dep = service(SCHEDULERS["fifo"])
    at = dep[warm + sim._flag_window(cfg.measured_packets)]

    def flag(tripped):
        """The flag on the FIFO departures; ``tripped`` takes the last sample
        as +inf bits, above any window maximum."""
        last = sim._backlog(T, nt, fifo, dep[need - 1], cap)
        return sim._instability_flag(np.inf if tripped else last,
                                     lambda: sim._backlog(T, nt, fifo, at, cap))

    horizon, _ = sim._arrival_horizon(sc, need)
    flows = ((0, sc.n1), (1, sc.n2))

    def paths():
        return [[sample_path(sc.params, horizon, spawned_rng(args.seed, 0, f, j))
                 for j in range(count)] for f, count in flows]

    def packetize(sources):
        return [[packet_arrays(path, sc.params.peak) for path in flow] for flow in sources]

    sources = paths()
    packets = packetize(sources)

    r = args.repeats
    out = {
        "arrivals": best_ms(lambda: sim._flat_arrivals(sc, cfg, 0), r),
        "arrivals.paths": best_ms(paths, r),
        "arrivals.packetize": best_ms(lambda: packetize(sources), r),
        # ``_sort_flows`` empties the lists it is given
        "arrivals.sort": best_ms(lambda: sim._sort_flows(*map(list, packets)), r),
        "merge": best_ms(lambda: sim._merge(T, S, nt, cap), r),
        "lanes": best_ms(lambda: sim._lanes(t, through, fifo), r),
    }
    for name, spec in SCHEDULERS.items():
        out[f"service.{name}"] = best_ms(lambda: service(spec), r)
        if spec.kind != "fifo":
            for part, value in service_split(lambda: service(spec), r).items():
                out[f"service.{name}.{part}"] = value
    out["backlog"] = best_ms(lambda: flag(False), r)
    out["backlog.window"] = best_ms(lambda: flag(True), r)
    out["statistics"] = best_ms(
        lambda: sim._stats_from_delays(delays, cfg.delay_grid, False), r)
    for name, spec in SCHEDULERS.items():
        out[f"simulate.{name}"] = best_ms(lambda: sim.simulate(sc, spec, cfg, 0), r)
    out |= bound_us(sc.params, r)
    for name, spec in SCHEDULERS.items():
        out[f"bound_rows.{name}"] = best_ms(lambda: bound_rows(sc, spec, ROWS_GRID), r)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

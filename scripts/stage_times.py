"""Per-stage wall times of one desk-scale ``simulate`` replication.

Run from the repository root:

    PYTHONPATH=src python3 scripts/stage_times.py [--seed 3] [--repeats 7]

Setting: n1 = n2 = 5 sources of the paper's MMOO source (lambda 0.5, mu 0.1,
P 1), rho 0.75, 1e4 warm-up + 1e5 measured through packets, one
replication.  Each stage is timed alone on the same inputs, ``--repeats``
times, and the minimum is printed in milliseconds as one JSON object:

- ``arrivals``: sample paths, packetization and the per-flow sort;
- ``merge``: the two-flow merge, FIFO recursion and busy-period tables;
- ``service.<scheduler>``: departures of the through packets (FIFO reads
  them from the recursion; the others are served busy period by busy
  period);
- ``service.<scheduler>.loop`` and ``.lockstep``: for SP, EDF and GPS, the
  part of that service spent in the scalar loop (the longest busy periods)
  and in lockstep calls, and ``.steps`` the lockstep steps taken (a count);
- ``backlog``: the backlog sample behind the ``unstable`` flag, taken at the
  departures the flag reads, as ``simulate`` takes it;
- ``statistics``: delay quantiles and the CCDF on the delay grid;
- ``simulate.<scheduler>``: the whole call.
"""

import argparse
import json
import time

import sncbounds.sim as sim
from sncbounds import MmooParams, Scenario, SchedulerSpec, SimConfig

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
    """Minimum ms in the scalar loop and in lockstep over the repeats, and the steps."""
    loop, lockstep = sim._serve_loop, sim._lockstep
    spent = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[name] += time.perf_counter() - t0
            if fn is lockstep:
                spent["steps"] += out[1]
            return out
        return call

    best = {"loop": float("inf"), "lockstep": float("inf")}
    sim._serve_loop, sim._lockstep = timed("loop", loop), timed("lockstep", lockstep)
    try:
        for _ in range(repeats):
            spent.update(loop=0.0, lockstep=0.0, steps=0)
            serve()
            for name in best:
                best[name] = min(best[name], spent[name])
    finally:
        sim._serve_loop, sim._lockstep = loop, lockstep
    return {name: round(t * 1e3, 2) for name, t in best.items()} | {"steps": spent["steps"]}


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
    pos_t, fifo, lanes = sim._merge(T, S, nt, cap)

    def service(spec):
        if spec.kind == "fifo":
            return fifo[pos_t]
        return sim._serve(spec.kind, T, S, nt, lanes, cap, need,
                          d1=spec.d1_star, d2=spec.d2_star, phi1=spec.phi1)[0]

    dep_win = service(SCHEDULERS["sp"])[warm:need]
    delays = dep_win - T[warm:need]
    flagged = sim._flag_window(cfg.measured_packets)

    r = args.repeats
    out = {
        "arrivals": best_ms(lambda: sim._flat_arrivals(sc, cfg, 0), r),
        "merge": best_ms(lambda: sim._merge(T, S, nt, cap), r),
    }
    for name, spec in SCHEDULERS.items():
        out[f"service.{name}"] = best_ms(lambda: service(spec), r)
        if spec.kind != "fifo":
            for part, value in service_split(lambda: service(spec), r).items():
                out[f"service.{name}.{part}"] = value
    out["backlog"] = best_ms(
        lambda: sim._instability_flag(sim._backlog(T, nt, fifo, dep_win[flagged], cap)), r)
    out["statistics"] = best_ms(
        lambda: sim._stats_from_delays(delays, cfg.delay_grid, False), r)
    for name, spec in SCHEDULERS.items():
        out[f"simulate.{name}"] = best_ms(lambda: sim.simulate(sc, spec, cfg, 0), r)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

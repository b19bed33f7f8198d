"""The layers (modules) of sncbounds, the functions traced at their
boundaries, and the per-layer metrics derived from the spans.

Traced are the public functions the workloads call, every public function
one module imports from another (``sim.sample_path``, ``analysis.replicate``,
``general.aggregate_source``...), and the few called inside one module that
a per-layer metric names (``sim.simulate``, ``general.generalized_decay``,
``traffic.stationary_distribution``).  ``cli`` only parses arguments and
``errors`` only defines types, so neither has a layer metric.

Every per-layer value is the median over the run's rounds of that round's
total, so it is comparable with ``round_s``.  Durations in ``us_p50`` and
``us_p99`` are per call and include children.
"""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import median

from spans import INFO, NAME, PARENT, ROUND, self_times
from workloads import label

LAYERS = ("traffic", "sim", "martingale", "standard", "general", "analysis")
SCHEDULERS = ("fifo", "sp", "edf_10_1", "edf_1_10", "gps")

TRACED = (
    "traffic.spawned_rng",
    "traffic.sample_path",
    "traffic.packet_arrays",
    "traffic.aggregate_source",
    "traffic.stationary_distribution",
    "sim.simulate",
    "sim.replicate",
    "martingale.martingale_constants",
    "martingale.gps_constants",
    "martingale.martingale_delay_bound",
    "standard.standard_delay_bound",
    "general.generalized_decay",
    "general.mmoo_consistency_check",
    "general.general_sample_path_bound",
    "analysis.compare_experiment",
    "analysis.scaling_experiment",
    "analysis.admission_max_flows",
)


def _bound_info(args, result):
    value = result.value
    return {"invalid": True} if not (math.isfinite(value) and value > 0) else None


HOOKS = {
    # key (master_seed, replication, flow, subflow): the flow of what follows
    "traffic.spawned_rng": lambda a, r: {"flow": a[2]} if len(a) == 4 else None,
    "traffic.sample_path": lambda a, r: {"jumps": int(r.states.size)},
    "traffic.packet_arrays": lambda a, r: {"packets": int(r[0].size)},
    "sim.simulate": lambda a, r: {"sched": label(a[1]),
                                  "need": a[2].warmup_packets + a[2].measured_packets},
    "martingale.martingale_delay_bound": _bound_info,
    "standard.standard_delay_bound": _bound_info,
}

S, COUNT, NS, US, RATIO = "s", "count", "ns", "us", "ratio"

PER_LAYER = (
    [(f"{layer}.self_s", S) for layer in LAYERS]
    + [
        ("traffic.sample_path.calls", COUNT),
        ("traffic.sample_path.self_s", S),
        ("traffic.sample_path.jumps", COUNT),
        ("traffic.sample_path.ns_per_jump", NS),
        ("traffic.packet_arrays.self_s", S),
        ("traffic.packet_arrays.packets", COUNT),
        ("traffic.spawned_rng.self_s", S),
        ("traffic.pkts_per_needed_pkt", RATIO),
        ("traffic.aggregate_source.self_s", S),
        ("traffic.stationary_distribution.self_s", S),
    ]
    + [(f"sim.simulate.self_s.{s}", S) for s in SCHEDULERS]
    + [(f"sim.simulate.ns_per_pkt.{s}", NS) for s in SCHEDULERS]
    + [
        ("sim.replicate.self_s", S),
        ("analysis.compare_experiment.self_s", S),
        ("analysis.compare_experiment.failed", COUNT),
        ("analysis.scaling_experiment.self_s", S),
        ("analysis.scaling_experiment.failed", COUNT),
        ("analysis.admission_max_flows.self_s", S),
        ("analysis.admission_max_flows.failed", COUNT),
        ("analysis.admission_max_flows.bound_calls", COUNT),
        ("martingale.martingale_delay_bound.calls", COUNT),
        ("martingale.martingale_delay_bound.us_p50", US),
        ("martingale.martingale_delay_bound.us_p99", US),
        ("martingale.martingale_delay_bound.failed", COUNT),
        ("standard.standard_delay_bound.calls", COUNT),
        ("standard.standard_delay_bound.self_s", S),
        ("standard.standard_delay_bound.us_p50", US),
        ("standard.standard_delay_bound.us_p99", US),
        ("standard.standard_delay_bound.failed", COUNT),
        ("general.generalized_decay.calls", COUNT),
        ("general.generalized_decay.self_s", S),
        ("general.generalized_decay.failed", COUNT),
        ("general.mmoo_consistency_check.self_s", S),
        ("general.mmoo_consistency_check.failed", COUNT),
        ("general.general_sample_path_bound.self_s", S),
    ]
)


def _percentile_us(durations: list, q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def layer_metrics(spans: list, rounds: int) -> dict:
    """Every ``PER_LAYER`` metric as {name: {"value", "unit"}}."""
    selves = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def info(i, key, default=0):
        return (spans[i][INFO] or {}).get(key, default)

    def per_round(names, value, where=lambda i: True) -> list:
        sums = [0.0] * rounds
        for name in names:
            for i in by_name.get(name, ()):
                if where(i):
                    sums[spans[i][ROUND]] += value(i)
        return sums

    def total(name, value=lambda i: selves[i], where=lambda i: True) -> float:
        return median(per_round([name], value, where))

    def ratio(num: list, den: list, scale: float = 1.0) -> float:
        vals = [a / b * scale for a, b in zip(num, den) if b]
        return median(vals) if vals else 0.0

    def failed(i):
        return 1 if info(i, "error", None) or info(i, "invalid", False) else 0

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    out = {}
    for layer in LAYERS:
        names = [n for n in by_name if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = median(per_round(names, lambda i: selves[i]))

    sp = "traffic.sample_path"
    out[f"{sp}.calls"] = total(sp, lambda i: 1)
    out[f"{sp}.self_s"] = total(sp)
    out[f"{sp}.jumps"] = total(sp, lambda i: info(i, "jumps"))
    out[f"{sp}.ns_per_jump"] = ratio(per_round([sp], lambda i: selves[i]),
                                     per_round([sp], lambda i: info(i, "jumps")), 1e9)
    pa = "traffic.packet_arrays"
    out[f"{pa}.self_s"] = total(pa)
    out[f"{pa}.packets"] = total(pa, lambda i: info(i, "packets"))
    for name in ("traffic.spawned_rng", "traffic.aggregate_source",
                 "traffic.stationary_distribution", "sim.replicate",
                 "standard.standard_delay_bound", "general.generalized_decay",
                 "general.mmoo_consistency_check", "general.general_sample_path_bound"):
        out[f"{name}.self_s"] = total(name)

    # through-flow packets: packet_arrays calls whose sibling spawned_rng
    # just before them carried flow 0, under each simulate span
    flow_of, through = {}, defaultdict(float)
    for s in spans:
        if s[NAME] == "traffic.spawned_rng" and s[INFO]:
            flow_of[s[PARENT]] = s[INFO]["flow"]
        elif s[NAME] == pa and s[INFO] and flow_of.get(s[PARENT]) == 0:
            through[s[PARENT]] += s[INFO]["packets"]
    sim = "sim.simulate"
    out["traffic.pkts_per_needed_pkt"] = ratio(per_round([sim], lambda i: through[i]),
                                               per_round([sim], lambda i: info(i, "need")))
    for sched in SCHEDULERS:
        mine = (lambda i, sched=sched: info(i, "sched", None) == sched)
        out[f"{sim}.self_s.{sched}"] = total(sim, where=mine)
        out[f"{sim}.ns_per_pkt.{sched}"] = ratio(
            per_round([sim], lambda i: selves[i], mine),
            per_round([sim], lambda i: info(i, "need"), mine), 1e9)

    for name in ("analysis.compare_experiment", "analysis.scaling_experiment",
                 "analysis.admission_max_flows"):
        out[f"{name}.self_s"] = total(name)
    for name in ("analysis.compare_experiment", "analysis.scaling_experiment",
                 "analysis.admission_max_flows", "martingale.martingale_delay_bound",
                 "standard.standard_delay_bound", "general.generalized_decay",
                 "general.mmoo_consistency_check"):
        out[f"{name}.failed"] = total(name, failed)
    adm = "analysis.admission_max_flows"
    out[f"{adm}.bound_calls"] = median(per_round(
        ["martingale.martingale_delay_bound", "standard.standard_delay_bound"],
        lambda i: 1, lambda i: spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == adm))

    for name in ("martingale.martingale_delay_bound", "standard.standard_delay_bound",
                 "general.generalized_decay"):
        out[f"{name}.calls"] = total(name, lambda i: 1)
    for name in ("martingale.martingale_delay_bound", "standard.standard_delay_bound"):
        out[f"{name}.us_p50"] = _percentile_us(durations(name), 0.50)
        out[f"{name}.us_p99"] = _percentile_us(durations(name), 0.99)

    units = dict(PER_LAYER)
    return {name: {"value": out[name], "unit": units[name]} for name, _ in PER_LAYER}

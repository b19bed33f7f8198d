"""Benchmark of sncbounds: desk ``compare`` per scheduler, many-sources bounds.

Run from the repository root:

    python3 bench/run.py --workload desk-fifo --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the current directory; the run
fails (exit 2, no result) when that is missing.  Set-up is timed
``SETUP_REPEATS`` times and reported as the median: a fresh interpreter
importing ``sncbounds``, input generation and one small warm-up operation.
An untimed reproducibility check follows.  Rounds then run closed-loop,
a new one starting while less than ``--seconds`` have passed.  After each
timed part of a round (one compare, or one half of a many-sources pass) a
fixed reference kernel that uses no sncbounds code is timed for a tenth of
that part's duration.  The gated round time ``round_ref`` sums, over the
parts, the median of each part's seconds divided by the median reference
time measured right after it, because the speed of a shared machine
drifts by tens of percent over minutes; raw seconds are in the report.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the public functions are wrapped (see ``layers.py``) and the metrics are the
per-layer ones.  The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full report (per-part timings, projections, machine, failures, tracing
accounting), also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

WORKLOAD_NAMES = ("desk-fifo", "desk-loop", "many-sources")
SETUP_REPEATS = 5
# share of each timed part's duration spent re-timing the speed reference after it
REFERENCE_SHARE = 0.1
IMPORT_CODE = ("import time; t = time.perf_counter(); import sncbounds; "
               "print(time.perf_counter() - t)")
# projections: the full protocol and the desk gates in tests/test_acceptance.py
DESK_PACKETS, FULL_PACKETS, FULL_REPLICATIONS = 110_000, 11_000_000, 100
DESK_REPLICATIONS = 10
DESK_RUNS_SCHEDULERS = ("fifo", "sp", "edf_10_1", "edf_1_10")
DESK_RUNS_GATE_S, CRITERION_09_GATE_S = 300.0, 60.0


def import_seconds(src: Path) -> float:
    """Time to import sncbounds in a fresh interpreter (startup excluded)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def reference_kernel() -> float:
    """Fixed work that uses no sncbounds code, timed to track machine speed.

    It mixes what the workloads spend their time on: scalar NumPy random
    draws in a Python loop, a sort, and a small dense eigen solve.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(4000):
        total += rng.exponential(2.0) + rng.choice(3)
    x = np.sort(rng.random(50_000))
    m = rng.random((60, 60))
    return total + x[-1] + float(np.linalg.eigvals(m + m.T).real.max())


def time_reference(budget_s: float, samples: list) -> None:
    """Append reference-kernel timings until ``budget_s`` has passed (at least one)."""
    end = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        reference_kernel()
        now = time.perf_counter()
        samples.append(now - t0)
        if now >= end:
            return


def git_commit(root: Path) -> str:
    """Commit of ``root`` read from .git without running git; "unknown" elsewhere."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(root: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(root)}


def summary(values: list, unit: str) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": median(values), "unit": unit, "samples": len(values),
            "q1": q1, "q3": q3}


def projections(parts: dict) -> dict:
    """Labelled, ungated extrapolations from the per-scheduler compare times."""
    compare = {k.split(".", 1)[1]: v["value"] for k, v in parts.items()
               if k.startswith("compare_s.")}
    out = {}
    scale = FULL_PACKETS / DESK_PACKETS * FULL_REPLICATIONS
    for s, sec in compare.items():
        out[f"full_protocol_h.{s}"] = {
            "value": sec * scale / 3600, "unit": "h",
            "basis": f"compare_s.{s} x {FULL_PACKETS:.2g}/{DESK_PACKETS:.2g} packets "
                     f"x {FULL_REPLICATIONS} replications, serial"}
    share = {s: compare[s] * DESK_REPLICATIONS for s in DESK_RUNS_SCHEDULERS if s in compare}
    if share:
        out["desk_runs_s"] = {
            "value": sum(share.values()), "unit": "s", "gate_s": DESK_RUNS_GATE_S,
            "basis": f"{DESK_REPLICATIONS} x compare_s of {sorted(share)} "
                     f"(the fixture runs {list(DESK_RUNS_SCHEDULERS)})"}
    if "gps" in compare:
        out["criterion_09_s"] = {
            "value": compare["gps"] * DESK_REPLICATIONS, "unit": "s",
            "gate_s": CRITERION_09_GATE_S,
            "basis": f"{DESK_REPLICATIONS} x compare_s.gps"}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, out: Path,
        make=None) -> tuple[dict, dict]:
    """Set up, check, run rounds; returns (result, report).

    ``root`` holds ``src/``; reports and spans are written to ``out``.
    ``make(seed)`` builds the workload (default: the named one).
    """
    from layers import HOOKS, LAYERS, TRACED, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, Ledger

    make = make or WORKLOADS[workload]
    setup = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(root / "src")
        t0 = time.perf_counter()
        wl = make(seed)
        wl.warm_up()
        setup.append(imported + time.perf_counter() - t0)

    ledger = Ledger()
    wl.reproducibility(ledger)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(TRACED, HOOKS)
    rounds, reference, ratios = [], [], {}

    def pause(part: str, seconds_timed: float) -> None:
        after = []
        time_reference(REFERENCE_SHARE * seconds_timed, after)
        reference.extend(after)
        ratios.setdefault(part, []).append(seconds_timed / median(after))

    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < seconds:
            if tracer:
                tracer.round = len(rounds)
            rounds.append(wl.round(len(rounds), ledger, pause))
    finally:
        if tracer:
            tracer.uninstall()

    round_s = [sum(parts.values()) for parts in rounds]
    round_ref = sum(median(r) for r in ratios.values())
    parts = {name: summary([p[name] for p in rounds], "s") for name in rounds[0]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(root), "rounds": len(rounds),
        "round_s": summary(round_s, "s"), "parts": parts,
        "reference_s": summary(reference, "s"),
        "parts_ref": {part: summary(r, "ref") for part, r in ratios.items()},
        "round_ref": round_ref,
        "setup_s": {"samples": setup, "value": median(setup), "unit": "s"},
        "projections": projections(parts),
        "failures": ledger.failure_list(),
    }
    if tracer:
        metrics = layer_metrics(tracer.spans, len(rounds))
        layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        report["tracing"] = tracing_report(out, workload, median(round_s), round_ref,
                                           median(reference), layer_sum, len(tracer.spans),
                                           tracer.hook_errors)
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "round_ref": {"value": round_ref, "unit": "ref"},
            "ok_frac": {"value": 1 - ledger.failed / ledger.attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": ledger.incorrect == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}

    out.mkdir(exist_ok=True)
    (out / f"{workload}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    if tracer:
        (out / f"{workload}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "round", "info"],
             "spans": tracer.spans}))
    return result, report


def tracing_report(out: Path, workload: str, round_s: float, round_ref: float,
                   reference_s: float, layer_sum: float, spans: int, hook_errors: int) -> dict:
    """Traced minus untraced round time, against this workload's last untraced report.

    The difference is taken on ``round_ref`` and converted to seconds at the
    traced run's reference time, so machine drift between the runs cancels.
    """
    untraced = None
    try:
        untraced = json.loads((out / f"{workload}-trace0.json").read_text())["round_ref"]
    except (OSError, ValueError, KeyError):
        pass
    return {
        "round_s_traced": round_s,
        "round_ref_traced": round_ref,
        "round_ref_untraced": untraced,
        "overhead_s": None if untraced is None else (round_ref - untraced) * reference_s,
        "layer_self_s_sum": layer_sum,
        "spans": spans, "hook_errors": hook_errors,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    pkg = root / "src" / "sncbounds"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no sncbounds package at {pkg}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import sncbounds

    if Path(sncbounds.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported sncbounds from {sncbounds.__file__}, not {pkg}",
              file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), root,
                         root / ".bench_out")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

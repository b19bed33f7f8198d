"""Alternating A/B runs of the benchmark on two source trees, with verdicts.

Run from anywhere:

    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --workload desk-fifo \
        [--pairs 10] [--seconds 30] [--seed 11]

Pair i runs ``python3 bench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` in each tree, the parent first in even pairs and the change
first in odd ones, one run at a time, and reads the result from the last
line of its output.  It prints one JSON object: per end-to-end metric of
the parent tree's ``BENCHMARK.json`` (read, never written), each side's
runs, quartiles and median, the pairs the change won (ties count for
neither), and a verdict:

- ``gain``: the change won at least 9/10 of the pairs, and its median beats
  the parent's by more than the parent's quartile distance;
- ``unresolved``: otherwise, where the parent's quartile distance exceeds the
  metric's bound and not every change run beats every parent run;
- ``regression``: otherwise, where the change's median is worse than the
  parent's by more than the bound;
- ``within bound``: anything else.

A bound is read as a fraction of the parent's median.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def quartiles(runs):
    """(q1, median, q3) of the runs, by the inclusive method."""
    return tuple(quantiles(runs, n=4, method="inclusive"))


def verdict(parent, change, better, bound):
    """Wins of the change and its verdict for one metric (module docstring).

    ``parent`` and ``change`` are the runs of each side in pair order,
    ``better`` is "lower" or "higher", ``bound`` a fraction of the parent's
    median.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, mid, q3 = quartiles(parent)
    gain = sign * (mid - median(change))  # > 0 when the change is better
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return wins, "gain"
    allowed = bound * abs(mid)
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > allowed and not every_run_better:
        return wins, "unresolved"
    if -gain > allowed:
        return wins, "regression"
    return wins, "within bound"


def run_once(tree, workload, seed, seconds):
    """The ``metrics`` of one benchmark run in ``tree``, by name: value."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed + i, args.seconds))
    out = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
           "seeds": [args.seed, args.seed + args.pairs - 1],
           "first": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
           "metrics": {}}
    for m in spec:
        side = {s: [r[m["name"]] for r in runs[s]] for s in runs}
        wins, word = verdict(side["parent"], side["change"], m["better"], m["bound"])
        out["metrics"][m["name"]] = {
            "better": m["better"], "bound": m["bound"],
            **{s: {"runs": v, "q1_median_q3": quartiles(v)} for s, v in side.items()},
            "change_wins": wins, "verdict": word}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()

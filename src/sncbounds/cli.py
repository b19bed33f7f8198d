"""Command-line interface: bound, simulate, compare, scaling, admission, verify.

Scenario parameters come either from flags (--lambda --mu --peak --n1 --n2
and one of --rho / --per-flow-capacity) or from a JSON scenario file.  Delay
grids accept a single value, a comma list, or start:stop:count.  Only this
module knows an output format: each table subcommand turns its arguments into
rows and a JSON document, and ``_emit`` writes the rows as CSV (default), under
a header of their keys, or the document as JSON, to --out or stdout.  CSV is
byte-stable for a fixed configuration and master seed.  Column layouts are
documented in docs/formats.md.
A failed run prints ``error: ...`` on stderr and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import (
    AdmissionQuery,
    ExperimentSpec,
    admission_max_flows,
    bound_rows,
    compare_experiment,
    scaling_experiment,
    verify,
)
from .errors import SncboundsError
from .martingale import SchedulerSpec
from .sim import SimConfig, replicate
from .traffic import MmooParams, Scenario


def _parse_grid(text: str) -> tuple:
    if ":" in text:
        start, stop, count = text.split(":")
        return tuple(np.linspace(float(start), float(stop), int(count)).tolist())
    return tuple(float(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# flag groups, each declared once


def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                   help="On->Off rate (default 0.5)")
    p.add_argument("--mu", type=float, default=0.1, help="Off->On rate (default 0.1)")
    p.add_argument("--peak", type=float, default=1.0, help="peak rate while On (default 1)")


def _add_scenario_args(p: argparse.ArgumentParser):
    p.add_argument("--scenario", help="JSON scenario file (overrides the flags below)")
    _add_source_args(p)
    p.add_argument("--n1", type=int, default=5, help="through sub-flows (default 5)")
    p.add_argument("--n2", type=int, default=5, help="cross sub-flows (default 5)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--rho", type=float, help="per-flow utilization in (0,1)")
    g.add_argument("--per-flow-capacity", dest="c", type=float,
                   help="per-flow capacity c (server rate is (n1+n2)*c)")


def _add_scheduler_args(p: argparse.ArgumentParser):
    p.add_argument("--scheduler", choices=("fifo", "sp", "edf", "gps"), default="fifo")
    p.add_argument("--d1", type=float, default=0.0, help="EDF through deadline")
    p.add_argument("--d2", type=float, default=0.0, help="EDF cross deadline")
    p.add_argument("--phi1", type=float, default=0.5, help="GPS through weight")


def _add_grid_arg(p: argparse.ArgumentParser):
    p.add_argument("--d", default="1,2,3,4,5,6,7,8,9,10",
                   help="delay grid: value, comma list, or start:stop:count")


def _add_sim_args(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--reps", type=int, default=10, help="replications (full scale: 100)")
    p.add_argument("--packets", type=int, default=100_000,
                   help="measured through packets (full scale: 10^7)")
    p.add_argument("--warmup", type=int, default=10_000,
                   help="discarded through packets (full scale: 10^6)")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel replications, at least 1 (at most one process per replication "
                        "and CPU); a process pool pays off only when one replication outlasts its "
                        "start-up, about 10 ms: at desk size FIFO runs slower with it")


def _add_delay_arg(p: argparse.ArgumentParser):
    p.add_argument("--delay", type=float, default=5.0, help="target delay d")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


# ---------------------------------------------------------------------------
# arguments to inputs, rows to output


def _scenario_from_args(args) -> Scenario:
    if args.scenario:
        with open(args.scenario) as fh:
            return Scenario.from_json_dict(json.load(fh))
    params = MmooParams(args.lam, args.mu, args.peak)
    if args.c is not None:
        return Scenario(args.n1, args.n2, args.c, params)
    rho = args.rho if args.rho is not None else 0.75
    return Scenario.from_utilization(args.n1, args.n2, rho, params)


def _scheduler_from_args(args) -> SchedulerSpec:
    # each kind reads only its own fields: only EDF the deadlines, only GPS phi1
    return SchedulerSpec(args.scheduler, args.d1, args.d2, args.phi1)


def _sim_config_from_args(args) -> SimConfig:
    return SimConfig(measured_packets=args.packets, warmup_packets=args.warmup,
                     replications=args.reps, delay_grid=_parse_grid(args.d),
                     master_seed=args.seed)


def _strict(doc):
    """``doc`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    return doc


def _emit(args) -> int:
    """Write the rows as CSV or the document as JSON, to --out or stdout."""
    rows, doc = args.table(args)
    if args.format == "json":
        text = json.dumps(_strict(doc), indent=2) + "\n"
    else:
        # every table has at least one row, and its keys are the header
        lines = [",".join(rows[0])] + [
            ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row.values())
            for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _bound(args):
    rows = bound_rows(_scenario_from_args(args), _scheduler_from_args(args),
                      _parse_grid(args.d))
    return rows, rows


def _simulate(args):
    box = replicate(_scenario_from_args(args), _scheduler_from_args(args),
                    _sim_config_from_args(args), n_jobs=args.jobs)
    rows = [{"d": d, "median": float(box.median[j]), "q25": float(box.q25[j]),
             "q75": float(box.q75[j]), "min": float(box.minimum[j]),
             "max": float(box.maximum[j]), "outlier_count": len(box.outliers[j])}
            for j, d in enumerate(box.delay_grid)]
    doc = {"delay_grid": list(box.delay_grid), "median": box.median.tolist(),
           "q25": box.q25.tolist(), "q75": box.q75.tolist(),
           "min": box.minimum.tolist(), "max": box.maximum.tolist(),
           "outliers": [list(o) for o in box.outliers],
           "replications": box.replications, "unstable_reps": box.unstable_reps}
    return rows, doc


def _compare(args):
    spec = ExperimentSpec(_scenario_from_args(args), _scheduler_from_args(args),
                          _sim_config_from_args(args))
    rows = compare_experiment(spec, n_jobs=args.jobs)
    return rows, rows


def _scaling(args):
    result = scaling_experiment(_scenario_from_args(args),
                                [int(x) for x in args.n_list.split(",")],
                                args.delay, _scheduler_from_args(args))
    rows = [dict(r, alpha_fit=result["alpha_fit"], alpha_closed=result["alpha_closed"])
            for r in result["rows"]]
    return rows, result


def _admission(args):
    sched = _scheduler_from_args(args)
    params = MmooParams(args.lam, args.mu, args.peak)
    rows = []
    for cap in (float(x) for x in args.capacity.split(",")):
        for method in (("martingale", "standard") if args.method == "both"
                       else (args.method,)):
            q = AdmissionQuery(cap, args.delay, args.epsilon, sched, params,
                               method=method)
            res = admission_max_flows(q)
            rows.append({"capacity": cap, "d": args.delay, "epsilon": args.epsilon,
                         "method": method, "scheduler": sched.kind, **res})
    return rows, rows


def _cmd_verify(args) -> int:
    failed = False
    for name, ok, detail in verify(args.suite):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed |= not ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncbounds",
        description="Delay-violation bounds for Markov-modulated On-Off traffic "
                    "under FIFO/SP/EDF/GPS, with a packet-level validation simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, table, help_text, *groups):
        p = sub.add_parser(name, help=help_text)
        for add_group in groups:
            add_group(p)
        p.set_defaults(func=_emit, table=table)
        return p

    add("bound", _bound, "evaluate Palm-corrected delay bounds on a grid",
        _add_scenario_args, _add_scheduler_args, _add_grid_arg, _add_output_args)
    add("simulate", _simulate, "run the packet-level simulator",
        _add_scenario_args, _add_scheduler_args, _add_grid_arg, _add_sim_args,
        _add_output_args)
    add("compare", _compare, "bounds vs simulation, one CSV row per grid point",
        _add_scenario_args, _add_scheduler_args, _add_grid_arg, _add_sim_args,
        _add_output_args)

    p = add("scaling", _scaling, "bounds as the flow count grows, rho and c fixed",
            _add_scenario_args, _add_scheduler_args, _add_delay_arg, _add_output_args)
    p.add_argument("--n-list", default="10,20,50,100,200,500,1000",
                   help="comma list of even flow counts")

    p = add("admission", _admission, "largest admissible flow count per capacity",
            _add_source_args, _add_scheduler_args, _add_delay_arg, _add_output_args)
    p.add_argument("--capacity", required=True, help="comma list of capacities C")
    p.add_argument("--epsilon", type=float, default=1e-3, help="violation target")
    p.add_argument("--method", choices=("martingale", "standard", "both"),
                   default="both")

    p = add("verify", None, "run a named property suite")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("suite", help="suite name or 'all'")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SncboundsError, ValueError, ArithmeticError, OSError) as exc:
        # ArithmeticError: a zero division in scaling's ratio once K**n
        # underflows at large flow counts; OSError: an unreadable --scenario
        # file or an unwritable --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

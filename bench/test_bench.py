"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repo root."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import sncbounds  # noqa: E402
from spans import END, INFO, START, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Desk,
    Ledger,
    NumericFailure,
    WrongResult,
    check_bound,
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] > b [1, 6] > c [2, 5];  a > d [7, 9]
    spans = [["a", 0, 10, -1, 0, None], ["b", 1, 6, 0, 0, None],
             ["c", 2, 5, 1, 0, None], ["d", 7, 9, 0, 0, None]]
    assert self_times(spans) == [10 - 5 - 2, 5 - 3, 3, 2]


def test_tracer_nests_spans_and_restores_bindings():
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 4.0, 6.0]))
    inner = tracer.wrap("m.inner", lambda: 7)
    outer = tracer.wrap("m.outer", lambda: inner() + 1)
    assert outer() == 8
    (o, i) = tracer.spans
    assert (o[START], o[END], i[START], i[END]) == (0.0, 6.0, 1.0, 4.0)
    assert self_times(tracer.spans) == [3.0, 3.0]

    original = sncbounds.sim.sample_path
    tracer = Tracer()
    tracer.install(["traffic.sample_path"])
    assert sncbounds.sim.sample_path is not original
    assert sncbounds.traffic.sample_path is sncbounds.sim.sample_path
    tracer.uninstall()
    assert sncbounds.sim.sample_path is original
    assert sncbounds.traffic.sample_path is original


def test_exception_counted_once_at_raising_layer():
    tracer = Tracer()

    def boom():
        raise OverflowError("math range error")

    inner = tracer.wrap("martingale.martingale_delay_bound", boom)
    outer = tracer.wrap("analysis.scaling_experiment", lambda: inner())
    with pytest.raises(OverflowError):
        outer()
    outer_span, inner_span = tracer.spans
    assert inner_span[INFO] == {"error": "OverflowError"}
    assert outer_span[INFO] is None
    m = layers.layer_metrics(tracer.spans, 1)
    assert m["martingale.martingale_delay_bound.failed"]["value"] == 1
    assert m["analysis.scaling_experiment.failed"]["value"] == 0


def test_raised_exception_and_zero_bound_count_as_failed():
    ledger = Ledger()

    def raises():
        raise ZeroDivisionError("float division by zero")

    ledger.run("scaling_experiment", "fifo", raises)
    ledger.run("martingale_delay_bound", "fifo n=100000 d=1", lambda: 0.0, check_bound)
    ledger.run("martingale_delay_bound", "fifo n=10 d=1", lambda: 0.25, check_bound)
    assert (ledger.attempted, ledger.failed, ledger.incorrect) == (3, 2, 0)
    errors = [f["error"] for f in ledger.failure_list()]
    assert any(e == "ZeroDivisionError" for e in errors)
    assert any(e.startswith("NumericFailure") for e in errors)

    def wrong(_):
        raise WrongResult("CCDF increases with d")

    ledger.run("compare_experiment", "fifo", lambda: None, wrong)
    assert (ledger.failed, ledger.incorrect) == (3, 1)

    # a 0.0 bound also counts at the bound's own layer in the trace
    class Bound:
        value = 0.0

    tracer = Tracer()
    tracer.wrap("standard.standard_delay_bound", lambda: Bound(),
                layers.HOOKS["standard.standard_delay_bound"])()
    m = layers.layer_metrics(tracer.spans, 1)
    assert m["standard.standard_delay_bound.failed"]["value"] == 1


@pytest.mark.parametrize("value", [0.0, math.inf, math.nan, -1e-300])
def test_check_bound_rejects_unusable_values(value):
    with pytest.raises(NumericFailure):
        check_bound(value)


def test_metric_names_and_spec_agree():
    names = ([m["name"] for m in SPEC["end_to_end"]] + [m["name"] for m in SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]])
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) == list(bench_run.WORKLOAD_NAMES)


SMALL = {
    "desk-fifo": lambda seed: Desk(seed, ("fifo",), warmup=200, measured=2_000),
    "desk-loop": lambda seed: Desk(seed, ("sp", "edf_10_1", "edf_1_10", "gps"),
                                   warmup=200, measured=2_000),
    "many-sources": WORKLOADS["many-sources"],
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, tmp_path):
    """Short untraced then traced run: every metric present, named, finite."""
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for trace, expected in ((False, e2e), (True, per_layer)):
        result, report = bench_run.run(workload, 3, 0.01, trace, ROOT, tmp_path,
                                       make=SMALL[workload])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        json.dumps(result)
    assert report["tracing"]["hook_errors"] == 0
    assert report["tracing"]["overhead_s"] is not None
    if workload == "many-sources":
        assert 0 < result["failed"] < result["attempted"]
        errors = {f["error"].split(":")[0] for f in report["failures"]}
        assert {"OverflowError", "ZeroDivisionError", "NumericFailure"} <= errors
        assert {"ReducibleChainError", "EigenvectorError"} & errors
    else:
        assert result["failed"] == 0
        assert result["metrics"]["traffic.sample_path.calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "desk-fifo",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

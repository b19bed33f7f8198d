import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sncbounds import (
    AdmissionQuery,
    ExperimentSpec,
    InvalidParamsError,
    MmooParams,
    Scenario,
    SchedulerSpec,
    SimConfig,
    admission_max_flows,
    compare_experiment,
    gps_constants,
    martingale_constants,
    palm_prefactor,
    scaling_experiment,
    standard,
    verify,
)
from sncbounds.analysis import VERIFY_SUITES, _stability_cap, _violation
from sncbounds.cli import main

BASE_SOURCE = MmooParams(0.5, 0.1, 1.0)
# the pinned `compare` CSV header
COMPARE_HEADER = (Path(__file__).parent / "golden" / "compare-fifo.csv").read_text().split("\n")[0]


def scenario(rho=0.75, n1=5, n2=5):
    return Scenario.from_utilization(n1, n2, rho, BASE_SOURCE)


class TestPalmPrefactor:
    def test_through_mode_example(self):
        # n1 = 5 through sub-flows, p = 1/6: 1/(1-(5/6)^5)
        assert palm_prefactor(scenario()) == pytest.approx(1.67190, abs=1e-5)

    def test_always_on_sources_no_correction(self):
        # p -> 1; rho in (p, 1) keeps c = p*P/rho below the peak
        params = MmooParams(1e-6, 10.0, 1.0)
        rho = 0.5 * (params.on_probability + 1.0)
        nearly_on = Scenario.from_utilization(2, 2, rho, params)
        assert palm_prefactor(nearly_on) == pytest.approx(1.0, abs=1e-6)


class TestCompareExperiment:
    CFG = SimConfig(measured_packets=5000, warmup_packets=500, replications=2,
                    delay_grid=(1.0, 3.0, 5.0), master_seed=77)

    def test_rows_complete_and_clamped(self):
        spec = ExperimentSpec(scenario(), SchedulerSpec.fifo(), self.CFG)
        rows = compare_experiment(spec)
        assert len(rows) == 3
        for row in rows:
            assert ",".join(row) == COMPARE_HEADER
            assert row["martingale_disp"] == min(1.0, row["martingale_raw"])
            assert row["standard_disp"] == min(1.0, row["standard_raw"])
            assert row["standard_raw"] > row["martingale_raw"]

    def test_deterministic(self):
        spec = ExperimentSpec(scenario(), SchedulerSpec.fifo(), self.CFG)
        assert compare_experiment(spec) == compare_experiment(spec)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParamsError):
            SimConfig(measured_packets=100, warmup_packets=0, replications=1,
                      delay_grid=())

    def test_standard_bound_looseness_at_high_utilization(self):
        # at 90% utilization the classical bound overshoots the simulated
        # CCDF near the 1e-3 tail by orders of magnitude (observed ~1e3 at
        # desk scale); assert a conservative factor of 10
        import numpy as np

        from sncbounds import replicate, standard_delay_bound

        sc = scenario(0.9)
        grid = tuple(float(x) for x in range(5, 70, 5))
        cfg = SimConfig(measured_packets=100_000, warmup_packets=10_000,
                        replications=3, delay_grid=grid, master_seed=42)
        box = replicate(sc, SchedulerSpec.fifo(), cfg)
        med = np.maximum(box.median, 1e-9)
        j = int(np.argmin(np.abs(np.log(med) - math.log(1e-3))))
        std = palm_prefactor(sc) * standard_delay_bound(
            sc, SchedulerSpec.fifo(), grid[j]).value
        assert std / med[j] >= 10.0


class TestScalingExperiment:
    def test_closed_form_alpha(self):
        res = scaling_experiment(scenario(), [10, 20, 50], 5.0, SchedulerSpec.fifo())
        k = martingale_constants(scenario()).K
        assert res["alpha_closed"] == pytest.approx(-math.log(k), rel=1e-12)

    def test_gps_alpha_of_the_even_split(self):
        # the rows split every n evenly, so the input scenario's own split
        # must not move the GPS-reduced K
        res = {split: scaling_experiment(scenario(0.6, *split), [10, 20, 50, 100], 5.0,
                                         SchedulerSpec.gps(0.5))
               for split in ((5, 5), (3, 7), (2, 8))}
        k = gps_constants(scenario(0.6, 5, 5), 0.5).K
        for r in res.values():
            assert r["alpha_closed"] == pytest.approx(-math.log(k), rel=1e-12)
            assert r["alpha_fit"] > r["alpha_closed"]

    def test_fit_approaches_closed_form_from_above(self):
        res = scaling_experiment(scenario(), [100, 200, 400, 800], 5.0,
                                 SchedulerSpec.fifo())
        assert res["alpha_fit"] > res["alpha_closed"]
        res_small = scaling_experiment(scenario(), [10, 20, 40], 5.0,
                                       SchedulerSpec.fifo())
        # the log n prefactor term shrinks relative to alpha*n as n grows
        assert abs(res["alpha_fit"] - res["alpha_closed"]) < \
            abs(res_small["alpha_fit"] - res_small["alpha_closed"])

    def test_ratio_diverges(self):
        res = scaling_experiment(scenario(), [10, 100, 1000], 5.0, SchedulerSpec.fifo())
        ratios = [r["ratio"] for r in res["rows"]]
        assert ratios[2] > 100 * ratios[1] > 100 * ratios[0]
        # many-sources gap reaches ~8 orders of magnitude at n=1000
        assert ratios[2] > 1e7

    def test_invalid_counts_rejected(self):
        for bad in ([], [0], [3], [4, 4], [8, 4]):
            with pytest.raises(InvalidParamsError):
                scaling_experiment(scenario(), bad, 5.0, SchedulerSpec.fifo())


class TestAdmission:
    def query(self, cap_mult, d=10.0, eps=1e-3, method="martingale"):
        return AdmissionQuery(cap_mult * BASE_SOURCE.mean_rate, d, eps,
                              SchedulerSpec.fifo(), BASE_SOURCE, method=method)

    def test_vacuous_epsilon_hits_stability_cap(self):
        res = admission_max_flows(self.query(21, eps=1.0))
        assert res["n_max"] == res["stability_cap"] == 20
        assert res["limited_by"] == "stability"

    def test_martingale_admits_at_least_standard(self):
        for mult in (10, 20, 50):
            for d in (1.0, 10.0):
                m = admission_max_flows(self.query(mult, d, 1e-3, "martingale"))
                s = admission_max_flows(self.query(mult, d, 1e-3, "standard"))
                assert m["n_max"] >= s["n_max"]

    def test_none_admissible(self):
        res = admission_max_flows(self.query(3, d=0.0, eps=1e-9))
        assert res["n_max"] == 0
        assert res["limited_by"] == "none-admissible"
        assert res["utilization"] == 0.0

    def test_utilization_definition(self):
        res = admission_max_flows(self.query(50))
        assert res["utilization"] == pytest.approx(
            res["n_max"] * BASE_SOURCE.mean_rate / (50 * BASE_SOURCE.mean_rate))

    def test_epsilon_validation(self):
        with pytest.raises(InvalidParamsError):
            self.query(10, eps=0.0)
        with pytest.raises(InvalidParamsError):
            self.query(10, eps=1.5)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParamsError, match="method must be martingale|standard"):
            self.query(10, method="exact")

    @pytest.mark.parametrize("capacity, d", [(math.inf, 10.0), (math.nan, 10.0),
                                             (2.0, math.nan)])
    def test_non_finite_capacity_or_nan_delay_rejected(self, capacity, d):
        # construction only: capacity inf has no finite stability cap
        with pytest.raises(InvalidParamsError):
            AdmissionQuery(capacity, d, 1e-3, SchedulerSpec.fifo(), BASE_SOURCE)

    def test_infinite_delay_rejected(self):
        # the bound at d = inf is 0, which would admit up to the stability cap
        with pytest.raises(InvalidParamsError, match="finite d"):
            AdmissionQuery(8.33, math.inf, 1e-3, SchedulerSpec.fifo(), BASE_SOURCE)

    @pytest.mark.parametrize("params", [BASE_SOURCE, MmooParams(0.3, 0.7, 3.0),
                                        MmooParams(1.0, 1.0, 0.2)])
    def test_closed_form_cap_matches_counting(self, params):
        mean = params.mean_rate
        rng = np.random.default_rng(3)
        caps = [k * mean for k in range(1, 301)]  # exact multiples sit on the boundary
        caps += [math.nextafter(c, x) for c in caps[:100] for x in (0.0, math.inf)]
        caps += rng.uniform(0.01, 300 * mean, 200).tolist()
        for cap in caps:
            # counting up with Scenario's own test, rho = mean/(C/n) < 1
            counted, n = 0, 2
            while mean / (cap / n) < 1.0:
                counted, n = n, n + 2
            assert _stability_cap(cap, mean) == counted, cap

    def test_large_capacity_cap(self):
        # counting up to the cap took about 3e9 iterations here
        q = AdmissionQuery(1e9, 5.0, 1e-3, SchedulerSpec.fifo(), BASE_SOURCE)
        assert admission_max_flows(q)["stability_cap"] == 5999999998

    def test_float_neighbours_of_multiples_stay_stable(self):
        # one ulp above 74 means, n = 74 passes n*mean < C, but Scenario
        # rounds rho = mean/(C/74) to 1 and raises UnstableScenarioError
        mean = BASE_SOURCE.mean_rate
        for k in range(1, 400):
            below = above = k * mean
            caps = [below]
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                caps += [below, above]
            for cap in caps:
                q = AdmissionQuery(cap, 5.0, 1.0, SchedulerSpec.fifo(), BASE_SOURCE)
                res = admission_max_flows(q)
                assert res["n_max"] == res["stability_cap"], cap

    @pytest.mark.parametrize("capacity", [1e20, 1e30, 1e300])
    def test_capacity_beyond_exact_flow_counts_rejected(self, capacity):
        # above 2**53 flows a step of 2 no longer changes n's float, so a
        # search for the cap would not end
        with pytest.raises(InvalidParamsError, match="2\\*\\*53"):
            AdmissionQuery(capacity, 5.0, 1e-3, SchedulerSpec.fifo(), BASE_SOURCE)

    @pytest.mark.parametrize("method", ["martingale", "standard"])
    @pytest.mark.parametrize("sched", [SchedulerSpec.fifo(), SchedulerSpec.sp(),
                                       SchedulerSpec.edf(10.0, 1.0), SchedulerSpec.gps(0.5),
                                       SchedulerSpec.gps(0.3), SchedulerSpec.gps(0.45),
                                       SchedulerSpec.gps(0.9)],
                             ids=["fifo", "sp", "edf", "gps", "gps-0.3", "gps-0.45", "gps-0.9"])
    def test_scan_down_matches_exhaustive_scan(self, method, sched):
        # under GPS, counts whose reduced system is unstable (violation 1)
        # or cannot backlog (violation 0) lie in the scan
        for mult, d, eps in ((3, 10.0, 1e-3), (10, 1.0, 1e-3), (21, 10.0, 1e-6),
                             (50, 5.0, 1e-3), (50, 0.0, 1e-9)):
            q = AdmissionQuery(mult * BASE_SOURCE.mean_rate, d, eps, sched,
                               BASE_SOURCE, method=method)
            res = admission_max_flows(q)
            every = [n for n in range(2, res["stability_cap"] + 1, 2)
                     if _violation(q, n) <= eps]
            assert res["n_max"] == max(every, default=0)


class TestVerifySuites:
    @pytest.mark.parametrize("name", list(VERIFY_SUITES))
    def test_suite_passes(self, name):
        [(_, passed, detail)] = verify(name)
        assert passed is True, detail

    def test_optimizer_suite_checks_every_scheduler(self, monkeypatch):
        [(_, passed, detail)] = verify("optimizer-grid")
        assert passed, detail
        # a minimum 1e-6 too high on GPS terms alone (the only ones without e) must fail it
        minimize = standard._minimize_theta

        def off_on_gps(params, term):
            th, fv, edge = minimize(params, term)
            return th, fv + (0.0 if term.euler else 1e-6), edge

        monkeypatch.setattr(standard, "_minimize_theta", off_on_gps)
        [(_, passed, detail)] = verify("optimizer-grid")
        assert not passed, detail

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidParamsError):
            verify("does-not-exist")


class TestCli:
    def test_bound_csv(self, capsys):
        rc = main(["bound", "--rho", "0.75", "--d", "1,5", "--scheduler", "fifo"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("scheduler,n1,n2,rho,d,martingale_raw")
        assert len(lines) == 3
        d5 = lines[2].split(",")
        # martingale bound K^n e^{-gamma C d} at d=5 times the Palm factor
        assert float(d5[5]) == pytest.approx(0.10587 * 1.67190, abs=1e-4)

    def test_bound_at_rates_near_the_top_of_the_double_range(self, capsys):
        rc = main(["bound", "--lambda", "1e200", "--mu", "1e200", "--d", "0,5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert math.isfinite(float(row["standard_raw"]))

    def test_bound_json(self, capsys):
        rc = main(["bound", "--rho", "0.75", "--d", "2", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["d"] == 2.0

    def test_grid_forms(self, capsys):
        rc = main(["bound", "--d", "0:10:5"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_byte_stable_compare(self, capsys):
        args = ["compare", "--rho", "0.75", "--n1", "2", "--n2", "2",
                "--d", "1,3", "--packets", "3000", "--warmup", "300",
                "--reps", "2", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[0] == COMPARE_HEADER

    def test_compare_json_keys_are_the_csv_header(self, capsys):
        # no golden pins compare's JSON: its objects carry the CSV header's
        # columns, in order, with the same values
        args = ["compare", "--rho", "0.75", "--n1", "2", "--n2", "2",
                "--d", "1,3", "--packets", "3000", "--warmup", "300",
                "--reps", "2", "--seed", "9"]
        assert main(args) == 0
        table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert main(args + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(table) - 1 == 2
        for row, line in zip(rows, table[1:]):
            assert list(row) == table[0]
            assert [f"{v:.12g}" if isinstance(v, float) else str(v)
                    for v in row.values()] == line

    def test_simulate_csv(self, capsys):
        rc = main(["simulate", "--rho", "0.75", "--n1", "2", "--n2", "2",
                   "--d", "1,2", "--packets", "2000", "--warmup", "100",
                   "--reps", "2", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "d,median,q25,q75,min,max,outlier_count"

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"lambda": 0.5, "mu": 0.1, "peak": 1.0,
                                    "n1": 5, "n2": 5, "rho": 0.75}))
        rc = main(["bound", "--scenario", str(path), "--d", "5"])
        assert rc == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        # the scenario of test_bound_csv, so its value at d=5
        assert float(row[5]) == pytest.approx(0.10587 * 1.67190, abs=1e-4)

    def test_out_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        rc = main(["bound", "--d", "1,2", "--out", str(path)])
        assert rc == 0
        assert path.read_text().startswith("scheduler,")

    def test_json_writes_non_finite_as_null(self, capsys):
        # one flow count leaves no slope to fit: alpha_fit is nan
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        argv = ["scaling", "--n-list", "10"]
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["alpha_fit"] is None
        assert doc["alpha_closed"] > 0 and doc["rows"][0]["n"] == 10
        assert main(argv) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["alpha_fit"] == "nan"

    def test_admission_csv(self, capsys):
        rc = main(["admission", "--capacity", "3.3333333", "--delay", "10",
                   "--epsilon", "1e-3", "--method", "both"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("capacity,d,epsilon,method")
        assert len(lines) == 3

    def test_scaling_csv(self, capsys):
        rc = main(["scaling", "--n-list", "10,20", "--delay", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,martingale,standard,ratio,alpha_fit,alpha_closed"
        assert len(lines) == 3

    def test_verify_pass_and_unknown(self, capsys):
        assert main(["verify", "binomial-stationarity"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["verify", "nope"]) == 2

    def test_verify_all_runs_every_suite(self, capsys):
        assert main(["verify", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {n}" for n in VERIFY_SUITES]

    def test_edf_and_gps_flags(self, capsys):
        assert main(["bound", "--scheduler", "edf", "--d1", "10", "--d2", "1",
                     "--d", "5"]) == 0
        capsys.readouterr()
        assert main(["bound", "--scheduler", "gps", "--phi1", "0.5", "--d", "5"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--capacity", "12.333333333333336", "--epsilon", "1"],  # one ulp above 74 means
        ["--capacity", "1e9", "--delay", "5"],
    ])
    def test_admission_edge_capacities_answer(self, capsys, argv):
        assert main(["admission", *argv, "--method", "martingale"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("capacity", ["1e20", "1e30", "1e300"])
    def test_admission_huge_capacity_exit_code(self, capsys, capacity):
        assert main(["admission", "--capacity", capacity]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_invalid_scenario_exit_code(self, capsys):
        assert main(["bound", "--rho", "1.2", "--d", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--capacity", "nan"],
                                      ["--capacity", "2", "--delay", "nan"]])
    def test_admission_nan_input_exit_code(self, capsys, argv):
        assert main(["admission", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["bound", "--mu", "inf", "--d", "5"],
        ["bound", "--per-flow-capacity", "nan", "--d", "5"],
        ["scaling", "--n-list", "10,20", "--delay", "nan"],
        ["bound", "--d", "inf"],
        ["bound", "--d", "1,inf"],
        ["scaling", "--n-list", "10,20", "--delay", "inf"],
        ["admission", "--capacity", "8.33", "--delay", "inf"],
        ["simulate", "--d", "1,inf", "--packets", "100", "--warmup", "0", "--reps", "1"],
        ["compare", "--d", "1,inf", "--packets", "100", "--warmup", "0", "--reps", "1"],
        ["bound", "--scheduler", "edf", "--d1", "nan", "--d2", "1", "--d", "5"],
        ["bound", "--scheduler", "edf", "--d1", "inf", "--d2", "inf", "--d", "5"],
        ["simulate", "--scheduler", "edf", "--d1", "nan", "--d2", "1", "--packets", "100",
         "--warmup", "0", "--reps", "1"],
        ["simulate", "--scheduler", "edf", "--d1", "inf", "--d2", "inf", "--packets", "100",
         "--warmup", "0", "--reps", "1"],
    ])
    def test_non_finite_input_exit_code(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_job_count_below_one_exit_code(self, capsys, monkeypatch, jobs):
        import concurrent.futures

        import sncbounds.sim as sim

        def refuse(*args, **kwargs):
            raise AssertionError("a replication or a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(sim, "simulate", refuse)
        assert main(["compare", "--jobs", jobs, "--packets", "2000", "--warmup", "200",
                     "--reps", "2", "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the job count must be at least 1, got {jobs}\n"

    @pytest.mark.parametrize("argv,d", [
        (["bound", "--scheduler", "sp", "--rho", "0.75", "--d", "1e308"], "1e+308"),
        (["scaling", "--delay", "1e308"], "1e+308"),
        (["bound", "--scheduler", "edf", "--d1", "0", "--d2", "1e308", "--d", "5"], "5"),
    ])
    def test_overflowing_exponent_named(self, capsys, argv, d):
        # each once gave a NaN bound (bound, exit 0) or "float division by zero" (scaling)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: the bound's exponent overflows at d={d} ")

    @pytest.mark.parametrize("missing", ["n2", "rho", "lambda"])
    def test_scenario_file_missing_key_exit_code(self, tmp_path, capsys, missing):
        doc = {"lambda": 0.5, "mu": 0.1, "peak": 1.0, "n1": 5, "n2": 5, "rho": 0.75}
        del doc[missing]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", "--scenario", str(path), "--d", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert repr(missing) in captured.err

    @pytest.mark.parametrize("doc,named", [
        (5, "int"),
        ({"lambda": 0.5, "mu": 0.1, "peak": 1.0, "n1": "five", "n2": 5, "rho": 0.75}, "'n1'"),
        ({"lambda": "0.5", "mu": 0.1, "peak": 1.0, "n1": 5, "n2": 5, "rho": 0.75}, "'lambda'"),
        ({"lambda": 0.5, "mu": 0.1, "peak": 1.0, "n1": 5, "n2": True, "rho": 0.75}, "'n2'"),
    ])
    def test_scenario_file_wrong_type_exit_code(self, tmp_path, capsys, doc, named):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["bound", "--scenario", str(path), "--d", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [
        ["bound", "--d", "5"], ["scaling", "--n-list", "10,20"],
        ["simulate", "--d", "5", "--packets", "100", "--warmup", "0", "--reps", "1"],
        ["compare", "--d", "5", "--packets", "100", "--warmup", "0", "--reps", "1"],
    ], ids=["bound", "scaling", "simulate", "compare"])
    @pytest.mark.parametrize("counts", [{"n1": 5.5}, {"n1": 5.0}, {"n2": 2.5}],
                             ids=["n1=5.5", "n1=5.0", "n2=2.5"])
    def test_scenario_file_non_integer_count_exit_code(self, tmp_path, capsys,
                                                       command, counts):
        doc = {"lambda": 0.5, "mu": 0.1, "peak": 1.0, "n1": 5, "n2": 5, "rho": 0.75}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**doc, **counts}))
        assert main([*command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be an integer" in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_scenario_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["bound", "--scenario", str(path), "--d", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_unwritable_out_path_exit_code(self, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["bound", "--d", "1,2", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv", [
        # K**n underflows to 0.0 at n = 10^4: ZeroDivisionError in the ratio
        ["scaling", "--n-list", "10,10000"],
    ])
    def test_arithmetic_failure_exit_code(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_edf_bound_at_ten_thousand_flows(self, capsys):
        # the EDF(10,1) gap factor exp(gamma C2 min(y, d)) alone overflows at
        # n = 10^4; the bound sums the exponents before exp
        assert main(["bound", "--n1", "5000", "--n2", "5000", "--scheduler", "edf",
                     "--d1", "10", "--d2", "1", "--d", "5"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        value = float(row["martingale_raw"])
        assert math.isfinite(value) and value >= 0.0

    def test_palm_factor_of_a_rarely_on_source(self, capsys):
        # p = 1e-17 is below half an ulp of 1, so 1 - (1-p)**n1 rounds to 0;
        # the Palm factor is about 1/(n1*p) = 2e16, finite
        assert main(["bound", "--mu", "1e-17", "--lambda", "1", "--rho", "0.5",
                     "--d", "1"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all(math.isfinite(float(row[k])) for k in ("martingale_raw", "standard_raw"))
        assert float(row["martingale_raw"]) == pytest.approx(2e16, rel=1e-6)

    @pytest.mark.parametrize("rate", ["1e-320", "1e-300"])
    def test_decay_rate_too_small_for_the_optimizer(self, capsys, rate):
        # gamma is subnormal at 1e-320 and 1.5e-300 at 1e-300: the optimizer's
        # inset end 1e-9*gamma is not a normal double in either case
        assert main(["bound", "--lambda", rate, "--mu", rate, "--rho", "0.75",
                     "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: decay rate gamma=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--lambda", "1e308"], ["--peak", "1e-300"]])
    def test_interval_ends_out_of_range_for_the_optimizer(self, capsys, argv):
        # the gap r - p*P at the lower end underflows to 0 at lambda = 1e308;
        # at P = 1e-300 the gap c - r at the upper end rounds above c - p*P
        assert main(["bound", *argv, "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the standard bound's optimizer cannot place")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, reason", [
        # r (P - r) underflows to 0 at P = 1e-300, where the martingale bound is finite
        (["--lambda", "1", "--mu", "1", "--peak", "1e-300"], "underflows to 0"),
        # the upper end's discriminant rounds below 0
        (["--lambda", "1e20", "--mu", "1e-200", "--peak", "1e300", "--rho", "0.01"],
         "discriminant"),
        # ... where its squares overflow and it is taken as a difference of squares
        (["--lambda", "1e181", "--mu", "2e4", "--peak", "1e295", "--rho", "0.99"],
         "discriminant"),
    ], ids=["denominator", "discriminant", "discriminant-overflow"])
    def test_optimizer_ends_typed_error(self, capsys, argv, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy warning on the way
            assert main(["bound", *argv, "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the standard bound's optimizer cannot place")
        assert reason in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["simulate", "compare"])
    def test_packets_rarer_than_exp_range(self, capsys, cmd):
        # lambda/P = 800: 1/expm1(lambda/P) overflows, the whole-packet
        # count per On-dwell is below 1e-307
        assert main([cmd, "--lambda", "800", "--mu", "1", "--peak", "1", "--rho", "0.75",
                     "--n1", "2", "--n2", "2", "--packets", "1000", "--warmup", "100",
                     "--reps", "1", "--d", "1"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        ccdf = float(rows[0]["median" if cmd == "simulate" else "sim_median"])
        assert [row["d"] for row in rows] == ["1"] and 0.0 <= ccdf <= 1.0

    @pytest.mark.parametrize("grid", ["1:10:0", "5,1", "nan"])
    def test_bad_bound_grid_exit_code(self, capsys, grid):
        assert main(["bound", "--d", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: delay grid")

    def test_arrival_shortfall_exit_code(self, capsys, monkeypatch):
        import numpy as np

        import sncbounds.sim as sim

        monkeypatch.setattr(sim, "packet_arrays",
                            lambda path, peak: (np.empty(0), np.empty(0)))
        assert main(["simulate", "--n1", "1", "--n2", "1", "--packets", "50",
                     "--warmup", "0", "--reps", "1", "--d", "1"]) == 2
        assert "could not generate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bound", "--palm", "through"],
        ["bound", "--gps-exponent", "through"],
        ["compare", "--palm", "through"],
        ["compare", "--gps-exponent", "through"],
        ["admission", "--capacity", "2", "--palm", "through"],
        ["scaling", "--palm", "through"],
        ["scaling", "--gps-exponent", "through"],
        ["admission", "--capacity", "2", "--gps-exponent", "through"],
        ["simulate", "--palm", "through"],
        ["simulate", "--gps-exponent", "through"],
    ])
    def test_unread_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

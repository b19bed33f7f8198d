"""Byte-exact CLI output.

Each case's expected stdout is the file ``tests/golden/<case>.<format>``.
The bound subcommands are pinned in CSV and JSON; each ``bound`` case runs
with the one bound form its scheduler has (through-flow Palm factor, GPS
prefactor K^n1), so no case passes a variant flag.  ``simulate`` (CSV and
JSON) and ``compare`` (CSV) are pinned for every scheduler at a fixed seed
and a small size: their bytes follow the random streams of arrival
generation and the exact departure times of the service disciplines, so a
change to either shows here.  ``compare`` is also held to carry ``bound``'s
rows as its leading columns.  After an intended change of format or value,
re-pin a case by writing ``sncbounds <args> --format <fmt>`` to its file.
"""

import csv
import io
from pathlib import Path

import pytest

from sncbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"

SCENARIO = ["--rho", "0.75", "--n1", "5", "--n2", "5"]
GRID = ["--d", "1:10:10"]

CASES = {
    "bound-fifo": ["bound", *SCENARIO, *GRID, "--scheduler", "fifo"],
    "bound-edf-10-1": ["bound", *SCENARIO, *GRID, "--scheduler", "edf",
                       "--d1", "10", "--d2", "1"],
    "bound-edf-1-10": ["bound", *SCENARIO, *GRID, "--scheduler", "edf",
                       "--d1", "1", "--d2", "10"],
    "bound-gps": ["bound", *SCENARIO, *GRID, "--scheduler", "gps", "--phi1", "0.5"],
    "bound-sp-capacity": ["bound", "--n1", "4", "--n2", "6",
                          "--per-flow-capacity", "0.25", *GRID, "--scheduler", "sp"],
    "scaling": ["scaling", "--rho", "0.75", "--n-list", "10,20,50,100",
                "--delay", "5"],
    "admission": ["admission", "--capacity", "1.67,3.33,8.33", "--delay", "10",
                  "--epsilon", "1e-3"],
}

SCHEDULERS = {
    "fifo": ["--scheduler", "fifo"],
    "sp": ["--scheduler", "sp"],
    "edf-10-1": ["--scheduler", "edf", "--d1", "10", "--d2", "1"],
    "edf-1-10": ["--scheduler", "edf", "--d1", "1", "--d2", "10"],
    "gps": ["--scheduler", "gps", "--phi1", "0.5"],
}
SIM = [*SCENARIO, *GRID, "--packets", "2000", "--warmup", "200", "--reps", "2",
       "--seed", "11"]
SIM_CASES = {}
for _name, _sched in SCHEDULERS.items():
    SIM_CASES[f"simulate-{_name}", "csv"] = ["simulate", *SIM, *_sched]
    SIM_CASES[f"simulate-{_name}", "json"] = ["simulate", *SIM, *_sched]
    SIM_CASES[f"compare-{_name}", "csv"] = ["compare", *SIM, *_sched]


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes(capsys, case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_text()
    assert _stdout(capsys, CASES[case] + ["--format", fmt]) == expected


@pytest.mark.parametrize("case,fmt", sorted(SIM_CASES))
def test_simulation_stdout_bytes(capsys, case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_text()
    assert _stdout(capsys, SIM_CASES[case, fmt] + ["--format", fmt]) == expected


@pytest.mark.parametrize("sched", [["--scheduler", "fifo"],
                                   ["--scheduler", "edf", "--d1", "10", "--d2", "1"]])
def test_compare_leads_with_bound_rows(capsys, sched):
    args = ["--rho", "0.75", "--n1", "2", "--n2", "2", "--d", "1,3", *sched]
    bound = list(csv.reader(io.StringIO(_stdout(capsys, ["bound", *args]))))
    compare = list(csv.reader(io.StringIO(_stdout(
        capsys, ["compare", *args, "--packets", "2000", "--warmup", "100",
                 "--reps", "1", "--seed", "5"]))))
    assert len(bound[0]) == 10
    assert [row[:10] for row in compare] == bound

"""Source-level rules of the package, checked on its syntax trees, and the
scripts that reach into its private functions."""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sncbounds"


def linalg_uses(tree: ast.AST) -> list:
    """Lines that import or reach ``numpy.linalg``, under any alias of numpy."""
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.linalg") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.linalg") or (
                node.module == "numpy" and any(a.name == "linalg" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "linalg" and isinstance(node.value, ast.Name)
                   and node.value.id in numpy_names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_package_calls_no_dense_linear_algebra():
    # every source is a birth-death chain, solved by pivot recursions alone
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = {f.name: linalg_uses(ast.parse(f.read_text(), str(f))) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detector_sees_every_form():
    for code in ("import numpy as np\nnp.linalg.eigh(x)", "import numpy\nnumpy.linalg.solve",
                 "from numpy import linalg", "from numpy.linalg import eigvalsh",
                 "import numpy.linalg"):
        assert linalg_uses(ast.parse(code)), code
    assert not linalg_uses(ast.parse("import numpy as np\nnp.cumsum(x)"))


# only the benchmark calls the two-flow bound, until ROADMAP direction 5
# gives it a caller in the package or deletes it
API_EXEMPT = {"general_sample_path_bound"}


def exported(tree: ast.AST) -> list:
    """The names in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def referenced(tree: ast.AST) -> set:
    """Names read or reached as attributes; a def or class line and a string are not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_members(tree: ast.AST, classes) -> list:
    """``Class.member`` for each public method or property of the named classes."""
    return [f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def unused_exports(trees: dict) -> dict:
    """Per module, the ``__all__`` names, and the public members of the
    exported classes, that no module of the package reads."""
    used = set().union(*map(referenced, trees.values())) | API_EXEMPT
    found = {}
    for name, tree in trees.items():
        public = exported(tree)
        public += public_members(tree, set(public))
        found[name] = [e for e in public if e.rpartition(".")[2] not in used]
    return {name: names for name, names in found.items() if names}


def test_public_api_is_used_by_the_package():
    # a public name that only tests reach is a mode nothing runs;
    # __init__.py only re-exports, so its imports are not uses
    trees = {f.name: ast.parse(f.read_text(), str(f))
             for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"}
    assert trees
    assert unused_exports(trees) == {}


def test_unused_export_detector():
    lib = ast.parse('__all__ = ["used", "alone", "general_sample_path_bound", "Box"]\n'
                    'def used(): pass\ndef alone(): return "used"\n'
                    'def general_sample_path_bound(): pass\n'
                    'class Box:\n'
                    '    def _private(self): pass\n'
                    '    def opened(self): pass\n'
                    '    @property\n'
                    '    def idle(self): return self.opened()\n'
                    'class Hidden:\n'
                    '    def spare(self): pass\n')
    caller = ast.parse("from .lib import Box, used\nx = used(Box)\n")
    assert unused_exports({"lib.py": lib, "caller.py": caller}) == {
        "lib.py": ["alone", "Box.idle"]}
    assert unused_exports({"lib.py": lib}) == {"lib.py": ["used", "alone", "Box", "Box.idle"]}


def format_imports(tree: ast.AST) -> list:
    """Lines that import ``json`` or ``csv``, or a name from either."""
    formats = {"json", "csv"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] in formats for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and (node.module or "").split(".")[0] in formats
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_the_cli_knows_an_output_format():
    # the library returns rows, BoxStats and result dicts; cli.py writes them
    found = {f.name: format_imports(ast.parse(f.read_text(), str(f)))
             for f in sorted(PACKAGE.glob("*.py")) if f.name != "cli.py"}
    assert found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_format_import_detector():
    for code in ("import json", "import csv as c", "from json import dumps",
                 "import os, json.decoder", "def f():\n    import json"):
        assert format_imports(ast.parse(code)), code
    assert not format_imports(ast.parse("from .traffic import _json_values\n"
                                        "import jsonschema\nx = json"))


def test_formats_doc_lists_the_cli_columns():
    # each header line under "CSV outputs" follows the `subcommand` it documents
    from sncbounds.cli import COLUMNS

    text = (ROOT / "docs" / "formats.md").read_text()
    section = text.split("## CSV outputs")[1].split("\n## ")[0]
    headers, command = {}, None
    for line in section.splitlines():
        if line.startswith("`"):
            command = line.split("`")[1]
        elif line.startswith("    "):
            headers[command] = line.strip()
    assert headers == {name: ",".join(cols) for name, cols in COLUMNS.items()}


def kind_comparisons(tree: ast.AST) -> list:
    """Lines that compare a ``.kind`` attribute or match on one: a scheduler branch."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Match):
            operands = [node.subject]
        else:
            continue
        if any(isinstance(x, ast.Attribute) and x.attr == "kind" for x in operands):
            lines.append(node.lineno)
    return lines


def test_bound_layer_branches_on_scheduler_once():
    # each scheduler's terms are defined once, in martingale._bound_terms;
    # the standard bound and the experiments only evaluate them
    found = {name: kind_comparisons(ast.parse((PACKAGE / name).read_text(), name))
             for name in ("standard.py", "analysis.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_kind_comparison_detector():
    for code in ('if sched.kind == "gps": pass', 'x = "sp" != spec.kind',
                 'x = q.scheduler.kind in ("fifo", "sp")',
                 'match sched.kind:\n    case "edf": pass'):
        assert kind_comparisons(ast.parse(code)), code
    assert not kind_comparisons(ast.parse('row = {"scheduler": sched.kind}\n'
                                          'if kind == "gps": pass'))


def test_stage_times_script_runs(capsys):
    # the script times private sim functions; a rename must fail here
    spec = importlib.util.spec_from_file_location("stage_times",
                                                  ROOT / "scripts" / "stage_times.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--repeats", "1"])
    out = json.loads(capsys.readouterr().out)
    names = list(script.SCHEDULERS)
    service = []
    for n in names:
        service.append(f"service.{n}")
        if script.SCHEDULERS[n].kind != "fifo":
            service += [f"service.{n}.{part}" for part in ("loop", "lockstep", "steps")]
    assert list(out) == (["arrivals", "merge"] + service
                         + ["backlog", "statistics"] + [f"simulate.{n}" for n in names])
    steps = {name: out.pop(name) for name in list(out) if name.endswith(".steps")}
    assert all(isinstance(n, int) and n > 0 for n in steps.values())
    assert all(isinstance(ms, float) and ms >= 0 for ms in out.values())

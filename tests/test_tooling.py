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


# pyproject.toml admits Python 3.10, and this interpreter may be newer
OLDEST_PYTHON = (3, 10)


def parses_on_oldest_python(source: str, filename: str = "<string>") -> bool:
    """Whether ``source`` parses under the grammar of ``OLDEST_PYTHON``."""
    try:
        ast.parse(source, filename, feature_version=OLDEST_PYTHON)
    except SyntaxError:
        return False
    return True


def test_sources_parse_on_the_oldest_python():
    files = sorted(f for part in ("src", "tests", "scripts") for f in (ROOT / part).rglob("*.py"))
    assert files
    assert [str(f.relative_to(ROOT)) for f in files
            if not parses_on_oldest_python(f.read_text(), str(f))] == []


def test_oldest_grammar_check_rejects_newer_syntax():
    assert not parses_on_oldest_python("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert parses_on_oldest_python("try:\n    pass\nexcept ValueError:\n    pass\n")
    assert parses_on_oldest_python("match x:\n    case 1: pass\n")


# only the benchmark calls the two-flow bound, until ROADMAP direction 2
# deletes it, which waits on a change to the benchmark
API_EXEMPT = {"general_sample_path_bound"}


def exported(tree: ast.AST) -> list:
    """The names in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def referenced(tree: ast.AST) -> tuple[set, set]:
    """Names read, and names reached as attributes; a def or class line and a
    string are neither."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def public_members(tree: ast.AST, classes) -> list:
    """``Class.member`` for each public method or property of the named classes."""
    return [f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def unused_exports(trees: dict) -> dict:
    """Per module, the ``__all__`` names, and the public members of the
    exported classes, that no module of the package reads.  A member is read
    only as an attribute (``x.member``): a local variable of the same name
    is not a read."""
    reads = [referenced(tree) for tree in trees.values()]
    attrs = set().union(*(a for _, a in reads))
    used = set().union(*(n for n, _ in reads)) | attrs | API_EXEMPT
    found = {}
    for name, tree in trees.items():
        public = exported(tree)
        found[name] = [e for e in public if e not in used]
        found[name] += [m for m in public_members(tree, set(public))
                        if m.rpartition(".")[2] not in attrs]
    return {name: names for name, names in found.items() if names}


def test_public_api_is_used_by_the_package():
    # a public name that only tests reach is a mode nothing runs;
    # __init__.py only re-exports, so its imports are not uses
    trees = {f.name: ast.parse(f.read_text(), str(f))
             for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"}
    assert trees
    assert unused_exports(trees) == {}


def test_unused_export_detector():
    # a local variable named like a member (``width``) does not read it
    lib = ast.parse('__all__ = ["used", "alone", "general_sample_path_bound", "Box"]\n'
                    'def used(width): return width\ndef alone(): return "used"\n'
                    'def general_sample_path_bound(): pass\n'
                    'class Box:\n'
                    '    def _private(self): pass\n'
                    '    def opened(self): pass\n'
                    '    @property\n'
                    '    def idle(self): return self.opened()\n'
                    '    @property\n'
                    '    def width(self): return 1.0\n'
                    'class Hidden:\n'
                    '    def spare(self): pass\n')
    caller = ast.parse("from .lib import Box, used\nx = used(Box)\n")
    assert unused_exports({"lib.py": lib, "caller.py": caller}) == {
        "lib.py": ["alone", "Box.idle", "Box.width"]}
    assert unused_exports({"lib.py": lib}) == {
        "lib.py": ["used", "alone", "Box", "Box.idle", "Box.width"]}


def raised_names(tree: ast.AST) -> set:
    """The name X of each ``raise X(...)``, ``raise X`` and ``raise mod.X(...)``;
    a bare ``raise`` names nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def unraised_errors(errors: ast.AST, trees: list) -> list:
    """Error classes of ``errors`` that no tree raises, the base ``SncboundsError`` aside."""
    raised = set().union(*(raised_names(tree) for tree in trees))
    return [node.name for node in errors.body if isinstance(node, ast.ClassDef)
            and node.name != "SncboundsError" and node.name not in raised]


def test_every_error_type_is_raised():
    # an error type nothing raises is a failure mode the package no longer has
    trees = [ast.parse(f.read_text(), str(f)) for f in sorted(PACKAGE.glob("*.py"))]
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    assert len(errors.body) > 2
    assert unraised_errors(errors, trees) == []


def test_unraised_error_detector():
    errors = ast.parse('"""Errors."""\nclass SncboundsError(Exception): pass\n'
                       'class Called(SncboundsError): pass\nclass Bare(SncboundsError): pass\n'
                       'class Reached(SncboundsError): pass\nclass Caught(SncboundsError): pass\n'
                       'class Built(SncboundsError): pass\n')
    code = ast.parse('raise Called("x") from None\nraise Bare\nraise errors.Reached(1)\n'
                     'try:\n    pass\nexcept Caught:\n    raise\nerr = Built("unused")\n')
    assert raised_names(code) == {"Called", "Bare", "Reached"}
    assert unraised_errors(errors, [code]) == ["Caught", "Built"]
    assert unraised_errors(errors, []) == ["Called", "Bare", "Reached", "Caught", "Built"]


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
    # each header line under "CSV outputs" follows the `subcommand` it
    # documents, and is the header the CLI writes: the first line of a golden
    golden = ROOT / "tests" / "golden"
    real = {name: (golden / f"{case}.csv").read_text().split("\n")[0]
            for name, case in (("bound", "bound-fifo"), ("compare", "compare-fifo"),
                               ("simulate", "simulate-fifo"), ("scaling", "scaling"),
                               ("admission", "admission"))}
    text = (ROOT / "docs" / "formats.md").read_text()
    section = text.split("## CSV outputs")[1].split("\n## ")[0]
    headers, command = {}, None
    for line in section.splitlines():
        if line.startswith("`"):
            command = line.split("`")[1]
        elif line.startswith("    "):
            headers[command] = line.strip()
    assert headers == real
    # a JSON row's keys are its CSV header
    for name, case in (("bound", "bound-fifo"), ("admission", "admission")):
        first = json.loads((golden / f"{case}.json").read_text())[0]
        assert ",".join(first) == real[name]


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


def test_term_table_branches_on_scheduler_once():
    # FIFO and SP are EDF's deadline gaps 0 and +inf, so the one kind
    # comparison left picks GPS's reduced system
    tree = ast.parse((PACKAGE / "martingale.py").read_text(), "martingale.py")
    [table] = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_bound_terms"]
    assert len(kind_comparisons(table)) == 1


def test_kind_comparison_detector():
    for code in ('if sched.kind == "gps": pass', 'x = "sp" != spec.kind',
                 'x = q.scheduler.kind in ("fifo", "sp")',
                 'match sched.kind:\n    case "edf": pass'):
        assert kind_comparisons(ast.parse(code)), code
    assert not kind_comparisons(ast.parse('row = {"scheduler": sched.kind}\n'
                                          'if kind == "gps": pass'))


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_stage_times_script_runs(capsys):
    # the script times private sim and standard functions; a rename must fail here
    script = load_script("stage_times")
    script.main(["--repeats", "1"])
    out = json.loads(capsys.readouterr().out)
    names = list(script.SCHEDULERS)
    service = []
    for n in names:
        service.append(f"service.{n}")
        if script.SCHEDULERS[n].kind != "fifo":
            service += [f"service.{n}.{part}"
                        for part in ("loop", "lockstep", "steps", "lanes")]
    bounds = [key for n in names
              for key in (f"bounds.{n}", f"bounds.{n}.cold", f"bounds.{n}.refine",
                          f"bounds.{n}.slopes", f"bounds.{n}.martingale",
                          f"bounds.{n}.martingale.cold")]
    assert list(out) == (["arrivals", "arrivals.paths", "arrivals.packetize",
                          "arrivals.sort", "merge", "lanes"] + service
                         + ["backlog", "backlog.window", "statistics"]
                         + [f"simulate.{n}" for n in names]
                         + bounds + [f"bound_rows.{n}" for n in names])
    # the refinement is part of every bound call
    assert all(0 < out[f"bounds.{n}.refine"] < out[f"bounds.{n}"] for n in names)
    counts = {name: out.pop(name) for name in list(out)
              if name.endswith((".steps", ".lanes"))}
    assert all(isinstance(n, int) and n > 0 for n in counts.values())
    # every refinement evaluates the slope at least once
    assert all(out.pop(f"bounds.{n}.slopes") >= 1 for n in names)
    assert all(isinstance(ms, float) and ms >= 0 for ms in out.values())


def test_ab_pairs_verdicts():
    verdict = load_script("ab_pairs").verdict
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    # all 10 pairs won, the medians 0.1 apart against a quartile distance of 0.0125
    assert verdict(parent, [x - 0.1 for x in parent], "lower", 0.25) == (10, "gain")
    # 8 of 10 pairs won is short of a gain; ties count for neither side
    eight = [x - 0.1 for x in parent[:8]] + parent[8:]
    assert verdict(parent, eight, "lower", 0.25) == (8, "within bound")
    assert verdict(parent, parent, "lower", 0.25) == (0, "within bound")
    # 30 % worse against a bound of 25 % of the parent's median
    assert verdict(parent, [1.3 * x for x in parent], "lower", 0.25) == (0, "regression")
    assert verdict(parent, [1.2 * x for x in parent], "lower", 0.25) == (0, "within bound")
    # a higher-is-better metric
    assert verdict([1.0] * 10, [0.98] * 10, "higher", 0.01) == (0, "regression")
    assert verdict([0.5] * 10, [0.6] * 10, "higher", 0.01) == (10, "gain")
    # the parent's quartile distance, 1.0, exceeds the bound of 0.25 x 1.5
    wide = [1.0, 2.0] * 5
    assert verdict(wide, [x + 0.01 for x in wide], "lower", 0.25) == (0, "unresolved")
    assert verdict(wide, [x - 0.01 for x in wide], "lower", 0.25) == (10, "unresolved")
    # ... unless every change run beats every parent run
    assert verdict(wide, [0.99] * 10, "lower", 0.25) == (10, "within bound")

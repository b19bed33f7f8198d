"""Source-level rules of the package, checked on its syntax trees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sncbounds"


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

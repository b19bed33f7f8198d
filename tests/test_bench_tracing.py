"""The benchmark's tracer wraps library functions named in ``bench/layers.py``.

It looks each ``module.function`` of ``TRACED`` up in ``sncbounds`` when a
traced run starts, so a renamed or deleted function would only show there.
This test reads the names with ``ast`` (``bench/`` is not imported) and
checks that each still resolves to a function.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def traced_names() -> tuple:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} assigns no TRACED")


def test_traced_functions_resolve():
    names = traced_names()
    assert names
    missing = []
    for qual in names:
        mod_name, fn_name = qual.split(".")
        module = importlib.import_module(f"sncbounds.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(qual)
    assert not missing, f"traced but not in sncbounds: {missing}"

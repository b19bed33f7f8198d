"""In-memory spans around sncbounds' public functions, recorded from outside.

``Tracer.install`` rebinds each listed function, in every ``sncbounds``
module that holds a reference to it, to a wrapper that records one span per
call as ``[name, start, end, parent, round, info]``.  ``parent`` is the index
of the enclosing span (-1 at top level), so a span's self time is its
duration minus the durations of its direct children.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import sys
import time

NAME, START, END, PARENT, ROUND, INFO = range(6)
PACKAGE = "sncbounds"


def rebind(old, new) -> list:
    """Point every attribute of the package's modules bound to ``old`` at ``new``.

    Returns the undo list for ``restore``.  Rebinding the name in each module
    that imported the function is what makes calls from one module into
    another (``sncbounds.sim.sample_path``) go through the wrapper.
    """
    undo = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", None) or ""
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def restore(undo: list) -> None:
    for mod, attr, old in reversed(undo):
        setattr(mod, attr, old)


class Tracer:
    """Records nested spans of the wrapped functions; ``round`` tags each span."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self.round = 0
        self.hook_errors = 0
        self._clock = clock
        self._stack: list = []
        self._undo: list = []
        self._last_exc = None

    def wrap(self, name: str, fn, hook=None):
        """Wrapper recording a span per call.

        ``hook(args, result)`` returns the span's info (counts measured at
        the boundary).  An exception is counted only at the innermost span
        it passes, the layer that raised it.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.round, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = clock()
                if exc is not self._last_exc:
                    self._last_exc = exc
                    span[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if hook is not None:
                try:
                    span[INFO] = hook(args, result)
                except Exception:  # a changed signature must not fail the call
                    self.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, qualnames, hooks=None) -> None:
        """Wrap each ``module.function`` of the package under that span name."""
        hooks = hooks or {}
        for qual in qualnames:
            mod_name, fn_name = qual.split(".")
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            self._undo += rebind(fn, self.wrap(qual, fn, hooks.get(qual)))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []


def self_times(spans: list) -> list:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]

"""Run the qutritchain CLI once with a span around every call into its layers.

Usage: python3 bench/tracer.py SPAN_FILE ROW_MARKER -- CLI_ARGS...

Before the run, every public function of each layer module (and the
`__post_init__` validation of each public dataclass) is replaced, in every
package namespace that holds it, by a wrapper that records a span.  Calls to
numpy.linalg's eigensolvers and SVD are counted.  ROW_MARKER names the
function entered once per output row (`<module>.<function>`); spans are
tagged with the number of rows begun when they start, -1 before the first.
Nothing under src/ is edited; the wrappers live in this process only.
Spans stay in memory and are written to SPAN_FILE when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from spans import LAYERS, LINALG_COUNTED, SpanTable


class Recorder:
    """Span arrays of one run, filled by the wrappers it hands out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.row = array("i")
        self.stack = [-1]
        self.rows_begun = 0
        self.linalg_calls = {fn: 0 for fn in LINALG_COUNTED}

    def wrap(self, name: str, fn, marks_row: bool = False):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, row, stack = (
            self.name_id, self.start, self.end, self.parent, self.row, self.stack)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if marks_row:
                rec.rows_begun += 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            row.append(rec.rows_begun - 1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def mark_rows(self, fn):
        rec = self

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            rec.rows_begun += 1
            return fn(*args, **kwargs)

        return marked

    def count(self, fname: str, fn):
        counts = self.linalg_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[fname] += 1
            return fn(*args, **kwargs)

        return counted

    def table(self) -> SpanTable:
        return SpanTable(
            names=self.names,
            linalg_calls=dict(self.linalg_calls),
            **{k: np.array(getattr(self, k)) for k in ("name_id", "start", "end", "parent", "row")},
        )


def _wrap_udc(rec: Recorder, fn):
    """densecode.udc serves two measure columns, so each direction gets its own span name."""
    by_direction = {d: rec.wrap(f"densecode.udc.{d}", fn) for d in ("1to2", "2to1")}

    @functools.wraps(fn)
    def udc(rho, direction="1to2"):
        return by_direction.get(direction, fn)(rho, direction)

    return udc


def install(rec: Recorder, row_marker: str) -> None:
    """Wrap the public functions of every layer and patch every namespace that holds them."""
    modules = {layer: importlib.import_module(f"qutritchain.{layer}") for layer in LAYERS}
    replacements = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                if name == "densecode.udc":
                    replacements[obj] = _wrap_udc(rec, obj)
                else:
                    replacements[obj] = rec.wrap(name, obj, marks_row=name == row_marker)
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                obj.__post_init__ = rec.wrap(name, obj.__post_init__)
    marker_layer, marker_attr = row_marker.split(".", 1)
    marker = getattr(modules[marker_layer], marker_attr)
    if marker not in replacements:
        replacements[marker] = rec.mark_rows(marker)
    for mod in [importlib.import_module("qutritchain"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
    for fname in LINALG_COUNTED:
        setattr(np.linalg, fname, rec.count(fname, getattr(np.linalg, fname)))


def main() -> int:
    span_path, row_marker, _, *argv = sys.argv[1:]
    rec = Recorder()
    install(rec, row_marker)
    from qutritchain import cli

    code = cli.main(argv)
    sys.stdout.flush()
    rec.table().save(span_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

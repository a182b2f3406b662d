"""Out-of-library tracing of polygenocchi: wrappers, spans and layer metrics.

``instrument`` wraps the public functions of each layer module and rebinds
every module-level name that refers to them, in every ``polygenocchi``
module (so ``verifier``'s imported ``family_series`` is caught too), plus
the entries of ``verifier.REGISTRY``, which hold the check functions in
closures.  Nothing under ``src/`` changes; ``Instrumentation.restore`` puts
every original back.

Two kinds of wrapper:

* span wrappers (cli, verifier, families, kernels, series functions) record
  one span per call: name, start, end and the enclosing span.  Spans stay
  in flat arrays in memory and are written out once, at the end.
* aggregate wrappers (``Poly`` methods and combinatorics) are called too
  often for a span each.  They count every call and time only the
  outermost one; that time stays inside the enclosing span's self time.

A layer's self time is the duration of its spans minus the part covered by
their child spans (``self_time_by_layer``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "polygenocchi"
SPAN_LAYERS = ("cli", "verifier", "families", "kernels", "series")
AGGREGATE_LAYERS = ("combinatorics",)
POLY_METHODS = ("__init__", "__mul__", "__add__", "substitute")
FAMILY_SERIES = "families.family_series"


class Tracer:
    """Span store and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in opening order
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        # per name id: open depth, and inclusive time of outermost calls
        self.depth: list[int] = []
        self.inclusive: list[float] = []
        # aggregate-only names: calls and outermost time
        self.agg_calls: dict[str, int] = {}
        self.agg_time: dict[str, float] = {}
        self.agg_depth = 0
        # family_series keys
        self.family_keys: set = set()
        self.family_instances: set = set()
        self.family_build_s = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
            self.inclusive.append(0.0)
        return self._ids[name]

    def span_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, depth, inclusive, clock = (
            self.stack, self.depth, self.inclusive, self.clock,
        )

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                depth[nid] -= 1
                if not depth[nid]:
                    inclusive[nid] += end - start

        return wrapped

    def family_wrapper(self, fn):
        """Span wrapper for family_series that also keys every request."""
        signature = inspect.signature(fn)
        inner = self.span_wrapper(FAMILY_SERIES, fn)
        clock = self.clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (a["spec"], a["point"], a["order"], a["polylog_from_zero"])
            if key in self.family_keys:
                return inner(*args, **kwargs)
            self.family_keys.add(key)
            self.family_instances.add((key[0], key[1], key[3]))
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                self.family_build_s += clock() - start

        return wrapped

    def aggregate_wrapper(self, name: str, fn):
        self.agg_calls.setdefault(name, 0)
        self.agg_time.setdefault(name, 0.0)
        calls, times, clock = self.agg_calls, self.agg_time, self.clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            if self.agg_depth:
                self.agg_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.agg_depth -= 1
            self.agg_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - start
                self.agg_depth = 0

        return wrapped

    def summary(self) -> dict:
        """Counters and inclusive times, JSON-ready."""
        calls = [0] * len(self.names)
        for nid in self.span_name:
            calls[nid] += 1
        return {
            "spans": {
                name: {"calls": calls[i], "s": self.inclusive[i]}
                for i, name in enumerate(self.names)
            },
            "aggregates": {
                name: {"calls": self.agg_calls[name], "s": self.agg_time[name]}
                for name in self.agg_calls
            },
            "family_series": {
                "distinct": len(self.family_keys),
                "instances": len(self.family_instances),
                "build_s": self.family_build_s,
            },
        }

    def write_spans(self, path: Path) -> None:
        """Names as JSON beside the four span arrays in machine layout."""
        path = Path(path)
        columns = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "columns": ["name", "parent", "start", "end"],
            "typecodes": [arr.typecode for arr in columns],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in columns:
                arr.tofile(fh)


def load_spans(path: Path) -> tuple[list[str], list[tuple[int, int, float, float]]]:
    """Read what ``write_spans`` wrote: names and (name, parent, start, end)."""
    path = Path(path)
    header = json.loads(path.with_suffix(".json").read_text())
    columns = []
    with open(path.with_suffix(".bin"), "rb") as fh:
        for typecode in header["typecodes"]:
            arr = array(typecode)
            arr.fromfile(fh, header["count"])
            columns.append(arr)
    return header["names"], list(zip(*columns))


def self_time_by_layer(
    names: list[str], spans: list[tuple[int, int, float, float]]
) -> dict[str, float]:
    """Span duration minus child-span coverage, summed per layer.

    Children of one span never overlap (calls are nested), so their
    coverage is the sum of their durations.
    """
    child_cover = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    out: dict[str, float] = {}
    for i, (nid, _, start, end) in enumerate(spans):
        layer = names[nid].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child_cover[i]
    return out


class Instrumentation:
    """Wrappers installed by ``instrument``; ``restore`` undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer of the imported package; returns the undo handle."""
    inst = Instrumentation()
    wrappers: dict[int, object] = {}
    for layer in SPAN_LAYERS + AGGREGATE_LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for fname, fn in _public_functions(module).items():
            name = f"{layer}.{fname}"
            if name == FAMILY_SERIES:
                wrappers[id(fn)] = tracer.family_wrapper(fn)
            elif layer in AGGREGATE_LAYERS:
                wrappers[id(fn)] = tracer.aggregate_wrapper(layer, fn)
            else:
                wrappers[id(fn)] = tracer.span_wrapper(name, fn)
    for modname, module in sorted(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                inst.rebind(module, attr, wrappers[id(value)])
    verifier = sys.modules[f"{PACKAGE}.verifier"]
    for check_id, runner in list(verifier.REGISTRY.items()):
        inst.set_item(
            verifier.REGISTRY,
            check_id,
            tracer.span_wrapper(f"verifier.{check_id}", runner),
        )
    poly = sys.modules[f"{PACKAGE}.series"].Poly
    for method in POLY_METHODS:
        inst.rebind(
            poly,
            method,
            tracer.aggregate_wrapper(f"series.Poly.{method}", vars(poly)[method]),
        )
    return inst

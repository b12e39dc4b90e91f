"""Span tracing of the tabkit layers, from outside the library.

Every function named in a layer module's ``__all__`` is wrapped, and the
wrapper is bound wherever a tabkit module bound the original (``hecke``
imports ``positions`` by name, so ``hecke.positions`` is wrapped too).  Each
call records a span: name, start, end, parent span and op id.  A generator
returned by a wrapped function is timed again on each ``next()``, as a span
named ``<function>:next``.  Classes are not wrapped, so building an object
counts toward the self time of whoever builds it.

Spans are kept in flat arrays, about 26 bytes each, and written out after
the run.  Self time is a span's duration minus the durations of its child
spans; children never overlap, because every span closes before its caller
resumes.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from types import FunctionType, GeneratorType, ModuleType

LAYERS = ("core", "tableaux", "hecke", "dyck", "trees", "allowable", "cli")
NEXT = ":next"


class Tracer:
    """The spans of one traced run, and the module bindings it replaced."""

    def __init__(self, package: ModuleType) -> None:
        self.package = package
        self.names: list[str] = []  # span name by name id
        self.name = array("H")
        self.parent = array("i")  # index of the parent span, -1 at a root
        self.op = array("I")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]  # open spans, innermost last
        self.op_id = 0
        self.yields: Counter[str] = Counter()  # objects a generator produced
        self._bound: list[tuple[ModuleType, str, object]] = []
        self._op_name = self._name_id("op")

    @property
    def spans(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def open_op(self) -> int:
        """Open the root span of the next op; spans under it share its id."""
        self.op_id += 1
        return self.enter(self._op_name)

    def leave(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn: FunctionType):
        call_id, next_id = self._name_id(name), self._name_id(name + NEXT)
        enter, leave, yields = self.enter, self.leave, self.yields

        def traced_next(gen):
            while True:
                index = enter(next_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(index)
                yields[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(call_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index)
            if type(result) is GeneratorType:
                return traced_next(result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every public function of every layer to its wrapper."""
        modules = [self.package] + [getattr(self.package, m) for m in LAYERS]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, FunctionType) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in self._bound:
            setattr(module, attr, value)
        self._bound.clear()

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.bin`` (the columns, one after
        another, native byte order) and ``<stem>.json`` (their layout)."""
        columns = {"name": self.name, "parent": self.parent, "op": self.op,
                   "start": self.start, "end": self.end}
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for column in columns.values():
                column.tofile(fh)
        layout = {
            "spans": self.spans,
            "names": self.names,
            "columns": [[k, c.typecode, c.itemsize] for k, c in columns.items()],
        }
        stem.with_suffix(".json").write_text(json.dumps(layout) + "\n")


def span_stats(names, name, parent, start, end):
    """Per span name: (spans, total self time), plus how many spans of each
    name have a parent of each name, keyed (parent name, child name)."""
    durations = array("d", [e - s for s, e in zip(start, end)])
    self_time = array("d", durations)
    pairs: Counter[tuple[int, int]] = Counter()
    for i, p in enumerate(parent):
        if p >= 0:
            self_time[p] -= durations[i]
            pairs[name[p], name[i]] += 1
    count: Counter[int] = Counter(name)
    total: Counter[int] = Counter()
    for nid, t in zip(name, self_time):
        total[nid] += t
    stats = {names[k]: (count[k], total[k]) for k in count}
    edges = Counter({(names[p], names[c]): v for (p, c), v in pairs.items()})
    return stats, edges


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics of a traced run, each per pass."""
    stats, edges = span_stats(tracer.names, tracer.name, tracer.parent,
                              tracer.start, tracer.end)

    def calls(fn: str) -> int:
        return stats.get(fn, (0, 0.0))[0]

    def self_s(fn: str) -> float:
        return stats.get(fn, (0, 0.0))[1] + stats.get(fn + NEXT, (0, 0.0))[1]

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    functions = {n for n in tracer.names if not n.endswith(NEXT)}
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [f for f in functions if f.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(calls(f) for f in mine)
        m[f"{layer}.self_s"] = sum(self_s(f) for f in mine)
    for fn in ("tableaux.positions", "tableaux.validate_pct", "hecke.pi",
               "core.inversions"):
        m[f"{fn}.calls"] = calls(fn)
    for fn in ("tableaux.enumerate_spct", "tableaux.validate_pct",
               "hecke.equivalence_classes", "dyck.random_ldyck",
               "trees.random_ltree", "allowable.topological_spct"):
        m[f"{fn}.self_s"] = self_s(fn)
    for fn in ("tableaux.enumerate_spct", "trees.enumerate_ltrees"):
        m[f"{fn}.objects"] = tracer.yields[fn]
    # pi swaps entries exactly when its result is "moved"; allowable_pairs
    # tests each candidate pair with is_allowable_pair
    m["hecke.pi.moved_ratio"] = ratio(
        edges["hecke.pi", "hecke.swap_entries"], calls("hecke.pi"))
    m["allowable.allowable_pairs.yield_ratio"] = ratio(
        tracer.yields["allowable.allowable_pairs"],
        edges["allowable.allowable_pairs" + NEXT, "allowable.is_allowable_pair"])
    return {k: v / passes if k.endswith(("_s", "calls", "objects")) else v
            for k, v in m.items()}

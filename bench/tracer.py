"""Run one fekete-lab CLI job in this interpreter with the package's layers traced.

    python3 bench/tracer.py TRACE_JSON CLI_ARG...

Every public function (each module's `__all__`) and every public method of
a public class is wrapped, at every binding the package holds, before
`fekete_lab.cli.main(argv)` runs as the root span.  A span is opened on
each call; when it closes, its time is folded into an aggregate keyed by
(name, parent name), so memory stays bounded however many calls a job
makes.  A layer is a module, and its self time is its spans' time minus
their child spans, so the layer self times partition the root span.
Spans directly under the root are also kept whole (name, start, end,
parent).  The package itself is not modified: wrapping happens here, in
the job's own process, and the job's outputs must stay byte-identical.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "sampling", "domain", "registry", "checks", "limits",
          "levelset", "subshift", "ioutil", "svgplot")
# layers whose oracle evaluations are attributed to them
EVAL_LAYERS = ("checks", "limits", "levelset")
ROOT = "cli.main"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _batch_points(n: int) -> dict[str, int]:
    return {"registry.points": n, "registry.batch_points": n}


def _mesh_points(args, kwargs) -> dict[str, int]:
    n = 1
    for axis in _arg(args, kwargs, 1, "axes"):
        n *= len(axis)
    return _batch_points(n)


def _box_cells(args, kwargs) -> dict[str, int]:
    cells = 1
    for n in _arg(args, kwargs, 1, "sides"):
        cells *= int(n)
    return {"subshift.cells": cells}


# Work counted at a span boundary, read from the call's arguments.
# "registry.points" is also credited to every open layer in EVAL_LAYERS.
MEASURES = {
    "registry.FunctionOracle.evaluate": lambda args, kwargs: {"registry.points": 1},
    "registry.FunctionOracle.evaluate_mesh": _mesh_points,
    "registry.FunctionOracle.evaluate_points":
        lambda args, kwargs: _batch_points(len(_arg(args, kwargs, 1, "columns")[0])),
    "subshift.count_patterns": _box_cells,
    "ioutil.write_text_atomic":
        lambda args, kwargs: {"ioutil.bytes": len(_arg(args, kwargs, 1, "text").encode())},
    "svgplot.line_plot_svg":
        lambda args, kwargs: {"svgplot.points":
                              sum(len(s.points) for s in _arg(args, kwargs, 0, "series"))},
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child time]
        self.active = dict.fromkeys(LAYERS, 0)
        self.calls: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str | None], list] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.top_spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.root_s = 0.0
        self.t0 = time.perf_counter()

    def wrap(self, fn, name: str, layer: str):
        """A traced stand-in for fn, recorded as span `name` of `layer`."""
        stack, active, clock = self.stack, self.active, time.perf_counter
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            if measure is not None:
                self.count(measure(args, kwargs))
            frame = [name, 0.0]
            stack.append(frame)
            active[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[layer] -= 1
                stack.pop()
                self.close(name, layer, start, end, frame[1])

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def close(self, name: str, layer: str, start: float, end: float, child: float) -> None:
        duration = end - start
        self_time = duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += duration
        key = (name, parent[0] if parent else None)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += self_time
        self.calls[name] += 1
        self.layer_self[layer] += self_time
        if layer == "registry" and self.active["limits"]:
            self.counters["limits.eval_s"] += self_time
        if len(self.stack) <= 1:
            self.top_spans.append({"name": name, "parent": key[1],
                                   "start": start - self.t0, "end": end - self.t0})
        if parent is None and name == ROOT:
            self.root_s += duration

    def count(self, amounts: dict[str, int]) -> None:
        for counter, n in amounts.items():
            self.counters[counter] += n
            if counter == "registry.points":
                for layer in EVAL_LAYERS:
                    if self.active[layer]:
                        self.counters[f"{layer}.points"] += n

    def report(self) -> dict:
        edges = sorted(self.edges.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        return {
            "root_s": self.root_s,
            "layer_self_s": self.layer_self,
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "edges": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                      for (n, p), (c, t, s) in edges],
            "spans": self.top_spans,
        }


def install(tracer: Tracer):
    """Wrap the package's public surface in place; return the traced cli.main."""
    import fekete_lab

    modules = {layer: importlib.import_module(f"fekete_lab.{layer}") for layer in LAYERS}
    traced_of: dict[int, tuple[object, object]] = {}  # id(original) -> (original, traced)
    for layer, module in modules.items():
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exported: wrapped where it is defined
            if isinstance(obj, types.FunctionType):
                traced_of[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{export}", layer))
            elif isinstance(obj, type):
                _wrap_methods(tracer, obj, layer)
    main = modules["cli"].main
    traced_of[id(main)] = (main, tracer.wrap(main, ROOT, "cli"))

    for module in (fekete_lab, *modules.values()):
        for attr, value in list(vars(module).items()):
            hit = traced_of.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return modules["cli"].main


def _wrap_methods(tracer: Tracer, cls: type, layer: str) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, types.FunctionType):
            setattr(cls, attr, tracer.wrap(member, name, layer))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(tracer.wrap(member.__func__, name, layer)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON CLI_ARG...", file=sys.stderr)
        return 2
    trace_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import fekete_lab.cli  # noqa: F401  (timed: the import every CLI run pays)
    import_s = time.perf_counter() - start
    tracer = Tracer()
    code = install(tracer)(cli_argv)
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "exit": code, **tracer.report()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

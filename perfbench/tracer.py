"""Layer tracer for the dieres benchmark, installed from outside the package.

Every public function of every ``dieres`` module is wrapped and the wrapper is
bound under each name a ``dieres`` module (or the package) binds the function
to, so calls between modules go through it.  The layers are the modules, with
``specfun`` split into ``specfun.radial`` (Bessel/Hankel/Riccati functions),
``specfun.angular`` (spherical and vector spherical harmonics) and
``specfun.zeros`` (``bessel_zero``).

A span is recorded only when a call crosses from one layer into another; a call
from a layer into itself passes straight through.  Spans hold a name, start,
end, parent span and request id, stay in memory and are written as JSON lines
at the end.  A layer's self time is the duration of its spans minus the time
covered by their child spans.

Besides spans, a few counters run on every call of a named function (also on
calls from inside its own layer), because the work they count happens there:
Muller iterations, denominator evaluations, resonance attempts, Mie table
orders, CLI rows and rendered bytes.
"""

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

CLIENT = "client"

# (layer, metric, unit, better); the order is the report order.
PER_LAYER = [
    ("specfun.radial", "calls", "count", "lower"),
    ("specfun.radial", "self_s", "s", "lower"),
    ("specfun.radial", "elements", "count", "lower"),
    ("specfun.radial", "us_per_element", "us", "lower"),
    ("specfun.angular", "calls", "count", "lower"),
    ("specfun.angular", "self_s", "s", "lower"),
    ("specfun.angular", "entries", "count", "lower"),
    ("specfun.angular", "ns_per_entry", "ns", "lower"),
    ("specfun.zeros", "calls", "count", "lower"),
    ("specfun.zeros", "self_s", "s", "lower"),
    ("mie", "calls", "count", "lower"),
    ("mie", "self_s", "s", "lower"),
    ("mie", "orders", "count", "lower"),
    ("mie", "resonance_errors", "count", "lower"),
    ("resonance", "calls", "count", "lower"),
    ("resonance", "self_s", "s", "lower"),
    ("resonance", "muller_iterations", "count", "lower"),
    ("resonance", "denominator_evals", "count", "lower"),
    ("resonance", "attempts", "count", "higher"),
    ("resonance", "converged_ratio", "ratio", "higher"),
    ("fields", "calls", "count", "lower"),
    ("fields", "self_s", "s", "lower"),
    ("fields", "points", "count", "lower"),
    ("quasistatic", "calls", "count", "lower"),
    ("quasistatic", "self_s", "s", "lower"),
    ("multipole", "calls", "count", "lower"),
    ("multipole", "self_s", "s", "lower"),
    ("multipole", "quad_nodes", "count", "lower"),
    ("cli", "calls", "count", "lower"),
    ("cli", "self_s", "s", "lower"),
    ("cli", "rows", "count", "higher"),
    ("cli", "bytes", "B", "lower"),
    ("trace", "overhead_frac", "ratio", "lower"),
]
LAYERS = list(dict.fromkeys(layer for layer, _, _, _ in PER_LAYER if layer != "trace"))


def layer_of(module_name, func_name):
    """Layer of a public function defined in ``dieres.<module>``."""
    short = module_name.split(".", 1)[1] if "." in module_name else module_name
    if short != "specfun":
        return short
    if "zero" in func_name:
        return "specfun.zeros"
    if any(key in func_name for key in ("harmonic", "vsh", "angles")):
        return "specfun.angular"
    return "specfun.radial"


def _directions(x):
    return int(np.size(x)) // 3


def _arg(args, kwargs, pos, *names):
    if len(args) > pos:
        return args[pos]
    for name in names:
        if name in kwargs:
            return kwargs[name]
    return None


def _radial_work(name, args, kwargs, result):
    return {"elements": int(np.size(_arg(args, kwargs, 1, "z", "t")))}


def _angular_work(name, args, kwargs, result):
    # directions x (n, m) pairs produced
    if name == "vsh_table":
        n_max = int(_arg(args, kwargs, 0, "n_max"))
        return {"entries": _directions(_arg(args, kwargs, 1, "x")) * n_max * (n_max + 2)}
    if name in ("vsh_UV", "sph_harmonic"):
        return {"entries": _directions(_arg(args, kwargs, 2, "x"))}
    return {"entries": 0}


def _fields_work(name, args, kwargs, result):
    x = args[-1] if args else kwargs.get("x", kwargs.get("xhat"))
    return {"points": _directions(x) if np.ndim(x) else 0}


def _multipole_work(name, args, kwargs, result):
    if name in ("magnetic_moment", "electric_moment"):
        return {"quad_nodes": len(_arg(args, kwargs, 2, "q").weights)}
    if name in ("sphere_quadrature", "ball_quadrature"):
        return {"quad_nodes": len(result.weights)}
    return {"quad_nodes": 0}


# work counted on spans, by layer: f(function name, args, kwargs, result)
SPAN_WORK = {
    "specfun.radial": _radial_work,
    "specfun.angular": _angular_work,
    "fields": _fields_work,
    "multipole": _multipole_work,
}


def _count_muller(counts, args, kwargs, result, exc):
    if exc is None:
        counts["resonance.muller_iterations"] += result[2]
    elif hasattr(exc, "iterations"):
        counts["resonance.muller_iterations"] += exc.iterations


def _count_denominator(counts, args, kwargs, result, exc):
    counts["resonance.denominator_evals"] += 1


def _count_attempt(counts, args, kwargs, result, exc):
    counts["resonance.attempts"] += 1
    counts["resonance.converged"] += exc is None


def _count_table(counts, args, kwargs, result, exc):
    if exc is None:
        counts["mie.orders"] += _arg(args, kwargs, 0, "cfg").n_max
    elif type(exc).__name__ == "ResonanceError":
        counts["mie.resonance_errors"] += 1


def _count_rows(counts, args, kwargs, result, exc):
    if exc is None:
        counts["cli.rows"] += len(result.rows)


def _count_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        counts["cli.bytes"] += len(result.encode())


CALL_COUNTERS = {
    "resonance.muller_root": _count_muller,
    "resonance.resonance_function": _count_denominator,
    "resonance.find_resonance": _count_attempt,
    "mie.mie_coefficients": _count_table,
    "cli.run_config": _count_rows,
    "cli.CsvTable.render_csv": _count_bytes,
    "cli.CsvTable.render_json": _count_bytes,
}


class Tracer:
    """Wraps the public functions of the loaded ``dieres`` modules.

    ``install`` binds the wrappers and ``uninstall`` restores the originals;
    spans and counters are recorded only while ``active`` is true.
    """

    def __init__(self):
        self.active = False
        self.request = None
        self.spans = []          # [name, layer, parent, request, start, end]
        self.counts = defaultdict(int)
        self._stack = []         # indices of open spans
        self._layers = [CLIENT]  # layer of each open span, client at the bottom
        self._patched = []       # (owner, attribute, original)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dieres" or name.startswith("dieres."))]
        wrappers = {}
        for module in modules:
            if module.__name__ == "dieres":
                continue
            short = module.__name__.split(".", 1)[1]
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                layer = layer_of(module.__name__, name)
                wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{short}.{name}", name))
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, name, entry[1])
        table = getattr(sys.modules.get("dieres.cli"), "CsvTable", None)
        for method in ("render_csv", "render_json"):
            if table is not None and hasattr(table, method):
                original = getattr(table, method)
                self._patch(table, method, self._wrap(original, "cli", f"cli.CsvTable.{method}", method))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, layer, qualname, name):
        tracer = self
        span_work = SPAN_WORK.get(layer)
        counter = CALL_COUNTERS.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            crossing = tracer._layers[-1] != layer
            if not crossing and counter is None:
                return fn(*args, **kwargs)
            if crossing:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                span = [qualname, layer, parent, tracer.request, clock(), None]
                tracer.spans.append(span)
                tracer._stack.append(index)
                tracer._layers.append(layer)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if crossing:
                    span[5] = clock()
                    tracer._stack.pop()
                    tracer._layers.pop()
                    if span_work is not None and exc is None:
                        for key, value in span_work(name, args, kwargs, result).items():
                            tracer.counts[f"{layer}.{key}"] += value
                if counter is not None:
                    counter(tracer.counts, args, kwargs, result, exc)

        return traced

    def self_times(self):
        """Self time of every span: duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, _, _, _, start, end), c in zip(self.spans, child)]

    def layer_metrics(self):
        """Per-layer calls, self time and work counts, plus per-function rows."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        functions = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            calls[span[1]] += 1
            self_s[span[1]] += own
            functions[span[0]][0] += 1
            functions[span[0]][1] += own
        c = self.counts
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = calls[layer]
            values[f"{layer}.self_s"] = self_s[layer]
        values["specfun.radial.elements"] = c["specfun.radial.elements"]
        values["specfun.radial.us_per_element"] = _ratio(
            self_s["specfun.radial"] * 1e6, c["specfun.radial.elements"])
        values["specfun.angular.entries"] = c["specfun.angular.entries"]
        values["specfun.angular.ns_per_entry"] = _ratio(
            self_s["specfun.angular"] * 1e9, c["specfun.angular.entries"])
        for key in ("mie.orders", "mie.resonance_errors", "resonance.muller_iterations",
                    "resonance.denominator_evals", "resonance.attempts", "fields.points",
                    "multipole.quad_nodes", "cli.rows", "cli.bytes"):
            values[key] = c[key]
        values["resonance.converged_ratio"] = _ratio(c["resonance.converged"], c["resonance.attempts"])
        values["resonance.converged"] = c["resonance.converged"]
        return values, dict(functions)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, layer, parent, request, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer, "parent": parent,
                                     "request": request, "start": start, "end": end}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0

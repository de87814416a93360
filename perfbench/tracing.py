"""Spans and counters around the public functions of each maxsurf layer.

The tracer replaces each traced function at every module attribute that
holds it, so callers that imported the name directly (``from .expr import
compile_fn``) go through the wrapper too.  Functions that call themselves
through their own module global (``compile_fn``, ``differentiate``) are not
replaced in their defining module, so one span covers one outside call
rather than every node of the recursion.  Nothing in ``src/`` changes;
``uninstall`` restores every attribute.

Spans are kept in memory as (name, start, end, parent index) and written
out by ``write``.  A span's self time is its duration minus the time its
child spans cover; calls are sequential on one thread, so that is the sum
of the children's durations.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("maxsurf", "maxsurf.cli", "maxsurf.expr", "maxsurf.extension", "maxsurf.verify", "maxsurf.weierstrass")
LAYERS = ("cli", "expr", "weierstrass", "extension", "verify")

# span name -> (defining module, attribute path, recursive through its module global)
# minkowski has no span: its calls are sub-microsecond arithmetic, so a wrapper
# would cost more than the work, and its time shows in its callers' self time.
TRACED = {
    "cli.main": ("maxsurf.cli", "main", False),
    "cli.parse_config": ("maxsurf.cli", "SurfaceConfig.from_file", False),
    "cli.extended_surface": ("maxsurf.cli", "SurfaceConfig.extended_surface", False),
    "cli.build_mesh": ("maxsurf.cli", "build_mesh", False),
    "cli.write_obj": ("maxsurf.cli", "write_obj", False),
    "cli.write_sidecar": ("maxsurf.cli", "write_sidecar", False),
    "expr.parse": ("maxsurf.expr", "parse", False),
    "expr.evaluate": ("maxsurf.expr", "evaluate", False),
    "expr.compile_fn": ("maxsurf.expr", "compile_fn", True),
    "expr.differentiate": ("maxsurf.expr", "differentiate", True),
    "expr.format_expr": ("maxsurf.expr", "format_expr", False),
    "weierstrass.evaluate_surface": ("maxsurf.weierstrass", "evaluate_surface", False),
    "weierstrass.surface_path": ("maxsurf.weierstrass", "surface_path", False),
    "weierstrass.conformal_factor": ("maxsurf.weierstrass", "conformal_factor", False),
    "weierstrass.gauss_map": ("maxsurf.weierstrass", "gauss_map", False),
    "extension.measure_contact": ("maxsurf.extension", "measure_contact", False),
    "extension.extend": ("maxsurf.extension", "extend", False),
    "extension.ExtendedSurface.evaluate": ("maxsurf.extension", "ExtendedSurface.evaluate", False),
    "verify.full_diagnostics": ("maxsurf.verify", "full_diagnostics", False),
    "verify.harmonicity_order": ("maxsurf.verify", "harmonicity_order", False),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.field_calls = 0  # calls of closures compile_fn returns to weierstrass
        self.panels = 0  # GK15 panels
        self.path_points: list[int] = []
        self.path_errors: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _counted_compile_fn(self, compile_fn):
        def compile_counted(e):
            inner = compile_fn(e)

            def closure(z):
                self.field_calls += 1
                return inner(z)

            return closure

        return self._span("expr.compile_fn", compile_counted)

    def _count_panel(self, gk15):
        def panel(*args):
            self.panels += 1
            return gk15(*args)

        return panel

    def _after_surface_path(self, sv):
        self.path_points.append(len(sv.waypoints))
        self.path_errors.append(sv.error)

    # -- installation

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, path, recursive) in TRACED.items():
            owner = importlib.import_module(home)
            *cls, attr = path.split(".")
            if cls:  # a method or classmethod: replace it on its class
                klass = getattr(owner, cls[0])
                raw = klass.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(klass, attr, classmethod(self._span(name, raw.__func__)))
                else:
                    self._set(klass, attr, self._span(name, raw))
                continue
            fn = getattr(owner, attr)
            after = self._after_surface_path if name == "weierstrass.surface_path" else None
            wrapper = self._span(name, fn, after)
            for mod in modules:
                if mod.__dict__.get(attr) is not fn or (recursive and mod is owner):
                    continue
                if name == "expr.compile_fn" and mod.__name__ == "maxsurf.weierstrass":
                    self._set(mod, attr, self._counted_compile_fn(fn))
                else:
                    self._set(mod, attr, wrapper)
        for home in ("maxsurf.weierstrass", "maxsurf.verify"):
            mod = importlib.import_module(home)
            self._set(mod, "_gk15", self._count_panel(mod._gk15))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results

    def totals(self):
        """Per span name: (calls, total seconds, self seconds); per layer: self seconds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), c in zip(self.spans, child):
            s = end - start - c
            self_s[name] += s
            layer_self[name.split(".", 1)[0]] += s
        return calls, total, self_s, layer_self

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")

"""Per-layer tracing installed from outside the package.

``Tracer.install`` wraps the public functions of each layer and rebinds every
reference the package holds to them: the defining module's attribute, each
name another module bound with ``from ... import``, the package namespace and
the ``cli.METHODS`` table.  Geometry constructors are wrapped on the class.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Each call becomes a span (id, parent id, request id, layer, start, end) kept
in memory.  A layer's self time is its spans' time minus the time of their
child spans; a layer's call count is the number of spans entered from
outside the layer, so classify_point_quad called by faces_containing called
by face_of_point_hex counts as one classification.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> public functions, as (module, attribute or Class.__init__).
LAYERS = {
    "smallsolve.solve": [("smallsolve", "solve_dense")],
    "geometry.classify": [
        ("geometry", "classify_point_quad"),
        ("geometry", "face_of_point_hex"),
        ("geometry", "faces_containing"),
    ],
    "geometry.construct": [
        ("geometry", "Quadrilateral.__init__"),
        ("geometry", "Hexahedron.__init__"),
        ("geometry", "NodeSet1D.__init__"),
    ],
    "coords2d.eval": [
        ("coords2d", "moment_coords_quad"),
        ("coords2d", "wachspress_coords_quad"),
    ],
    "coords2d.oracle": [
        ("coords2d", "mvc_oracle"),
        ("coords2d", "wachspress_oracle"),
        ("coords2d", "cramer_coords_quad"),
    ],
    "coords3d.frame": [("coords3d", "reference_frame")],
    "coords3d.eval": [("coords3d", "moment_coords_hex")],
    "coords1d.eval": [("coords1d", "moment_coords_1d")],
    "coords1d.oracle": [("coords1d", "hat_oracle")],
    "gradients.fd": [("gradients", "finite_difference_gradient")],
    "sampling.points": [
        ("sampling", "interior_points_quad"),
        ("sampling", "interior_points_hex"),
        ("sampling", "face_points_hex"),
    ],
    "checks.suite": [
        ("checks", "run_suite"),
        ("checks", "quad_suite"),
        ("checks", "hex_suite"),
        ("checks", "interval_suite"),
    ],
    "cli.main": [("cli", "main")],
}
LAYER_NAMES = list(LAYERS)
PACKAGE = "momentcoords"

# Span flags: what a span's outcome says beyond its duration.
FLAG_NONE, FLAG_SINGULAR, FLAG_IDENTITY = 0, 1, 2


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, layer, t0, t1, flag)
        self.request = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        singular = mods["errors"].SingularMatrix
        for layer, targets in LAYERS.items():
            index = LAYER_NAMES.index(layer)
            for module, attr in targets:
                if attr.endswith(".__init__"):
                    cls = getattr(mods[module], attr.split(".")[0])
                    self._set(cls, "__init__", self._wrap(index, cls.__init__, singular))
                    continue
                orig = getattr(mods[module], attr)
                frames = layer == "coords3d.frame"
                self._rebind(orig, self._wrap(index, orig, singular, frames))

    def _rebind(self, orig, wrapper):
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, name, wrapper)
        for table in vars(sys.modules[PACKAGE + ".cli"])["METHODS"].values():
            for key, value in list(table.items()):
                if value is orig:
                    self._undo.append((table, key, value, True))
                    table[key] = wrapper

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name), False))
        setattr(obj, name, value)

    def uninstall(self):
        for obj, name, value, is_item in reversed(self._undo):
            if is_item:
                obj[name] = value
            else:
                setattr(obj, name, value)
        self._undo.clear()

    def _wrap(self, layer, fn, singular, frames=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            flag = FLAG_NONE
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except singular:
                flag = FLAG_SINGULAR
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, tracer.request, layer, t0, t1, flag))
            if frames and result.is_identity():
                spans[-1] = spans[-1][:6] + (FLAG_IDENTITY,)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def layer_totals(self):
        """Per layer: calls entered from outside the layer, self seconds,
        total seconds of those outermost calls, and flag counts."""
        n = self._next_id
        layer_of = [0] * n
        child = [0.0] * n
        for sid, parent, _, layer, t0, t1, _ in self.spans:
            layer_of[sid] = layer
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                   "singular": 0, "identity": 0})
        for sid, parent, _, layer, t0, t1, flag in self.spans:
            agg = out[LAYER_NAMES[layer]]
            agg["self_s"] += (t1 - t0) - child[sid]
            if parent < 0 or layer_of[parent] != layer:
                agg["calls"] += 1
                agg["total_s"] += t1 - t0
            agg["singular"] += flag == FLAG_SINGULAR
            agg["identity"] += flag == FLAG_IDENTITY
        return out

    def write(self, path):
        """Spans as tab-separated text, times in nanoseconds from the first."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tlayer\tstart_ns\tend_ns\tflag\n")
            for sid, parent, req, layer, t0, t1, flag in self.spans:
                fh.write(f"{sid}\t{parent}\t{req}\t{LAYER_NAMES[layer]}\t"
                         f"{round((t0 - base) * 1e9)}\t{round((t1 - base) * 1e9)}\t{flag}\n")

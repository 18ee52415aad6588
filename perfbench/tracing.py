"""Spans around the program's public calls, installed from outside.

``install(tracer)`` replaces each traced function with a wrapper in *every*
``secondform`` module namespace that binds it (``from .x import f`` copies
the binding at import time, so patching only the defining module would miss
``spheres.exp_map``, ``variation.ii_geometry``, ``iigeom.jinv`` and so on),
plus ``Jet.__mul__``/``Jet.__rmul__`` on the class.  It returns a function
that puts every original back.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of all layers add up to the summed duration of the
root spans.  A call is counted only when the enclosing span has a different
counter, so recursion (``jdet`` calls ``jdet``) and nesting of one counted
family (``jinv`` calls ``jdet``) count the outermost call once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "secondform"
LAYERS = ("jets", "ambient", "hypersurface", "iigeom", "variation", "spheres", "cli", "bench")

# (module, attribute, counter); the layer is the module.  Counters name the
# call families the per-layer metrics count; None means timed, not counted.
TARGETS = [
    ("jets", "compose", "jets.compose"),
    ("jets", "jinv", "jets.inv"),
    ("jets", "jdet", "jets.inv"),
    ("ambient", "curvature_jet", "ambient.curvature_jet"),
    ("ambient", "exp_map", "ambient.exp_map"),
    ("ambient", "christoffel", None),
    ("hypersurface", "frame_jets", "hypersurface.frame_jets"),
    ("hypersurface", "surface_point", None),
    ("iigeom", "ii_geometry", "iigeom.ii_geometry"),
    ("iigeom", "sphere_inequality_report", None),
    ("variation", "area", "variation.area"),
    ("variation", "first_variation_check", "variation.first_variation_check"),
    ("variation", "grid_for_immersion", None),
    ("spheres", "numeric_sphere_quantities", "spheres.numeric_sphere_quantities"),
    ("spheres", "area_derivative_check", "spheres.area_derivative_check"),
    ("spheres", "sphere_remainder_studies", None),
    ("spheres", "geodesic_sphere", None),
    ("spheres", "geodesic_sphere_patch", None),
    ("spheres", "flatness_diagnostic", None),
    ("spheres", "series_eval", None),
    ("spheres", "h_ii_recombination_error", None),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "_csv_rows", "cli.csv_rows"),
]


class Tracer:
    """Span stack with per-name, per-layer and per-counter accumulators.

    ``take()`` returns what was accumulated since the last ``take()`` and
    starts afresh, so the caller can scale one operation's times by that
    operation's speed factor.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.name_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.root_s = 0.0
        self.distinct = set()
        self._pinned = []

    def enter(self, name: str, layer: str, counter=None):
        stack = self._stack
        if counter is not None and (not stack or stack[-1][2] != counter):
            self.calls[counter] += 1
        # frame: [name, layer, counter, start, child seconds]
        frame = [name, layer, counter, 0.0, 0.0]
        stack.append(frame)
        frame[3] = self.clock()

    def exit(self):
        end = self.clock()
        name, layer, _counter, start, child = self._stack.pop()
        dur = end - start
        self.name_s[name] += dur
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        else:
            self.root_s += dur

    def add(self, key: str, amount: float):
        self.counts[key] += amount

    def note_points(self, owner, points):
        """Record immersion-points requested, for the recompute ratio."""
        self._pinned.append(owner)  # keeps id(owner) unique until take()
        for row in points:
            self.distinct.add((id(owner), row.tobytes()))

    def take(self) -> dict:
        out = {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "name_s": dict(self.name_s),
            "self_s": dict(self.self_s),
            "root_s": self.root_s,
            "distinct_points": len(self.distinct),
        }
        self._reset()
        return out

    @contextlib.contextmanager
    def span(self, name: str, layer: str, counter=None):
        self.enter(name, layer, counter)
        try:
            yield
        finally:
            self.exit()


def _batch_points(jet) -> int:
    shape = getattr(jet, "batch_shape", ())
    return math.prod(shape) if shape else 1


def _wrap(tracer, fn, name, layer, counter, after=None):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name, layer, counter)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def _wrap_mul(tracer, fn, jet_type):
    """Leaf span for Jet.__mul__/__rmul__, the hottest call of the program.

    A multiply calls no traced function, so its span never has children and
    is accounted for without touching the span stack.  Jet-by-jet products
    also add their multiply-adds: multiplication-table triples times batch
    points.
    """
    clock = tracer.clock
    n_triples = {}

    @functools.wraps(fn)
    def wrapper(a, b):
        t0 = clock()
        result = fn(a, b)
        dur = clock() - t0
        stack = tracer._stack
        tracer.name_s["jets.Jet.mul"] += dur
        tracer.self_s["jets"] += dur
        if stack:
            stack[-1][4] += dur
        else:
            tracer.root_s += dur
        tracer.calls["jets.mul"] += 1
        if type(b) is jet_type and type(result) is jet_type:
            space = result.space
            n = n_triples.get(space)
            if n is None:
                n = n_triples[space] = len(space._mult_triples)
            shape = result.coeffs.shape
            tracer.counts["jets.madds"] += n * (math.prod(shape[1:]) if len(shape) > 1 else 1)
        return result

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def _after_hooks(tracer, modules):
    exp_sig = inspect.signature(modules["ambient"].exp_map)

    def exp_map(args, kwargs, result):
        bound = exp_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        steps = int(bound.arguments["n_steps"])
        points = _batch_points(bound.arguments["x0_jets"][0])
        tracer.add("ambient.rk4_steps", steps)
        tracer.add("ambient.rk4_point_steps", steps * points)

    def frame_jets(args, kwargs, result):
        u_jets = args[1] if len(args) > 1 else kwargs["u_jets"]
        tracer.add("hypersurface.frame_jets_points", _batch_points(u_jets[0]))

    np = sys.modules["numpy"]

    def ii_geometry(args, kwargs, result):
        imm = args[0] if args else kwargs["imm"]
        u = args[1] if len(args) > 1 else kwargs["u"]
        pts = np.asarray(u, dtype=float).reshape(-1, imm.param_dim)
        tracer.add("iigeom.ii_geometry_points", pts.shape[0])
        tracer.note_points(imm, pts)

    return {
        ("ambient", "exp_map"): exp_map,
        ("hypersurface", "frame_jets"): frame_jets,
        ("iigeom", "ii_geometry"): ii_geometry,
    }


def install(tracer: Tracer):
    """Wrap every target in every ``secondform`` module that binds it.

    Returns a function that restores the original bindings.
    """
    for module in {m for m, _, _ in TARGETS}:
        importlib.import_module(f"{PACKAGE}.{module}")
    prefix = PACKAGE + "."
    modules = {name[len(prefix):]: mod for name, mod in list(sys.modules.items())
               if name.startswith(prefix) and mod is not None}
    namespaces = [sys.modules[PACKAGE]] + list(modules.values())
    hooks = _after_hooks(tracer, modules)
    restore = []

    for module, attr, counter in TARGETS:
        original = getattr(modules[module], attr)
        wrapper = _wrap(tracer, original, f"{module}.{attr}", module, counter,
                        hooks.get((module, attr)))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    restore.append((ns, key, original))

    Jet = modules["jets"].Jet
    for attr in ("__mul__", "__rmul__"):
        original = Jet.__dict__[attr]
        setattr(Jet, attr, _wrap_mul(tracer, original, Jet))
        restore.append((Jet, attr, original))

    def uninstall():
        for ns, key, original in reversed(restore):
            setattr(ns, key, original)

    return uninstall


def bindings():
    """(namespace, name) pairs currently bound to a perfbench wrapper."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, "__wrapped_by_perfbench__"):
                out.append((name, key))
    return sorted(out)

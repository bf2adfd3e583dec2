"""Spans around the program's layer boundaries, installed from outside.

The layers are the modules in LAYERS.  A function defined in a layer is
wrapped at every other module of the package that binds it by name (so
`build_omega_complex` is wrapped in cubes, grids, acceptance and the
package namespace, but paths' own calls to it stay plain), and in the
namespace the benchmark calls through.  Methods of classes defined in a
layer are wrapped once, on the class; a method call made while the
innermost open span already belongs to the method's own layer records no
span, so only calls that cross a layer boundary are recorded.  Spans are
recorded only while an item runs, never during checks.

Spans are (name, start, end, parent) rows kept in arrays and written out
at the end.  A layer's self time is the time of its spans minus the part
covered by their child spans; the time of an item not covered by any
span is the benchmark's own (`trace.unattributed_s`).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
import time
from array import array

import workloads

PACKAGE = "digraph_homology"
LAYERS = ("cli", "digraphs", "paths", "cubes", "chains", "intlinalg", "grids")
BENCH = -1  # parent index of a span opened by the benchmark itself

# per-layer timings: metric -> span names whose outermost spans are summed
TIMED = {
    "chains.homology_s": ("chains.ChainComplex.homology",),
    "intlinalg.kernel_basis_s": ("intlinalg.sparse_kernel_basis",),
    "paths.omega_build_s": ("paths.OmegaComplex.__init__",),
    "cubes.complex_build_s": ("cubes.CubicalComplex.__init__", "cubes.CubicalPair.__init__"),
    "cubes.comparison_s": ("cubes.comparison_L",),
    "chains.les_map_s": (
        "chains.ChainComplexPair.connecting_map",
        "chains.ChainComplexPair.quotient_map",
        "chains.ChainComplexPair.inclusion_map",
    ),
    "chains.map_inverse_s": ("chains.GroupMap.inverse",),
    "intlinalg.smith_s": ("intlinalg.smith_normal_form", "intlinalg.integer_solve"),
    "chains.exactness_s": ("chains.verify_exactness",),
    "grids.certificate_s": ("grids.verify_homotopy_certificate",),
    "grids.hurewicz_s": ("grids.hurewicz_class", "grids.glmy_hurewicz"),
    "grids.validate_s": ("grids.grid_map_violation",),
}
# per-layer counts of spans
COUNTED = {
    "chains.homology_builds": "chains.HomologyData.__init__",
    "paths.omega_builds": "paths.OmegaComplex.__init__",
    "cubes.complex_builds": "cubes.CubicalComplex.__init__",
    "chains.map_inverses": "chains.GroupMap.inverse",
    "grids.validations": "grids.grid_map_violation",
}
# functions also wrapped inside their own module, where the counts above
# need the module's internal calls (require_valid -> grid_map_violation)
SELF_BOUND = {"grids": ("grid_map_violation",)}


def _nonzeros(cols_by_degree) -> int:
    return sum(len(col) for cols in cols_by_degree.values() for col in cols)


def _cells(f) -> int:
    total = 1
    for m in f.lengths:
        total *= m
    return total


# sizes read when a span closes: span name -> [(counter, function of the
# call's first argument, which is `self` for a constructor)]
SIZES = {
    "chains.ChainComplex.__init__": [("chains.boundary_nonzeros", lambda c: _nonzeros(c.boundary_cols))],
    "paths.OmegaComplex.__init__": [
        ("paths.allowed_paths", lambda oc: sum(len(p) for p in oc.allowed.values())),
        ("paths.omega_rank", lambda oc: sum(len(b) for b in oc.complex.degrees.values())),
    ],
    "cubes.CubicalComplex.__init__": [
        ("cubes.nondegenerate_cubes", lambda cc: sum(len(b) for b in cc.basis.values()))
    ],
    "grids.hurewicz_class": [("grids.cells", _cells)],
    "grids.glmy_hurewicz": [("grids.cells", _cells)],
}
# accessors of the digraph and grid models, called up to millions of times
# per round: even an unrecorded wrapper costs more than the call, so they
# are not wrapped and their time stays with the caller
ACCESSORS = {
    "digraphs.Digraph.has_vertex",
    "digraphs.Digraph.has_arrow",
    "digraphs.Digraph.index",
    "digraphs.Digraph.out_neighbors",
    "digraphs.Digraph.in_neighbors",
    "digraphs.LineSpec.forward_at",
    "digraphs.LineSpec.arrow",
    "cubes.SingularCube.__init__",
    "cubes.SingularCube.corner",
    "grids.GridMap.value",
    "grids.GridMap.flat_index",
    "grids.GridMap.indices",
    "grids.ShrinkingMap.apply",
}
# spans recorded even inside their own layer, because a metric needs them
ALWAYS = (
    {n for names in TIMED.values() for n in names} | set(COUNTED.values()) | set(SIZES)
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [BENCH]
        self.layer_stack = [-1]
        self.recording = False
        self.counters: dict[str, int] = {}
        self.lookups = {"paths": [0, 0], "cubes": [0, 0]}
        self.item_time = 0.0
        self.items = 0
        self._undo: list[tuple] = []
        self._lookups_before = None

    # --- installing ----------------------------------------------------------

    def _id(self, name: str, layer: int) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _wrap(self, fn, name: str, layer: int, skip_same_layer: bool):
        nid = self._id(name, layer)
        sizes = SIZES.get(name, ())
        skip_same_layer = skip_same_layer and name not in ALWAYS
        counters = self.counters
        stack, layer_stack = self.stack, self.layer_stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording or (skip_same_layer and layer_stack[-1] == layer):
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            layer_stack.append(layer)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                layer_stack.pop()
                if sizes:
                    tracer.recording = False
                    for counter, measure in sizes:
                        counters[counter] = counters.get(counter, 0) + measure(args[0])
                    tracer.recording = True

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {PACKAGE: package}
        for info in pkgutil.iter_modules(package.__path__):
            name = f"{PACKAGE}.{info.name}"
            if info.name != "__main__":
                modules[name] = importlib.import_module(name)
        importers = list(modules.values()) + [workloads]
        for layer_index, layer in enumerate(LAYERS):
            module = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer, layer_index)
                    continue
                if not callable(obj):
                    continue
                traced = self._wrap(obj, f"{layer}.{attr}", layer_index, False)
                for m in importers:
                    if m is module and attr not in SELF_BOUND.get(layer, ()):
                        continue
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            self._set(m, key, traced)

    def _wrap_class(self, cls, layer: str, layer_index: int) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in ACCESSORS:
                continue
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(member.__func__, name, layer_index, True)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer_index, True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- recording -----------------------------------------------------------

    def begin_item(self) -> None:
        self._lookups_before = workloads.cache_lookups()
        self.recording = True

    def end_item(self, seconds: float) -> None:
        self.recording = False
        after = workloads.cache_lookups()
        for theory, (hits, misses) in after.items():
            h0, m0 = self._lookups_before[theory]
            self.lookups[theory][0] += hits - h0
            self.lookups[theory][1] += misses - m0
        self.item_time += seconds
        self.items += 1

    # --- results -------------------------------------------------------------

    def _self_times(self):
        n = len(self.start)
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p == BENCH:
                top += dur
            else:
                child[p] += dur
        by_layer = [0.0] * len(LAYERS)
        for i in range(n):
            by_layer[self.layer_of[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return by_layer, top

    def _outermost(self, names) -> float:
        """Total time of spans named in `names` that have no ancestor of
        those names (so recursion and nesting are counted once)."""
        ids = {self._ids[n] for n in names if n in self._ids}
        inside = array("b", bytes(len(self.start)))
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            covered = p != BENCH and inside[p]
            if self.name_id[i] in ids:
                if not covered:
                    total += self.end[i] - self.start[i]
                inside[i] = 1
            elif covered:
                inside[i] = 1
        return total

    def _count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else sum(1 for x in self.name_id if x == nid)

    def metrics(self, walls: list[float], untraced: list[float]) -> dict:
        """Per-layer metrics per traced round; `untraced` are the times of
        the rounds run without wrappers, for the tracing overhead."""
        rounds = len(walls)
        by_layer, top = self._self_times()
        values = {f"{layer}.self_s": by_layer[i] / rounds for i, layer in enumerate(LAYERS)}
        values["trace.unattributed_s"] = (self.item_time - top) / rounds
        for metric, names in TIMED.items():
            values[metric] = self._outermost(names) / rounds
        for metric, name in COUNTED.items():
            values[metric] = self._count(name) / rounds
        for metric in {counter for sizes in SIZES.values() for counter, _ in sizes}:
            values[metric] = self.counters.get(metric, 0) / rounds
        for theory, (hits, misses) in self.lookups.items():
            values[f"{theory}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        maps = self.items / rounds
        values["grids.validations_per_map"] = values["grids.validations"] / maps
        values["trace.wall_s"] = self.item_time / rounds
        values["trace.untraced_wall_s"] = sum(untraced) / len(untraced)
        values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
        values["trace.spans"] = len(self.start) / rounds
        return {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}

    def write(self, path: str) -> None:
        """Spans, gzipped: a JSON list of span names, then one line per span
        with its name index, start, end (perf_counter seconds) and parent
        index (-1 for a call made by the benchmark)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(self.names) + "\n")
            rows = zip(self.name_id, self.start, self.end, self.parent)
            fh.writelines(f"{n} {s!r} {e!r} {p}\n" for n, s, e, p in rows)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio") or metric.endswith("overhead"):
        return "ratio"
    return "count"

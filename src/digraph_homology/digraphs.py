"""Finite digraph data model, validation, and constructions.

Digraphs are loop-free: the arrow set lives in V x V minus the diagonal,
with no duplicate arrows.  Vertex labels are opaque hashables (strings,
ints, or tuples); products build tuple labels, cones and suspensions add
fresh apex labels.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterable, Optional, Sequence

Label = Hashable


class DigraphError(ValueError):
    pass


class LoopArrowError(DigraphError):
    pass


class DuplicateArrowError(DigraphError):
    pass


class UnknownVertexError(DigraphError):
    pass


class LabelCollisionError(DigraphError):
    pass


class NotASubdigraphError(DigraphError):
    pass


@dataclass(frozen=True)
class Digraph:
    """Finite digraph with ordered vertex and arrow lists.

    The input order of `vertices` is the canonical generator order: all
    downstream bases and matrices are indexed by it, so results are
    reproducible across runs.  An optional basepoint may be carried along.
    """

    vertices: tuple
    arrows: tuple
    base: Optional[Label] = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        index = {}
        for v in self.vertices:
            if v in index:
                raise DigraphError(f"duplicate vertex {v!r}")
            index[v] = len(index)
        seen = set()
        for arrow in self.arrows:
            src, dst = arrow
            if src == dst:
                raise LoopArrowError(f"loop arrow at {src!r}")
            if src not in index:
                raise UnknownVertexError(f"arrow source {src!r} is not a vertex")
            if dst not in index:
                raise UnknownVertexError(f"arrow target {dst!r} is not a vertex")
            if arrow in seen:
                raise DuplicateArrowError(f"duplicate arrow {src!r} -> {dst!r}")
            seen.add(arrow)
        if self.base is not None and self.base not in index:
            raise UnknownVertexError(f"basepoint {self.base!r} is not a vertex")
        self._cache["index"] = index
        self._cache["arrow_set"] = seen

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def index(self, v: Label) -> int:
        try:
            return self._cache["index"][v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: Label) -> bool:
        return v in self._cache["index"]

    def has_arrow(self, src: Label, dst: Label) -> bool:
        return (src, dst) in self._cache["arrow_set"]

    def has_vertices(self, labels: Iterable[Label]) -> bool:
        """True iff every label is a vertex."""
        return all(map(self._cache["index"].__contains__, labels))

    def has_arrows_or_equal(self, pairs: Iterable[tuple]) -> bool:
        """True iff every pair (a, b) of vertices is an arrow or has a == b,
        as the image of an arrow under a digraph map must."""
        return all(a == b for a, b in set(pairs).difference(self._cache["arrow_set"]))

    def out_neighbors(self, v: Label) -> tuple:
        return (self._cache.get("out") or self._neighbor_table("out", 0))[v]

    def in_neighbors(self, v: Label) -> tuple:
        return (self._cache.get("in") or self._neighbor_table("in", 1))[v]

    def _neighbor_table(self, key: str, end: int) -> dict:
        """{vertex: the other ends, in vertex order, of the arrows that have
        it at `end` (0 for tail, 1 for head)}, cached under `key`."""
        table = {w: [] for w in self.vertices}
        for arrow in self.arrows:
            table[arrow[end]].append(arrow[1 - end])
        order = self._cache["index"].__getitem__
        self._cache[key] = table = {w: tuple(sorted(ns, key=order)) for w, ns in table.items()}
        return table

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.arrows == other.arrows
            and self.base == other.base
        )

    def __hash__(self):
        h = self._cache.get("hash")
        if h is None:
            h = hash((self.vertices, self.arrows, self.base))
            self._cache["hash"] = h
        return h

    def __repr__(self):
        return f"Digraph({self.n_vertices} vertices, {self.n_arrows} arrows)"


def build_digraph(
    vertices: Iterable[Label], arrows: Iterable[Sequence[Label]], base: Optional[Label] = None
) -> Digraph:
    """Validated digraph with canonical (input-order) generator ordering."""
    return Digraph(tuple(vertices), tuple((a[0], a[1]) for a in arrows), base)


def cycle_digraph(n: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise DigraphError("cycle needs at least 2 vertices")
    return build_digraph(range(n), [(i, (i + 1) % n) for i in range(n)])


@dataclass(frozen=True)
class DigraphMap:
    """Vertex assignment between digraphs; validity is the arrow condition."""

    source: Digraph
    target: Digraph
    assignment: tuple  # pairs (source vertex, target vertex) in source vertex order

    @staticmethod
    def from_dict(source: Digraph, target: Digraph, mapping: dict) -> "DigraphMap":
        missing = [v for v in source.vertices if v not in mapping]
        if missing:
            raise UnknownVertexError(f"assignment missing vertices {missing!r}")
        return DigraphMap(source, target, tuple((v, mapping[v]) for v in source.vertices))

    def __call__(self, v: Label) -> Label:
        table = self.__dict__.get("_table")
        if table is None:
            table = dict(self.assignment)
            self.__dict__["_table"] = table
        return table[v]

    def compose(self, other: "DigraphMap") -> "DigraphMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise DigraphError("composition mismatch")
        return DigraphMap.from_dict(
            other.source, self.target, {v: self(other(v)) for v in other.source.vertices}
        )


def identity_map(g: Digraph) -> DigraphMap:
    return DigraphMap.from_dict(g, g, {v: v for v in g.vertices})


def constant_map(source: Digraph, target: Digraph, value: Label) -> DigraphMap:
    if not target.has_vertex(value):
        raise UnknownVertexError(f"constant value {value!r} is not a target vertex")
    return DigraphMap.from_dict(source, target, {v: value for v in source.vertices})


def inclusion_map(sub: Digraph, g: Digraph) -> DigraphMap:
    require_subdigraph(sub, g)
    return DigraphMap.from_dict(sub, g, {v: v for v in sub.vertices})


def check_digraph_map(f: DigraphMap) -> bool:
    """True iff every source arrow maps to a target arrow or collapses."""
    for v in f.source.vertices:
        if not f.target.has_vertex(f(v)):
            raise UnknownVertexError(f"image {f(v)!r} is not a target vertex")
    for src, dst in f.source.arrows:
        a, b = f(src), f(dst)
        if a != b and not f.target.has_arrow(a, b):
            return False
    return True


def is_subdigraph(sub: Digraph, g: Digraph) -> bool:
    return all(g.has_vertex(v) for v in sub.vertices) and all(
        g.has_arrow(*a) for a in sub.arrows
    )


def require_subdigraph(sub: Digraph, g: Digraph) -> None:
    if not is_subdigraph(sub, g):
        raise NotASubdigraphError("not a subdigraph")


def box_product(g: Digraph, h: Digraph) -> Digraph:
    """Product digraph on pair labels; arrows move in exactly one factor."""
    vertices = [(u, v) for u in g.vertices for v in h.vertices]
    arrows = []
    for u in g.vertices:
        for v in h.vertices:
            for w in h.out_neighbors(v):
                arrows.append(((u, v), (u, w)))
    for src, dst in g.arrows:
        for v in h.vertices:
            arrows.append(((src, v), (dst, v)))
    base = None
    if g.base is not None and h.base is not None:
        base = (g.base, h.base)
    return build_digraph(vertices, arrows, base)


def cone(x: Digraph, apex: Label = "+a") -> Digraph:
    """Digraph plus one apex receiving an arrow from every old vertex."""
    if x.has_vertex(apex):
        raise LabelCollisionError(f"apex label {apex!r} already present")
    vertices = x.vertices + (apex,)
    arrows = x.arrows + tuple((v, apex) for v in x.vertices)
    return build_digraph(vertices, arrows, x.base)


def suspension(x: Digraph, apex_a: Label = "+a", apex_b: Label = "+b") -> Digraph:
    """Digraph plus two apexes, each receiving an arrow from every old vertex.

    Equals the union of cone(x, apex_a) and cone(x, apex_b) glued along x.
    """
    if apex_a == apex_b:
        raise LabelCollisionError("apex labels must differ")
    for apex in (apex_a, apex_b):
        if x.has_vertex(apex):
            raise LabelCollisionError(f"apex label {apex!r} already present")
    vertices = x.vertices + (apex_a, apex_b)
    arrows = (
        x.arrows
        + tuple((v, apex_a) for v in x.vertices)
        + tuple((v, apex_b) for v in x.vertices)
    )
    return build_digraph(vertices, arrows, x.base)


# --- line digraphs and grids ----------------------------------------------


@dataclass(frozen=True)
class LineSpec:
    """Line digraph of length m with an orientation word over {F, B}.

    F at position i means i -> i+1, B means i+1 -> i.  The standard
    pattern alternates starting forward: F exactly at even positions.
    """

    length: int
    pattern: str

    def __post_init__(self):
        if self.length < 0:
            raise DigraphError("negative length")
        if len(self.pattern) != self.length:
            raise DigraphError("pattern length must equal line length")
        if any(ch not in "FB" for ch in self.pattern):
            raise DigraphError("pattern must be a word over {F, B}")

    @property
    def is_standard(self) -> bool:
        return all(
            (ch == "F") == (i % 2 == 0) for i, ch in enumerate(self.pattern)
        )

    def arrow(self, i: int) -> tuple[int, int]:
        """The arrow between positions i and i+1, as (src, dst)."""
        if not 0 <= i < self.length:
            raise DigraphError("position out of range")
        return (i, i + 1) if self.pattern[i] == "F" else (i + 1, i)

    def forward_at(self, i: int) -> bool:
        return self.pattern[i] == "F"


@lru_cache(maxsize=256)
def standard_line(m: int) -> LineSpec:
    """The line of length m oriented F, B, F, ...; one shared instance per m."""
    return LineSpec(m, "".join("F" if i % 2 == 0 else "B" for i in range(m)))


def make_line(spec: LineSpec) -> Digraph:
    """Line digraph on integer vertices 0..m with the given orientation word."""
    return build_digraph(range(spec.length + 1), [spec.arrow(i) for i in range(spec.length)])


def make_grid(specs: Sequence[LineSpec]) -> Digraph:
    """Box of line digraphs with flat tuple labels.

    Isomorphic to the iterated box product of the lines; labels are
    flattened to plain index tuples (i1, ..., in).
    """
    specs = list(specs)
    if not specs:
        return build_digraph([()], [])
    g = make_line(specs[0])
    g = build_digraph([(v,) for v in g.vertices], [((a,), (b,)) for a, b in g.arrows])
    for spec in specs[1:]:
        line = make_line(spec)
        prod = box_product(g, line)
        flat = {v: v[0] + (v[1],) for v in prod.vertices}
        g = build_digraph(
            [flat[v] for v in prod.vertices],
            [(flat[a], flat[b]) for a, b in prod.arrows],
        )
    return g


# --- JSON ------------------------------------------------------------------


def label_str(label: Label) -> str:
    """Canonical string rendering; tuples render as "(u,v)" recursively."""
    if isinstance(label, tuple):
        return "(" + ",".join(label_str(x) for x in label) + ")"
    return str(label)


def digraph_to_json(g: Digraph) -> dict:
    out = {
        "vertices": [label_str(v) for v in g.vertices],
        "arrows": [[label_str(a), label_str(b)] for a, b in g.arrows],
    }
    if g.base is not None:
        out["base"] = label_str(g.base)
    return out


def digraph_from_json(data) -> Digraph:
    """The digraph of {"vertices": [...], "arrows": [[a, b], ...]} with an
    optional "base", labels read as strings; DigraphError on any other shape."""
    if not isinstance(data, dict) or "vertices" not in data or "arrows" not in data:
        raise DigraphError("digraph JSON needs 'vertices' and 'arrows'")
    vertices, arrows, base = data["vertices"], data["arrows"], data.get("base")
    if not isinstance(vertices, list):
        raise DigraphError("'vertices' must be a list")
    if not isinstance(arrows, list) or not all(isinstance(a, list) and len(a) == 2 for a in arrows):
        raise DigraphError("'arrows' must be a list of [source, target] pairs")
    return build_digraph(
        [str(v) for v in vertices],
        [(str(a), str(b)) for a, b in arrows],
        None if base is None else str(base),
    )


def relabel_to_strings(g: Digraph) -> Digraph:
    """The digraph with every label replaced by its canonical string."""
    return build_digraph(
        [label_str(v) for v in g.vertices],
        [(label_str(a), label_str(b)) for a, b in g.arrows],
        None if g.base is None else label_str(g.base),
    )

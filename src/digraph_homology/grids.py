"""Grid digraph maps and their homotopy machinery.

A grid map sends a box of line digraphs into a target digraph.  Three
boundary modes are supported: absolute (no condition), pair (the grid
boundary maps to the basepoint), and triple (the grid boundary maps into
a subdigraph, and the far face of axis 1 together with the boundary in
the remaining axes maps to the basepoint).

On top of the data model: extension to larger grids, subdivision along
shrinking maps, concatenation products, axis reversal, one-step direct
homotopy, homotopy-certificate verification, the cell decomposition into
signed singular cubes with its induced homology classes, and the
degree-1 edge-chain formula.

Grids have one layout, the flat row-major `values`.  Every grid walk reads
it at flat positions: from per-axis position tables (`_positions`) and,
per grid shape and orientation, from cached tables of its arrows,
boundary and collapsed part (`_grid_tables`) and of its cells' corners
(`_cell_table`); only a message turns a position into an index tuple.
A Hurewicz class gathers the cells' corners in one pass (`_cells`) and
adds up the coordinates of their cubes from the cube table of the
target's complex, in which each singular cube's coordinates are worked
out once per complex (`DigraphComplex.cube_tables`).

Validation contract: every map is checked once, when it is made.
`GridMap.__post_init__` runs the one validity check, `_violation`, and
records its result (the first violated condition as a message, or None)
on the frozen map; an invalid map is still made, never refused there.
`grid_map_violation`, `validate_grid_map` and `require_valid` only read
that result, so no entry point checks a map again.  The check tests each
condition in bulk over the flat position tables and walks them only when
a condition fails, to name the first violation in row-major order (the
messages are those of a walk).  A subdivision of a valid map is valid by
construction (shrinking maps are digraph maps that keep boundaries and
far faces), so `_derived` records None for it without a check; a
subdivision of an invalid map is checked like any other map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from math import prod
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .chains import HomologyClass
from .cubes import CubicalChain, SingularCube, build_cubical_complex, build_cubical_pair
from .digraphs import (
    Digraph,
    LineSpec,
    digraph_from_json,
    digraph_to_json,
    label_str,
    require_subdigraph,
    standard_line,
)
from .paths import PathChain, build_omega_complex, build_omega_pair, is_regular


class GridError(ValueError):
    pass


class ShapeMismatchError(GridError):
    pass


class NotMonotoneShapeError(GridError):
    pass


class ModeMismatchError(GridError):
    pass


class CoordinateOutOfRangeError(GridError):
    pass


class OddLengthAxisError(GridError):
    pass


class WrongDimensionError(GridError):
    pass


class InvalidGridMapError(GridError):
    pass


MODES = ("absolute", "pair", "triple")


@dataclass(frozen=True)
class GridMap:
    """Values of a digraph map on a box of line digraphs, row-major.

    `axes[k]` describes the k-th line digraph; `values` is the flat
    row-major array over the (m_1+1) x ... x (m_n+1) index box.  The shape
    and the row-major strides are computed once, at construction, and so
    is the validity check, whose result `grid_map_violation` reads.
    """

    axes: tuple[LineSpec, ...]
    values: tuple
    target: Digraph
    mode: str = "absolute"
    base: object = None
    sub: Optional[Digraph] = None

    def __post_init__(self):
        self._lay_out()
        object.__setattr__(self, "_violation", _violation(self))

    def _lay_out(self):
        if self.mode not in MODES:
            raise ModeMismatchError(f"unknown mode {self.mode!r}")
        shape = tuple(ax.length + 1 for ax in self.axes)
        if len(self.values) != prod(shape):
            raise ShapeMismatchError(
                f"value array has {len(self.values)} entries; expected {prod(shape)}"
            )
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_strides", _strides(shape))

    @property
    def dims(self) -> int:
        return len(self.axes)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(ax.length for ax in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def is_standard(self) -> bool:
        return all(
            ax.is_standard and ax.length >= 2 and ax.length % 2 == 0 for ax in self.axes
        )

    def flat_index(self, idx: Sequence[int]) -> int:
        if len(idx) != self.dims:
            raise CoordinateOutOfRangeError("index arity mismatch")
        flat = 0
        for i, s, stride in zip(idx, self._shape, self._strides):
            if not 0 <= i < s:
                raise CoordinateOutOfRangeError(f"index {tuple(idx)} outside grid")
            flat += i * stride
        return flat

    def value(self, idx: Sequence[int]):
        return self.values[self.flat_index(idx)]

    def with_values(self, values) -> "GridMap":
        return GridMap(self.axes, tuple(values), self.target, self.mode, self.base, self.sub)

    def __eq__(self, other):
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.axes == other.axes
            and self.values == other.values
            and self.target == other.target
            and self.mode == other.mode
            and self.base == other.base
            and self.sub == other.sub
        )

    def __hash__(self):
        return hash((self.axes, self.values, self.target, self.mode, self.base))

    def __repr__(self):
        return f"GridMap(shape={self.shape}, mode={self.mode!r})"


def _strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides of a grid of this shape."""
    return tuple(prod(shape[k + 1 :]) for k in range(len(shape)))


def _derived(f: GridMap, axes: tuple[LineSpec, ...], values: tuple) -> GridMap:
    """The map on `axes` with `values` and f's target, mode, basepoint and
    subdigraph, made by a construction that keeps validity (a subdivision,
    or a move checked where it changes f): it inherits f's check result
    None without a check.  Made from an invalid f, it is checked."""
    if f._violation is not None:
        return GridMap(axes, values, f.target, f.mode, f.base, f.sub)
    g = object.__new__(GridMap)
    g.__dict__.update(
        axes=axes, values=values, target=f.target, mode=f.mode, base=f.base, sub=f.sub
    )
    g._lay_out()
    g.__dict__["_violation"] = None
    return g


def _first_bad_arrow(f: GridMap, is_arrow, tails, heads) -> tuple[int, str]:
    """The axis (from 0) and the place, "at {index} maps to {source!r} ->
    {target!r}", of the first arrow in the tables `tails`, `heads` whose
    image is neither collapsed nor an arrow (`is_arrow`); there must be one."""
    values = f.values
    for p, q in zip(tails, heads):
        src, dst = values[p], values[q]
        if src != dst and not is_arrow(src, dst):
            break
    where = f"at {_index_of(f, min(p, q))} maps to {src!r} -> {dst!r}"
    # an axis of length 0 repeats the stride of the axis before it
    return f._strides.index(abs(q - p)), where


def _index_of(f: GridMap, p: int) -> tuple[int, ...]:
    """The index tuple of the flat position p of f's grid."""
    return tuple(p // s % m for s, m in zip(f._strides, f._shape))


class _GridTables(NamedTuple):
    """Flat position tables of one grid shape and orientation; see `_grid_tables`."""

    tails: tuple[int, ...]
    heads: tuple[int, ...]
    boundary: frozenset[int]
    collapsed: tuple[int, ...]
    rim_tails: tuple[int, ...]
    rim_heads: tuple[int, ...]


@lru_cache(maxsize=256)
def _grid_tables(axes: tuple[LineSpec, ...]) -> _GridTables:
    """The flat positions, in the row-major order of grids on these axes,
    of: the source and target of every grid arrow (`tails`, `heads`); the
    collapsed part of triple mode (empty without axes); and the source and
    target of every arrow inside the boundary (`rim_tails`, `rim_heads`).
    Arrows are listed by their low point, then by axis.  The outer boundary
    is the set of its flat positions; it contains the collapsed part.

    Each table is composed from per-axis lists by `_positions`: slot
    n * p + k of the `*_at` lists holds the axis-(k + 1) arrow at point p,
    and `rims_at` there counts the other axes on which p is extreme, which
    is negative where that arrow leaves the grid."""
    n = len(axes)
    lengths = tuple(ax.length for ax in axes)
    strides = _strides([m + 1 for m in lengths])
    ones = [1] * n
    extreme = [[int(i == 0 or i == m) for i in range(m + 1)] for m in lengths]
    size = _size_of(lengths)
    tails_at, heads_at, rims_at = [0] * (n * size), [0] * (n * size), [0] * (n * size)
    for k, ax in enumerate(axes):
        forward = [ax.forward_at(i) for i in range(ax.length)]
        coordinates = [range(m + 1) for m in lengths]
        coordinates[k] = [i if fw else i + 1 for i, fw in enumerate(forward)] + [0]
        tails_at[k::n] = _positions(coordinates, strides)
        coordinates[k] = [i + 1 if fw else i for i, fw in enumerate(forward)] + [0]
        heads_at[k::n] = _positions(coordinates, strides)
        others = extreme.copy()
        others[k] = [0] * ax.length + [-n]
        rims_at[k::n] = _positions(others, ones)
    arrows = [r >= 0 for r in rims_at]
    rim = [r > 0 for r in rims_at]
    collapsed = ()
    if axes:
        far = [[int(i == lengths[0]) for i in range(lengths[0] + 1)]] + extreme[1:]
        collapsed = tuple(p for p, c in enumerate(_positions(far, ones)) if c)
    return _GridTables(
        tuple(compress(tails_at, arrows)),
        tuple(compress(heads_at, arrows)),
        frozenset(p for p, c in enumerate(_positions(extreme, ones)) if c),
        collapsed,
        tuple(compress(tails_at, rim)),
        tuple(compress(heads_at, rim)),
    )


def grid_map_violation(f: GridMap) -> Optional[str]:
    """First violated grid-map condition as a message, else None: the
    result of the check made when f was made."""
    return f._violation


def _violation(f: GridMap) -> Optional[str]:
    """The validity check, run once per map by `GridMap.__post_init__`.

    Each condition is tested in bulk over `_grid_tables`; only a failing
    one is walked in row-major order to its first violation."""
    g = f.target
    values = f.values
    at = values.__getitem__
    tables = _grid_tables(f.axes)
    if not g.has_vertices(values):
        for v in values:
            if not g.has_vertex(v):
                return f"value {v!r} is not a vertex of the target"
    if not g.has_arrows_or_equal(zip(map(at, tables.tails), map(at, tables.heads))):
        k, where = _first_bad_arrow(f, g.has_arrow, tables.tails, tables.heads)
        return f"axis {k + 1} arrow {where}, which is not an arrow"
    if f.mode == "absolute":
        return None
    if f.base is None:
        return "pair/triple mode requires a basepoint"
    if not g.has_vertex(f.base):
        return f"basepoint {f.base!r} is not a vertex of the target"
    if f.mode == "pair":
        if not {f.base}.issuperset(map(at, tables.boundary)):
            p = next(p for p in sorted(tables.boundary) if values[p] != f.base)
            return f"boundary vertex {_index_of(f, p)} maps to {values[p]!r}, not the basepoint"
        return None
    # triple mode
    if f.sub is None:
        return "triple mode requires a subdigraph"
    try:
        require_subdigraph(f.sub, g)
    except Exception:
        return "the constraint subdigraph is not a subdigraph of the target"
    if not f.sub.has_vertex(f.base):
        return "basepoint must lie in the constraint subdigraph"
    if not (
        {f.base}.issuperset(map(at, tables.collapsed))
        and f.sub.has_vertices(map(at, tables.boundary))
    ):
        # the collapsed part lies in the boundary, so one walk meets both
        collapsed = set(tables.collapsed)
        for p in sorted(tables.boundary):
            v = values[p]
            if v != f.base and p in collapsed:
                idx = _index_of(f, p)
                return f"vertex {idx} on the collapsed part maps to {v!r}, not the basepoint"
            if not f.sub.has_vertex(v):
                return f"boundary vertex {_index_of(f, p)} maps outside the constraint subdigraph"
    # boundary arrows must map into the subdigraph (or collapse)
    if not f.sub.has_arrows_or_equal(zip(map(at, tables.rim_tails), map(at, tables.rim_heads))):
        _, where = _first_bad_arrow(f, f.sub.has_arrow, tables.rim_tails, tables.rim_heads)
        return f"boundary arrow {where}, which is not an arrow of the constraint subdigraph"
    return None


def validate_grid_map(f: GridMap) -> bool:
    return grid_map_violation(f) is None


def require_valid(f: GridMap) -> None:
    msg = grid_map_violation(f)
    if msg is not None:
        raise InvalidGridMapError(msg)


def constant_grid_map(
    target: Digraph,
    value,
    lengths: Sequence[int],
    mode: str = "pair",
    sub: Optional[Digraph] = None,
) -> GridMap:
    axes = tuple(standard_line(m) for m in lengths)
    base = value if mode in ("pair", "triple") else None
    return GridMap(axes, (value,) * _size_of(lengths), target, mode, base, sub)


def _size_of(lengths: Sequence[int]) -> int:
    return prod(m + 1 for m in lengths)


# --- extension, subdivision, products ---------------------------------------


def extend(f: GridMap, lengths: Sequence[int]) -> GridMap:
    """Extend to a larger standard grid: old values on the old block, the
    old far-corner value everywhere else."""
    lengths = tuple(lengths)
    if len(lengths) != f.dims:
        raise NotMonotoneShapeError("dimension mismatch")
    if any(s < m for s, m in zip(lengths, f.lengths)):
        raise NotMonotoneShapeError("extension must not shrink any axis")
    if any(s % 2 for s in lengths):
        raise NotMonotoneShapeError("extension lengths must be even")
    if not f.is_standard:
        raise NotMonotoneShapeError("extension requires standard axes")
    old = f.lengths
    size = f.size
    corner = f.values[-1]
    # a coordinate past the old block reads as `size`, which puts every
    # point outside the old block past the end of f.values
    positions = _positions(
        [[i if i <= m else size for i in range(s + 1)] for s, m in zip(lengths, old)],
        f._strides,
    )
    values = tuple(f.values[p] if p < size else corner for p in positions)
    result = GridMap(
        tuple(standard_line(s) for s in lengths), values, f.target, f.mode, f.base, f.sub
    )
    if lengths != old:
        require_valid(result)
    return result


def _positions(tables: Sequence[Sequence[int]], strides: Sequence[int]) -> list[int]:
    """Flat positions of the box of per-axis coordinate tables, in row-major
    order: the point (i_1, ..., i_n) goes to sum tables[k][i_k] * strides[k]."""
    out = [0]
    for table, stride in zip(tables, strides):
        offsets = [i * stride for i in table]
        out = [p + d for p in out for d in offsets]
    return out


@dataclass(frozen=True)
class ShrinkingMap:
    """Box of per-axis monotone endpoint-preserving surjections, each a
    digraph map between the line digraphs."""

    source_axes: tuple[LineSpec, ...]
    target_axes: tuple[LineSpec, ...]
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (len(self.source_axes) == len(self.target_axes) == len(self.tables)):
            raise ShapeMismatchError("axis count mismatch")
        for src, dst, tab in zip(self.source_axes, self.target_axes, self.tables):
            if len(tab) != src.length + 1:
                raise ShapeMismatchError("table length must match the source line")
            if tab[0] != 0 or tab[-1] != dst.length:
                raise NotMonotoneShapeError("shrinking maps preserve endpoints")
            for i in range(src.length):
                step = tab[i + 1] - tab[i]
                if step < 0:
                    raise NotMonotoneShapeError("shrinking maps preserve vertex order")
                if step > 1:
                    raise NotMonotoneShapeError("shrinking maps are surjective")
                if step == 1:
                    a, b = src.arrow(i)
                    c, d = dst.arrow(tab[i])
                    # source arrow between i, i+1 must map onto the target
                    # arrow between tab[i], tab[i]+1 respecting direction
                    if (tab[a], tab[b]) != (c, d):
                        raise NotMonotoneShapeError(
                            f"axis table is not a digraph map at position {i}"
                        )

    @property
    def dims(self) -> int:
        return len(self.tables)

    def apply(self, idx: Sequence[int]) -> tuple[int, ...]:
        return tuple(tab[i] for tab, i in zip(self.tables, idx))

    @staticmethod
    def identity(axes: Sequence[LineSpec]) -> "ShrinkingMap":
        axes = tuple(axes)
        return ShrinkingMap(
            axes, axes, tuple(tuple(range(ax.length + 1)) for ax in axes)
        )

    @staticmethod
    def from_tables(tables: Sequence[Sequence[int]]) -> "ShrinkingMap":
        """Standard-line shrinking map from raw per-axis tables."""
        tables = tuple(tuple(int(x) for x in tab) for tab in tables)
        for k, tab in enumerate(tables):
            if not tab:
                raise ShapeMismatchError(f"shrinking map table {k} is empty")
            if tab[-1] < 0:
                raise NotMonotoneShapeError(f"shrinking map table {k} ends below 0")
        source = tuple(standard_line(len(tab) - 1) for tab in tables)
        target = tuple(standard_line(tab[-1]) for tab in tables)
        return ShrinkingMap(source, target, tables)


def shrink_by_pair_insertions(
    lengths: Sequence[int], insertions: Sequence[Sequence[int]]
) -> ShrinkingMap:
    """Shrinking map onto standard lines of the given lengths built by
    duplicating values in pairs: each entry v in insertions[k] stalls the
    k-th axis twice at value v.  Pair insertions keep the step positions
    parity-aligned with the alternating arrow pattern, so the result is
    always a valid standard-line shrinking map."""
    tables = []
    for m, ins in zip(lengths, insertions):
        counts = [1] * (m + 1)
        for v in ins:
            if not 0 <= v <= m:
                raise NotMonotoneShapeError("insertion value out of range")
            counts[v] += 2
        tab = []
        for v in range(m + 1):
            tab.extend([v] * counts[v])
        tables.append(tab)
    return ShrinkingMap.from_tables(tables)


def subdivide(f: GridMap, h: ShrinkingMap) -> GridMap:
    """Precompose f with a shrinking map; the mode is preserved."""
    if h.dims != f.dims:
        raise ShapeMismatchError("dimension mismatch")
    if h.target_axes != f.axes:
        raise ShapeMismatchError("shrinking map target does not match the grid")
    values = f.values
    return _derived(f, h.source_axes, tuple([values[p] for p in _positions(h.tables, f._strides)]))


def concat_mu(j: int, f: GridMap, g: GridMap) -> GridMap:
    """Concatenation along the j-th coordinate (1-based): pad both factors
    to a common shape off-axis, then join the axis-j end face of f to the
    axis-j start face of g.  Axis-j grows to length m_j + l_j."""
    if f.mode != g.mode or f.target != g.target or f.base != g.base or f.sub != g.sub:
        raise ModeMismatchError("factors must share target, mode, basepoint and subdigraph")
    if f.dims != g.dims:
        raise ShapeMismatchError("dimension mismatch")
    _require_coordinate(j, f)
    if not (f.is_standard and g.is_standard):
        raise OddLengthAxisError("concatenation requires standard even-length grids")
    k = j - 1
    fl, gl = list(f.lengths), list(g.lengths)
    padded = [max(a, b) for a, b in zip(fl, gl)]
    f_shape = padded.copy()
    f_shape[k] = fl[k]
    g_shape = padded.copy()
    g_shape[k] = gl[k]
    fe = extend(f, f_shape)
    ge = extend(g, g_shape)
    out_lengths = padded.copy()
    out_lengths[k] = fl[k] + gl[k]
    # both factors have the same shape off axis k, so each row-major block
    # of axes k..n of the product is f's block followed by g's block
    # without its start face, which must equal f's end face
    face = fe._strides[k]
    f_block = (fl[k] + 1) * face
    g_block = (gl[k] + 1) * face
    values = []
    for r in range(fe.size // f_block):
        f_part = fe.values[r * f_block : (r + 1) * f_block]
        g_part = ge.values[r * g_block : (r + 1) * g_block]
        if f_part[-face:] != g_part[:face]:
            raise ModeMismatchError(
                "end face of the first factor does not match the start face "
                "of the second"
            )
        values.extend(f_part + g_part[face:])
    result = GridMap(
        tuple(standard_line(m) for m in out_lengths), tuple(values), f.target, f.mode, f.base, f.sub
    )
    require_valid(result)
    return result


def _require_coordinate(j: int, f: GridMap) -> None:
    """Triple mode fixes axis 1 (its far face collapses), so only axes
    2..n may be concatenated along or reversed there."""
    lo = 2 if f.mode == "triple" else 1
    if not lo <= j <= f.dims:
        raise CoordinateOutOfRangeError(
            f"coordinate {j} outside the legal range {lo}..{f.dims} for mode {f.mode!r}"
        )


def inverse_j(j: int, f: GridMap) -> GridMap:
    """Reverse the j-th coordinate (1-based); even length keeps the
    standard pattern."""
    _require_coordinate(j, f)
    k = j - 1
    m = f.axes[k].length
    if m % 2:
        raise OddLengthAxisError("axis reversal needs an even length")
    tables = [range(ax.length + 1) for ax in f.axes]
    tables[k] = range(m, -1, -1)
    result = f.with_values([f.values[p] for p in _positions(tables, f._strides)])
    require_valid(result)
    return result


# --- homotopy ----------------------------------------------------------------


def direct_homotopy(f: GridMap, g: GridMap) -> frozenset:
    """One-step homotopy relations between equal-shaped grid maps:
    subset of {"fwd", "bwd"}; "fwd" means every vertex satisfies
    f(v) -> g(v) or f(v) = g(v), with the constrained set fixed."""
    _require_comparable(f, g)
    require_valid(f)
    require_valid(g)
    return _relation(f, g)


def _require_comparable(f: GridMap, g: GridMap) -> None:
    if f.axes != g.axes:
        raise ShapeMismatchError("grids must have identical axes")
    if f.mode != g.mode or f.target != g.target or f.base != g.base or f.sub != g.sub:
        raise ModeMismatchError("grids must share target, mode, basepoint and subdigraph")


def _relation(f: GridMap, g: GridMap) -> frozenset:
    """`direct_homotopy` of two comparable maps, taken as valid."""
    a, b = f.values, g.values
    moved = [p for p in range(len(a)) if a[p] != b[p]]
    if f.mode != "absolute" and not _grid_tables(f.axes).boundary.isdisjoint(moved):
        # the constrained set must stay fixed through the homotopy
        return frozenset()
    has_arrow = f.target.has_arrow
    fwd = all(has_arrow(a[p], b[p]) for p in moved)
    bwd = all(has_arrow(b[p], a[p]) for p in moved)
    return frozenset(d for d, holds in (("fwd", fwd), ("bwd", bwd)) if holds)


def verify_one_step(
    f: GridMap,
    g: GridMap,
    shrink_f: ShrinkingMap,
    shrink_g: ShrinkingMap,
    direction: str = "fwd",
) -> bool:
    """True iff the given subdivisions of f and g are related by a direct
    homotopy in the claimed direction."""
    require_valid(f)
    require_valid(g)
    return _step_holds(f, g, shrink_f, shrink_g, direction)


def _step_holds(
    f: GridMap,
    g: GridMap,
    shrink_f: Optional[ShrinkingMap],
    shrink_g: Optional[ShrinkingMap],
    direction: str,
) -> bool:
    """`verify_one_step` of maps taken as valid; a shrinking map of None
    leaves its side as it is."""
    if direction not in ("fwd", "bwd"):
        raise ValueError("direction must be 'fwd' or 'bwd'")
    fbar = f if shrink_f is None else subdivide(f, shrink_f)
    gbar = g if shrink_g is None else subdivide(g, shrink_g)
    if fbar.axes != gbar.axes:
        raise ShapeMismatchError("subdivided grids do not share a shape")
    _require_comparable(fbar, gbar)
    return direction in _relation(fbar, gbar)


@dataclass(frozen=True)
class CertificateStep:
    """One verified step: subdivide the current map by `left` and the next
    map by `right`; they must be directly homotopic in `direction`.  The
    next map is `next_map`, or the certificate's final target if None."""

    left: Optional[ShrinkingMap]
    right: Optional[ShrinkingMap]
    direction: str = "fwd"
    next_map: Optional[GridMap] = None


def verify_homotopy_certificate(
    f: GridMap, g: GridMap, steps: Sequence[CertificateStep]
) -> bool:
    """Chain the one-step checks across the certificate from f to g.

    The recorded check results of f, g and every step's `next_map` are
    read up front; an invalid map makes the certificate fail."""
    if not steps:
        return f == g
    maps = [f, g] + [step.next_map for step in steps if step.next_map is not None]
    if any(grid_map_violation(h) is not None for h in maps):
        return False
    current = f
    for pos, step in enumerate(steps):
        last = pos == len(steps) - 1
        nxt = step.next_map if step.next_map is not None else (g if last else None)
        if nxt is None:
            return False  # malformed: intermediate step without its map
        try:
            if not _step_holds(current, nxt, step.left, step.right, step.direction):
                return False
        except GridError:
            return False
        current = nxt
    return current == g


# --- Hurewicz-style maps ------------------------------------------------------


def hurewicz_chain(f: GridMap) -> CubicalChain:
    """Cell-by-cell decomposition of a grid map into signed unit cubes.

    Each unit cell contributes the cube reading the grid values through
    the cell's orientation; the sign is (-1)^(number of axes whose cell
    arrow points backward).  Degenerate cubes are kept at chain level.
    """
    require_valid(f)
    terms: dict[tuple, int] = {}
    for cube, sign in _cells(f):
        terms[cube] = terms.get(cube, 0) + sign
    n, target = f.dims, f.target
    return CubicalChain(n, {SingularCube(n, v, target): c for v, c in terms.items()})


def _cells(f: GridMap):
    """The unit cells of a map taken as valid (see `hurewicz_chain`), as
    (cube values tuple, sign) pairs in the row-major order of the cells."""
    n = f.dims
    if n == 0:
        raise WrongDimensionError("cell decomposition needs dimension >= 1")
    gather, signs = _cell_table(f.axes)
    # zip(*[it] * 2**n) cuts the corner stream into one values tuple per cell
    return zip(zip(*[iter(gather(f.values))] * 2**n), signs)


@lru_cache(maxsize=256)
def _cell_table(axes: tuple[LineSpec, ...]) -> tuple[Callable[[tuple], tuple], tuple[int, ...]]:
    """The gather of the corners of the unit cells of grids on these axes
    from their values, and the cells' signs.  Cells come in row-major order
    of their low corners, each cell's 2^n corners in binary-counter order,
    each coordinate read forward or backward as the cell's arrow points;
    a cell's sign is (-1)^(number of backward axes)."""
    n = len(axes)
    strides = _strides([ax.length + 1 for ax in axes])
    # per forward pattern (bit n - 1 - k set iff the axis-(k + 1) arrow
    # points forward): corner offsets from the cell's low corner, and sign
    corners = []
    for pattern in range(2**n):
        forward = [(pattern >> (n - 1 - k)) & 1 for k in range(n)]
        offsets = [
            sum(s * (bit if fw else 1 - bit) for s, bit, fw in zip(strides, corner, forward))
            for corner in product((0, 1), repeat=n)
        ]
        corners.append((offsets, (-1) ** (n - sum(forward))))
    origins = _positions([range(ax.length) for ax in axes], strides)
    patterns = _positions(
        [[ax.forward_at(i) for i in range(ax.length)] for ax in axes],
        [1 << (n - 1 - k) for k in range(n)],
    )
    positions, signs = [], []
    for origin, pattern in zip(origins, patterns):
        offsets, sign = corners[pattern]
        positions.extend([origin + d for d in offsets])
        signs.append(sign)
    # a grid with cells has at least two corners: itemgetter returns a tuple
    gather = itemgetter(*positions) if positions else lambda values: ()
    return gather, tuple(signs)


def hurewicz_class(f: GridMap) -> HomologyClass:
    """Class of the cell decomposition in cubical homology: absolute for
    pair mode, relative to the constraint subdigraph for triple mode."""
    return _hurewicz(f, build_cubical_complex, build_cubical_pair)


def glmy_hurewicz(f: GridMap) -> HomologyClass:
    """Class of the cell decomposition pushed into path homology (the
    comparison map applied to the cubical class, computed at chain level)."""
    return _hurewicz(f, build_omega_complex, build_omega_pair)


def _hurewicz(f: GridMap, build_complex, build_pair) -> HomologyClass:
    """The class of f's cells in the theory of these builders, read through
    the cube table of the target's complex: each cell adds its cube's
    coordinates, computed by `cube_coords` when the table first meets it."""
    require_valid(f)
    n = f.dims
    cells = _cells(f)
    if f.mode == "triple":
        pair = build_pair(f.target, f.sub, n + 1)
        dc, read = pair.ambient, pair.pair.quotient_class
    else:
        dc = build_complex(f.target, n + 1)
        read = dc.complex.class_of
    table = dc.cube_tables[n]
    vec: dict[int, int] = {}
    for cube, sign in cells:
        coords = table.get(cube)
        if coords is None:
            coords = table[cube] = dc.cube_coords(n, cube)
        for r, c in coords.items():
            vec[r] = vec.get(r, 0) + sign * c
    return read(n, {r: c for r, c in vec.items() if c})


def loop_h_prime(f: GridMap) -> PathChain:
    """Degree-1 edge chain of a loop: forward arrows contribute their
    image edge positively, backward arrows negatively; stationary images
    vanish.  Zero for any loop on the length-2 line."""
    if f.dims != 1:
        raise WrongDimensionError("the edge-chain formula is for 1-dimensional grid maps")
    if f.mode != "pair":
        raise WrongDimensionError("the edge-chain formula applies to based loops")
    require_valid(f)
    spec = f.axes[0]
    values = f.values
    terms: dict[tuple, int] = {}
    for i in range(spec.length):
        a, b = values[i], values[i + 1]
        path, s = ((a, b), 1) if spec.forward_at(i) else ((b, a), -1)
        if is_regular(path):
            terms[path] = terms.get(path, 0) + s
    return PathChain(1, terms)


# --- JSON --------------------------------------------------------------------


def grid_map_to_json(f: GridMap) -> dict:
    axes = []
    for ax in f.axes:
        axes.append({"len": ax.length, "pattern": "standard" if ax.is_standard else ax.pattern})
    out = {
        "axes": axes,
        "values": [label_str(v) for v in f.values],
        "mode": f.mode,
        "target": digraph_to_json(f.target),
    }
    if f.base is not None:
        out["base"] = label_str(f.base)
    if f.sub is not None:
        out["A"] = digraph_to_json(f.sub)
    return out


def grid_map_from_json(data: dict, target: Optional[Digraph] = None) -> GridMap:
    if not isinstance(data, dict):
        raise GridError(f"a grid map must be a JSON object, got {type(data).__name__}")
    axes = []
    for ax in data["axes"]:
        m = ax["len"]
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise GridError(f"axis length must be a non-negative integer, got {m!r}")
        pattern = ax.get("pattern", "standard")
        if not isinstance(pattern, str):
            raise GridError(f"axis pattern must be a string, got {type(pattern).__name__}")
        axes.append(standard_line(m) if pattern == "standard" else LineSpec(m, pattern))
    values = data["values"]
    if not isinstance(values, list):
        raise GridError(f"grid-map values must be a list, got {type(values).__name__}")
    if target is None:
        raw = data.get("target")
        if not isinstance(raw, dict):
            raise GridError("grid-map JSON needs an inline target (or pass one explicitly)")
        target = digraph_from_json(raw)
    sub = None if data.get("A") is None else digraph_from_json(data["A"])
    base = data.get("base")
    return GridMap(
        tuple(axes),
        tuple(str(v) for v in values),
        target,
        data.get("mode", "absolute"),
        None if base is None else str(base),
        sub,
    )


def certificate_to_json(steps: Sequence[CertificateStep]) -> list:
    out = []
    for step in steps:
        item = {
            "left": [list(t) for t in step.left.tables] if step.left else None,
            "right": [list(t) for t in step.right.tables] if step.right else None,
            "direction": step.direction,
        }
        if step.next_map is not None:
            item["next"] = grid_map_to_json(step.next_map)
        out.append(item)
    return out


def _shrinking_from_json(tables) -> Optional[ShrinkingMap]:
    if not tables:
        return None
    if not isinstance(tables, list) or not all(
        isinstance(tab, list) and all(type(x) is int for x in tab) for tab in tables
    ):
        raise GridError("a shrinking map must be a list of integer tables")
    return ShrinkingMap.from_tables(tables)


def certificate_from_json(data: list, target: Optional[Digraph] = None) -> list[CertificateStep]:
    """The steps of a certificate: a list of objects, each with a direction
    of "fwd" (the default) or "bwd" and shrinking maps given as lists of
    integer tables.  Raises GridError otherwise."""
    if not isinstance(data, list):
        raise GridError(f"a certificate must be a JSON list, got {type(data).__name__}")
    steps = []
    for item in data:
        if not isinstance(item, dict):
            raise GridError(f"a certificate step must be an object, got {type(item).__name__}")
        direction = item.get("direction", "fwd")
        if direction not in ("fwd", "bwd"):
            raise GridError(f"a step's direction must be 'fwd' or 'bwd', got {direction!r}")
        left = _shrinking_from_json(item.get("left"))
        right = _shrinking_from_json(item.get("right"))
        nxt = grid_map_from_json(item["next"], target) if item.get("next") else None
        steps.append(CertificateStep(left, right, direction, nxt))
    return steps

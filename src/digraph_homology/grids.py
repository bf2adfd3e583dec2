"""Grid digraph maps and their homotopy machinery.

A grid map sends a box of line digraphs into a target digraph.  Three
boundary modes are supported: absolute (no condition), pair (the grid
boundary maps to the basepoint), and triple (the grid boundary maps into
a subdigraph, and the far face of axis 1 together with the boundary in
the remaining axes maps to the basepoint).

On top of the data model: extension to larger grids, subdivision along
shrinking maps, concatenation products, axis reversal, one-step direct
homotopy, homotopy-certificate verification, the cell decomposition into
signed singular cubes with its induced homology classes, the degree-1
edge-chain formula, and minimal-path collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import HomologyClass
from .cubes import (
    DEFAULT_DIM_BOUND,
    DEFAULT_VERTEX_BOUND,
    CubicalChain,
    SingularCube,
    build_cubical_complex,
    build_cubical_pair,
    iota,
)
from .digraphs import Digraph, LineSpec, require_subdigraph, standard_line
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
    row-major array over the (m_1+1) x ... x (m_n+1) index box.
    """

    axes: tuple[LineSpec, ...]
    values: tuple
    target: Digraph
    mode: str = "absolute"
    base: object = None
    sub: Optional[Digraph] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ModeMismatchError(f"unknown mode {self.mode!r}")
        if len(self.values) != self.size:
            raise ShapeMismatchError(
                f"value array has {len(self.values)} entries; expected {self.size}"
            )

    @property
    def dims(self) -> int:
        return len(self.axes)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(ax.length for ax in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.length + 1 for ax in self.axes)

    @property
    def size(self) -> int:
        total = 1
        for s in self.shape:
            total *= s
        return total

    @property
    def is_standard(self) -> bool:
        return all(
            ax.is_standard and ax.length >= 2 and ax.length % 2 == 0 for ax in self.axes
        )

    def flat_index(self, idx: Sequence[int]) -> int:
        if len(idx) != self.dims:
            raise CoordinateOutOfRangeError("index arity mismatch")
        flat = 0
        for i, s in zip(idx, self.shape):
            if not 0 <= i < s:
                raise CoordinateOutOfRangeError(f"index {tuple(idx)} outside grid")
            flat = flat * s + i
        return flat

    def value(self, idx: Sequence[int]):
        return self.values[self.flat_index(idx)]

    def indices(self):
        shape = self.shape
        n = self.dims
        idx = [0] * n
        total = self.size
        for _ in range(total):
            yield tuple(idx)
            for k in range(n - 1, -1, -1):
                idx[k] += 1
                if idx[k] < shape[k]:
                    break
                idx[k] = 0

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


def on_outer_boundary(idx: Sequence[int], lengths: Sequence[int]) -> bool:
    return any(i == 0 or i == m for i, m in zip(idx, lengths))


def on_collapsed_part(idx: Sequence[int], lengths: Sequence[int]) -> bool:
    """The far face of axis 1 union the boundary of the remaining axes."""
    if idx[0] == lengths[0]:
        return True
    return any(i == 0 or i == m for i, m in zip(idx[1:], lengths[1:]))


def grid_map_violation(f: GridMap) -> Optional[str]:
    """First violated grid-map condition as a message, else None."""
    g = f.target
    for v in f.values:
        if not g.has_vertex(v):
            return f"value {v!r} is not a vertex of the target"
    lengths = f.lengths
    for idx in f.indices():
        for k in range(f.dims):
            if idx[k] >= lengths[k]:
                continue
            nxt = list(idx)
            nxt[k] += 1
            if f.axes[k].forward_at(idx[k]):
                src, dst = f.value(idx), f.value(nxt)
            else:
                src, dst = f.value(nxt), f.value(idx)
            if src != dst and not g.has_arrow(src, dst):
                return (
                    f"axis {k + 1} arrow at {tuple(idx)} maps to "
                    f"{src!r} -> {dst!r}, which is not an arrow"
                )
    if f.mode == "absolute":
        return None
    if f.base is None:
        return "pair/triple mode requires a basepoint"
    if not g.has_vertex(f.base):
        return f"basepoint {f.base!r} is not a vertex of the target"
    if f.mode == "pair":
        for idx in f.indices():
            if on_outer_boundary(idx, lengths) and f.value(idx) != f.base:
                return f"boundary vertex {idx} maps to {f.value(idx)!r}, not the basepoint"
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
    for idx in f.indices():
        if on_collapsed_part(idx, lengths) and f.value(idx) != f.base:
            return f"vertex {idx} on the collapsed part maps to {f.value(idx)!r}, not the basepoint"
        if on_outer_boundary(idx, lengths) and not f.sub.has_vertex(f.value(idx)):
            return f"boundary vertex {idx} maps outside the constraint subdigraph"
    # boundary arrows must map into the subdigraph (or collapse)
    for idx in f.indices():
        if not on_outer_boundary(idx, lengths):
            continue
        for k in range(f.dims):
            if idx[k] >= lengths[k]:
                continue
            nxt = list(idx)
            nxt[k] += 1
            if not on_outer_boundary(nxt, lengths):
                continue
            # the arrow joins two boundary vertices; it lies in the grid
            # boundary iff some other coordinate is extreme for both
            if not any(
                j != k and (idx[j] == 0 or idx[j] == lengths[j]) for j in range(f.dims)
            ):
                continue
            if f.axes[k].forward_at(idx[k]):
                src, dst = f.value(idx), f.value(tuple(nxt))
            else:
                src, dst = f.value(tuple(nxt)), f.value(idx)
            if src != dst and not f.sub.has_arrow(src, dst):
                return (
                    f"boundary arrow at {tuple(idx)} maps to {src!r} -> {dst!r}, "
                    "which is not an arrow of the constraint subdigraph"
                )
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
    size = 1
    for m in lengths:
        size *= m + 1
    base = value if mode in ("pair", "triple") else None
    return GridMap(axes, (value,) * size, target, mode, base, sub)


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
    corner = f.value(f.lengths)
    axes = tuple(standard_line(s) for s in lengths)
    old = f.lengths
    values = []
    out = GridMap(axes, (corner,) * _size_of(lengths), f.target, f.mode, f.base, f.sub)
    for idx in out.indices():
        if all(i <= m for i, m in zip(idx, old)):
            values.append(f.value(idx))
        else:
            values.append(corner)
    result = out.with_values(values)
    if lengths != old:
        require_valid(result)
    return result


def _size_of(lengths: Sequence[int]) -> int:
    total = 1
    for m in lengths:
        total *= m + 1
    return total


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
    out = GridMap(
        h.source_axes,
        (f.values[0],) * _size_of(tuple(ax.length for ax in h.source_axes)),
        f.target,
        f.mode,
        f.base,
        f.sub,
    )
    return out.with_values([f.value(h.apply(idx)) for idx in out.indices()])


def concat_mu(j: int, f: GridMap, g: GridMap) -> GridMap:
    """Concatenation along the j-th coordinate (1-based): pad both factors
    to a common shape off-axis, then join the axis-j end face of f to the
    axis-j start face of g.  Axis-j grows to length m_j + l_j."""
    if f.mode != g.mode or f.target != g.target or f.base != g.base or f.sub != g.sub:
        raise ModeMismatchError("factors must share target, mode, basepoint and subdigraph")
    if f.dims != g.dims:
        raise ShapeMismatchError("dimension mismatch")
    n = f.dims
    lo = 2 if f.mode == "triple" else 1
    if not lo <= j <= n:
        raise CoordinateOutOfRangeError(
            f"coordinate {j} outside the legal range {lo}..{n} for mode {f.mode!r}"
        )
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
    seam = fl[k]
    out_lengths = padded.copy()
    out_lengths[k] = fl[k] + gl[k]
    axes = tuple(standard_line(m) for m in out_lengths)
    values = []
    out = GridMap(
        axes, (fe.values[0],) * _size_of(out_lengths), f.target, f.mode, f.base, f.sub
    )
    for idx in out.indices():
        if idx[k] <= seam:
            values.append(fe.value(idx))
        else:
            shifted = list(idx)
            shifted[k] -= seam
            values.append(ge.value(shifted))
    for idx in out.indices():
        if idx[k] == seam:
            shifted = list(idx)
            shifted[k] = 0
            if fe.value(idx) != ge.value(shifted):
                raise ModeMismatchError(
                    "end face of the first factor does not match the start face "
                    "of the second"
                )
    result = out.with_values(values)
    require_valid(result)
    return result


def inverse_j(j: int, f: GridMap) -> GridMap:
    """Reverse the j-th coordinate (1-based); even length keeps the
    standard pattern."""
    if not 1 <= j <= f.dims:
        raise CoordinateOutOfRangeError(f"coordinate {j} out of range")
    k = j - 1
    if f.axes[k].length % 2:
        raise OddLengthAxisError("axis reversal needs an even length")
    m = f.axes[k].length
    values = []
    for idx in f.indices():
        src = list(idx)
        src[k] = m - src[k]
        values.append(f.value(src))
    result = f.with_values(values)
    require_valid(result)
    return result


# --- homotopy ----------------------------------------------------------------


def direct_homotopy(f: GridMap, g: GridMap) -> frozenset:
    """One-step homotopy relations between equal-shaped grid maps:
    subset of {"fwd", "bwd"}; "fwd" means every vertex satisfies
    f(v) -> g(v) or f(v) = g(v), with the constrained set fixed."""
    if f.axes != g.axes:
        raise ShapeMismatchError("grids must have identical axes")
    if f.mode != g.mode or f.target != g.target or f.base != g.base or f.sub != g.sub:
        raise ModeMismatchError("grids must share target, mode, basepoint and subdigraph")
    require_valid(f)
    require_valid(g)
    lengths = f.lengths
    t = f.target
    fwd = True
    bwd = True
    for idx in f.indices():
        a, b = f.value(idx), g.value(idx)
        if a == b:
            continue
        if f.mode in ("pair", "triple") and on_outer_boundary(idx, lengths):
            # the constrained set must stay fixed through the homotopy
            return frozenset()
        if not t.has_arrow(a, b):
            fwd = False
        if not t.has_arrow(b, a):
            bwd = False
        if not (fwd or bwd):
            return frozenset()
    out = set()
    if fwd:
        out.add("fwd")
    if bwd:
        out.add("bwd")
    return frozenset(out)


def verify_one_step(
    f: GridMap,
    g: GridMap,
    shrink_f: ShrinkingMap,
    shrink_g: ShrinkingMap,
    direction: str = "fwd",
) -> bool:
    """True iff the given subdivisions of f and g are related by a direct
    homotopy in the claimed direction."""
    if direction not in ("fwd", "bwd"):
        raise ValueError("direction must be 'fwd' or 'bwd'")
    fbar = subdivide(f, shrink_f)
    gbar = subdivide(g, shrink_g)
    if fbar.axes != gbar.axes:
        raise ShapeMismatchError("subdivided grids do not share a shape")
    return direction in direct_homotopy(fbar, gbar)


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
    """Chain the one-step checks across the certificate from f to g."""
    if not steps:
        return f == g
    current = f
    for pos, step in enumerate(steps):
        last = pos == len(steps) - 1
        nxt = step.next_map if step.next_map is not None else (g if last else None)
        if nxt is None:
            return False  # malformed: intermediate step without its map
        left = step.left if step.left is not None else ShrinkingMap.identity(current.axes)
        right = step.right if step.right is not None else ShrinkingMap.identity(nxt.axes)
        try:
            if not verify_one_step(current, nxt, left, right, step.direction):
                return False
        except GridError:
            return False
        current = nxt
    return current == g


def find_certificate(
    f: GridMap, g: GridMap, max_factor: int = 2
) -> Optional[list[CertificateStep]]:
    """Bounded best-effort search for a single-step certificate relating f
    and g: try pairs of shrinking maps onto common shapes with subdivision
    factor at most max_factor per axis.  Returns None when nothing is
    found within the bound (which proves nothing)."""
    if f.dims != g.dims:
        return None

    def axis_tables(m_src: int, m_dst: int) -> list[tuple[int, ...]]:
        tables: list[tuple[int, ...]] = []

        def walk(tab):
            i = len(tab) - 1
            if i == m_src:
                if tab[-1] == m_dst:
                    tables.append(tuple(tab))
                return
            for step in (0, 1):
                val = tab[-1] + step
                if val > m_dst:
                    continue
                if m_dst - val > m_src - i - 1:
                    continue
                if step == 1:
                    src = standard_line(m_src)
                    dst = standard_line(m_dst)
                    if src.arrow(i) == (i, i + 1):
                        if dst.arrow(tab[-1]) != (tab[-1], tab[-1] + 1):
                            continue
                    else:
                        if dst.arrow(tab[-1]) != (tab[-1] + 1, tab[-1]):
                            continue
                tab.append(val)
                walk(tab)
                tab.pop()

        walk([0])
        return tables

    for factor in range(1, max_factor + 1):
        common = tuple(
            max(a, b) * factor for a, b in zip(f.lengths, g.lengths)
        )
        per_axis_f = [axis_tables(cm, m) for cm, m in zip(common, f.lengths)]
        per_axis_g = [axis_tables(cm, m) for cm, m in zip(common, g.lengths)]
        if any(not t for t in per_axis_f) or any(not t for t in per_axis_g):
            continue

        def combos(per_axis, limit=64):
            out = [[]]
            for tabs in per_axis:
                out = [c + [t] for c in out for t in tabs]
                if len(out) > limit:
                    out = out[:limit]
            return out

        for tf in combos(per_axis_f):
            hf = ShrinkingMap.from_tables(tf)
            fbar = subdivide(f, hf)
            for tg in combos(per_axis_g):
                hg = ShrinkingMap.from_tables(tg)
                gbar = subdivide(g, hg)
                rel = direct_homotopy(fbar, gbar)
                if "fwd" in rel:
                    return [CertificateStep(hf, hg, "fwd")]
                if "bwd" in rel:
                    return [CertificateStep(hf, hg, "bwd")]
    return None


# --- Hurewicz-style maps ------------------------------------------------------


def hurewicz_chain(f: GridMap) -> CubicalChain:
    """Cell-by-cell decomposition of a grid map into signed unit cubes.

    Each unit cell contributes the cube reading the grid values through
    the cell's orientation; the sign is (-1)^(number of axes whose cell
    arrow points backward).  Degenerate cubes are kept at chain level.
    """
    require_valid(f)
    n = f.dims
    if n == 0:
        raise WrongDimensionError("cell decomposition needs dimension >= 1")
    terms: dict[SingularCube, int] = {}
    lengths = f.lengths
    cells = [[i for i in range(m)] for m in lengths]

    def walk(prefix):
        if len(prefix) == n:
            _add_cell(f, prefix, terms)
            return
        for i in cells[len(prefix)]:
            walk(prefix + (i,))

    walk(())
    return CubicalChain(n, terms)


def _add_cell(f: GridMap, cell: tuple[int, ...], terms: dict) -> None:
    n = f.dims
    sign = 1
    forward = []
    for k, i in enumerate(cell):
        fw = f.axes[k].forward_at(i)
        forward.append(fw)
        if not fw:
            sign = -sign
    vals = []
    for c in range(2**n):
        idx = []
        for k in range(n):
            bit = (c >> (n - 1 - k)) & 1
            if forward[k]:
                idx.append(cell[k] + bit)
            else:
                idx.append(cell[k] + 1 - bit)
        vals.append(f.value(idx))
    cube = SingularCube(n, tuple(vals), f.target)
    terms[cube] = terms.get(cube, 0) + sign


def hurewicz_class(
    f: GridMap,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
) -> HomologyClass:
    """Class of the cell decomposition in cubical homology: absolute for
    pair mode, relative to the constraint subdigraph for triple mode."""
    n = f.dims
    ch = hurewicz_chain(f)
    if f.mode == "triple":
        pair = build_cubical_pair(f.target, f.sub, n + 1, dim_bound, vertex_bound)
        return pair.pair.quotient_class(n, pair.ambient.chain_coords(ch))
    cc = build_cubical_complex(f.target, n + 1, dim_bound, vertex_bound)
    return cc.class_of(ch)


def glmy_hurewicz(f: GridMap) -> HomologyClass:
    """Class of the cell decomposition pushed into path homology (the
    comparison map applied to the cubical class, computed at chain level)."""
    n = f.dims
    pc = iota(hurewicz_chain(f))
    if f.mode == "triple":
        pair = build_omega_pair(f.target, f.sub, n + 1)
        return pair.quotient_class(pc)
    oc = build_omega_complex(f.target, n + 1)
    return oc.class_of(pc)


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
    terms: dict[tuple, int] = {}
    for i in range(spec.length):
        if spec.forward_at(i):
            path = (f.value((i,)), f.value((i + 1,)))
            s = 1
        else:
            path = (f.value((i + 1,)), f.value((i,)))
            s = -1
        if is_regular(path):
            terms[path] = terms.get(path, 0) + s
    return PathChain(1, terms)


def minimal_path(f: GridMap) -> tuple:
    """Value sequence of a 1-dimensional grid map with stationary repeats
    collapsed; subdivision-equivalent loops share their minimal path."""
    if f.dims != 1:
        raise WrongDimensionError("minimal paths are for 1-dimensional grid maps")
    out = [f.values[0]]
    for v in f.values[1:]:
        if v != out[-1]:
            out.append(v)
    return tuple(out)


# --- JSON --------------------------------------------------------------------


def grid_map_to_json(f: GridMap) -> dict:
    from .digraphs import digraph_to_json, label_str

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
        out["A"] = {
            "vertices": [label_str(v) for v in f.sub.vertices],
            "arrows": [[label_str(a), label_str(b)] for a, b in f.sub.arrows],
        }
    return out


def grid_map_from_json(data: dict, target: Optional[Digraph] = None) -> GridMap:
    from .digraphs import build_digraph, digraph_from_json

    if not isinstance(data, dict):
        raise GridError(f"a grid map must be a JSON object, got {type(data).__name__}")
    axes = []
    for ax in data["axes"]:
        m = ax["len"]
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise GridError(f"axis length must be a non-negative integer, got {m!r}")
        pattern = ax.get("pattern", "standard")
        axes.append(standard_line(m) if pattern == "standard" else LineSpec(m, pattern))
    if target is None:
        raw = data.get("target")
        if not isinstance(raw, dict):
            raise GridError("grid-map JSON needs an inline target (or pass one explicitly)")
        target = digraph_from_json(raw)
    sub = None
    if data.get("A") is not None:
        sub = build_digraph(
            [str(v) for v in data["A"]["vertices"]],
            [(str(a), str(b)) for a, b in data["A"]["arrows"]],
        )
    base = data.get("base")
    return GridMap(
        tuple(axes),
        tuple(str(v) for v in data["values"]),
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


def certificate_from_json(data: list, target: Optional[Digraph] = None) -> list[CertificateStep]:
    steps = []
    for item in data:
        left = ShrinkingMap.from_tables(item["left"]) if item.get("left") else None
        right = ShrinkingMap.from_tables(item["right"]) if item.get("right") else None
        nxt = grid_map_from_json(item["next"], target) if item.get("next") else None
        steps.append(CertificateStep(left, right, item.get("direction", "fwd"), nxt))
    return steps

"""Independent reference implementations that the tests check the program against.

Dense integer lattices on the full Smith form with transforms (`Lattice`,
`kernel_lattice`, `quotient_group`, `smith_normal_form`, `integer_solve`),
random unimodular matrices, the chain map of a digraph map on path chains
(`pushforward`), the cubical connecting map read straight off the face maps
(`connecting_face_formula`), the validity test of a singular cube
(`is_valid`), the row-major index walk of a grid (`indices`), the
per-index grid predicates (`on_outer_boundary`, `on_collapsed_part`) and
direct-homotopy relation (`relation`), the per-point walk that builds a
grid's flat position tables (`grid_tables_per_point`), the random
grid-map generators that check every candidate in full
(`random_grid_map`, `random_direct_move`), and a bounded search for
one-step homotopy certificates (`find_certificate`).
None of these runs in the program.  The search subdivides and reads
validity through the program; the others share only the dense
`_snf_full` and the data types with it.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Optional, Sequence

from digraph_homology.chains import DigraphPair, GroupMap, hom_map
from digraph_homology.cubes import SingularCube, _tables, cubical_boundary
from digraph_homology.digraphs import Digraph, DigraphMap, LineSpec, check_digraph_map
from digraph_homology.grids import (
    CertificateStep,
    GridMap,
    ShrinkingMap,
    _GridTables,
    _grid_tables,
    _require_comparable,
    _strides,
    constant_grid_map,
    grid_map_violation,
    require_valid,
    subdivide,
)
from digraph_homology.intlinalg import (
    AbelianGroup,
    Echelon,
    IntMatrix,
    NotASublatticeError,
    SmithDecomposition,
    _snf_full,
)
from digraph_homology.paths import PathChain, is_regular


def smith_normal_form(mat: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U @ mat @ V == D, U and V unimodular,
    D diagonal with a divisibility chain d1 | d2 | ... on the diagonal.

    >>> u, d, v = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    >>> [d.data[0][0], d.data[1][1]]
    [1, 6]
    """
    s = _snf_full(mat)
    return s.U, s.D, s.V


def integer_solve(mat: IntMatrix, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution x of mat @ x == vec, or None if none exists."""
    s = _snf_full(mat)
    return _solve_from_snf(s, vec)


def _solve_from_snf(s: SmithDecomposition, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    r, c = s.D.shape
    if len(vec) != r:
        raise ValueError("vector length mismatch")
    w = s.U.apply(vec)
    rank = s.rank
    y = [0] * c
    for i in range(r):
        if i < rank:
            d = s.D.data[i][i]
            if w[i] % d:
                return None
            if i < c:
                y[i] = w[i] // d
        elif w[i]:
            return None
    return s.V.apply(y)


class Lattice:
    """Integer lattice given by an independent column basis inside Z^ambient.

    `basis` columns are required to be linearly independent.  Use
    `from_vectors` to build from a redundant spanning set.
    """

    def __init__(self, ambient: int, basis: IntMatrix, _checked: bool = False):
        if basis.rows != ambient:
            raise ValueError("basis rows must equal ambient dimension")
        self.ambient = ambient
        self.basis = basis
        self._snf: Optional[SmithDecomposition] = None
        if not _checked and basis.cols:
            if self._decomposition().rank != basis.cols:
                raise ValueError("basis columns are linearly dependent")

    @staticmethod
    def from_vectors(ambient: int, vectors: Iterable[Sequence[int]]) -> "Lattice":
        ech = Echelon()
        for vec in vectors:
            ech.add({i: x for i, x in enumerate(vec) if x})
        cols = [[v.get(i, 0) for i in range(ambient)] for v in ech.basis_vectors()]
        return Lattice(ambient, IntMatrix.from_cols(cols, rows=ambient), _checked=True)

    def _decomposition(self) -> SmithDecomposition:
        if self._snf is None:
            self._snf = _snf_full(self.basis)
        return self._snf

    @property
    def rank(self) -> int:
        return self.basis.cols

    def coordinates(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Coordinates of vec in the basis, or None if vec is not in the lattice."""
        if self.basis.cols == 0:
            return () if all(x == 0 for x in vec) else None
        return _solve_from_snf(self._decomposition(), vec)

    def contains(self, vec: Sequence[int]) -> bool:
        return self.coordinates(vec) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(other.basis.column(j)) for j in range(other.basis.cols))

    def same_lattice(self, other: "Lattice") -> bool:
        return self.contains_lattice(other) and other.contains_lattice(self)

    def is_saturated(self) -> bool:
        """True iff Z^ambient / lattice is torsion-free."""
        if self.basis.cols == 0:
            return True
        return all(d == 1 for d in self._decomposition().divisors)

    def saturation(self) -> "Lattice":
        """The smallest saturated lattice containing this one."""
        if self.is_saturated():
            return self
        s = self._decomposition()
        cols = [s.Uinv.column(i) for i in range(s.rank)]
        return Lattice(self.ambient, IntMatrix.from_cols(cols, rows=self.ambient), _checked=True)

    def __repr__(self):
        return f"Lattice(ambient={self.ambient}, rank={self.rank})"


def kernel_lattice(mat: IntMatrix) -> Lattice:
    """The saturated lattice {x in Z^cols : mat @ x == 0}.

    >>> kernel_lattice(IntMatrix([[2, -2]])).basis.columns()
    [(1, 1)]
    """
    s = _snf_full(mat)
    cols = [s.V.column(j) for j in range(s.rank, mat.cols)]
    return Lattice(mat.cols, IntMatrix.from_cols(cols, rows=mat.cols), _checked=True)


def quotient_group(outer: Lattice, inner: Lattice) -> AbelianGroup:
    """Presentation of outer/inner; raises NotASublatticeError if inner ⊄ outer.

    >>> K = Lattice(2, IntMatrix([[1, 0], [1, 3]]))
    >>> I = Lattice(2, IntMatrix([[3], [3]]))
    >>> print(quotient_group(K, I))
    Z ⊕ Z/3
    """
    if outer.ambient != inner.ambient:
        raise NotASublatticeError("ambient dimension mismatch")
    coords = []
    for j in range(inner.basis.cols):
        x = outer.coordinates(inner.basis.column(j))
        if x is None:
            raise NotASublatticeError("generator of inner lattice is not in outer lattice")
        coords.append(x)
    k = outer.rank
    rel = IntMatrix.from_cols(coords, rows=k)
    divisors = _snf_full(rel).divisors
    torsion = tuple(d for d in divisors if d > 1)
    return AbelianGroup(k - len(divisors), torsion)


def random_unimodular(rng, n: int, steps: int = 12) -> IntMatrix:
    """Random unimodular matrix built from elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntMatrix(m, cols=n)


class InvalidMappingError(ValueError):
    pass


def pushforward(f: DigraphMap, chain: PathChain) -> PathChain:
    """Chain map induced by a digraph map; non-regular images vanish."""
    if not check_digraph_map(f):
        raise InvalidMappingError("not a digraph map")
    terms: dict[tuple, int] = {}
    for path, coeff in chain.terms.items():
        image = tuple(f(v) for v in path)
        if is_regular(image):
            terms[image] = terms.get(image, 0) + coeff
    return PathChain(chain.degree, terms)


def connecting_face_formula(pair: DigraphPair, n: int) -> GroupMap:
    """The connecting map H^c_{n+1}(G, A) -> H^c_n(A) computed directly
    from the face maps: lift a relative cycle to its cube chain, apply the
    full alternating face sum, drop degenerate faces, and read the result
    in the subcomplex.  (The face sum must run over every axis of the
    lifted cubes; a shorter sum does not even land in the subcomplex.)
    """
    hd_quot = pair.pair.quotient.homology(n + 1)
    hd_sub = pair.pair.sub.homology(n)
    images = []
    for j in range(hd_quot.n_generators):
        amb_vec = pair.pair.quotient_section(n + 1, hd_quot.representative(j))
        chain = pair.ambient.coords_to_chain(n + 1, amb_vec)
        images.append(pair.sub.chain_vector(cubical_boundary(chain))[1])
    return hom_map(hd_quot, hd_sub, images)


def is_valid(cube: SingularCube) -> bool:
    """True iff every value is a vertex of the cube's target and every edge
    of the cube maps to a vertex or an arrow."""
    g = cube.target
    for v in cube.values:
        if not g.has_vertex(v):
            return False
    for low, high in _tables(cube.dim).axes:
        for a, b in zip(low(cube.values), high(cube.values)):
            if a != b and not g.has_arrow(a, b):
                return False
    return True


def indices(f: GridMap):
    """Index tuples of f's grid in row-major order, the order of `values`."""
    return product(*map(range, f.shape))


def on_outer_boundary(idx: Sequence[int], lengths: Sequence[int]) -> bool:
    return any(i == 0 or i == m for i, m in zip(idx, lengths))


def on_collapsed_part(idx: Sequence[int], lengths: Sequence[int]) -> bool:
    """The far face of axis 1 union the boundary of the remaining axes."""
    if idx[0] == lengths[0]:
        return True
    return any(i == 0 or i == m for i, m in zip(idx[1:], lengths[1:]))


def grid_tables_per_point(axes: tuple[LineSpec, ...]) -> _GridTables:
    """`grids._grid_tables` by a walk over every grid point and axis."""
    shape = tuple(ax.length + 1 for ax in axes)
    lengths = tuple(ax.length for ax in axes)
    strides = _strides(shape)
    tails, heads, rim_tails, rim_heads, boundary, collapsed = [], [], [], [], [], []
    for p, idx in enumerate(product(*map(range, shape))):
        for k, (ax, stride) in enumerate(zip(axes, strides)):
            if idx[k] == ax.length:
                continue
            src, dst = (p, p + stride) if ax.forward_at(idx[k]) else (p + stride, p)
            tails.append(src)
            heads.append(dst)
            # an arrow lies in the grid boundary iff some other coordinate is extreme
            if any(j != k and (i == 0 or i == m) for j, (i, m) in enumerate(zip(idx, lengths))):
                rim_tails.append(src)
                rim_heads.append(dst)
        if on_outer_boundary(idx, lengths):
            boundary.append(p)
        if idx and on_collapsed_part(idx, lengths):
            collapsed.append(p)
    return _GridTables(
        tuple(tails),
        tuple(heads),
        frozenset(boundary),
        *map(tuple, (collapsed, rim_tails, rim_heads)),
    )


def relation(f: GridMap, g: GridMap) -> frozenset:
    """`grids.direct_homotopy` of two comparable maps, walked index by index."""
    lengths = f.lengths
    t = f.target
    fwd = True
    bwd = True
    for idx, a, b in zip(indices(f), f.values, g.values):
        if a == b:
            continue
        if f.mode != "absolute" and on_outer_boundary(idx, lengths):
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


def random_grid_map(
    rng: random.Random,
    target: Digraph,
    base,
    lengths: tuple[int, ...],
    mode: str = "pair",
    sub: Optional[Digraph] = None,
    tries: int = 200,
) -> Optional[GridMap]:
    """`randomgen.random_grid_map` read off a constant template map."""
    template = constant_grid_map(target, base, lengths, mode, sub)
    points = list(indices(template))
    succ = {v: (v,) + target.out_neighbors(v) for v in target.vertices}

    for _ in range(tries):
        values: dict[tuple, object] = {}
        ok = True
        for idx in points:
            cands = None
            for k in range(len(lengths)):
                if idx[k] == 0:
                    continue
                prev = list(idx)
                prev[k] -= 1
                pv = values[tuple(prev)]
                if template.axes[k].forward_at(idx[k] - 1):
                    step = set(succ[pv])
                else:
                    step = {pv} | {w for w in target.vertices if target.has_arrow(w, pv)}
                cands = step if cands is None else cands & step
            if cands is None:
                cands = set(target.vertices)
            if mode in ("pair", "triple") and (
                (mode == "pair" and on_outer_boundary(idx, lengths))
                or (mode == "triple" and on_collapsed_part(idx, lengths))
            ):
                cands = cands & {base}
            elif mode == "triple" and on_outer_boundary(idx, lengths):
                cands = cands & set(sub.vertices)
            if not cands:
                ok = False
                break
            values[idx] = rng.choice(sorted(cands, key=str))
        if not ok:
            continue
        candidate = template.with_values([values[idx] for idx in points])
        if grid_map_violation(candidate) is None:
            return candidate
    return None


def random_direct_move(rng: random.Random, f: GridMap, tries: int = 30) -> Optional[tuple]:
    """`randomgen.random_direct_move` checking each move in full: the
    moved map's validity and its relation to f."""
    fixed = set() if f.mode == "absolute" else set(_grid_tables(f.axes).boundary)
    pool = [p for p in range(f.size) if p not in fixed]
    if not pool:
        return None
    t = f.target
    for _ in range(tries):
        p = pool[rng.randrange(len(pool))]
        cur = f.values[p]
        fwd = list(t.out_neighbors(cur))
        bwd = list(t.in_neighbors(cur))
        options = [(w, "fwd") for w in fwd] + [(w, "bwd") for w in bwd]
        if not options:
            continue
        w, direction = options[rng.randrange(len(options))]
        values = list(f.values)
        values[p] = w
        g = f.with_values(values)
        if grid_map_violation(g) is not None:
            continue
        if direction in relation(f, g):
            return g, direction
    return None


def find_certificate(
    f: GridMap, g: GridMap, max_factor: int = 2
) -> Optional[list[CertificateStep]]:
    """Bounded best-effort search for a single-step certificate relating f
    and g: try pairs of shrinking maps onto common shapes with subdivision
    factor at most max_factor per axis.  Returns None when nothing is
    found within the bound (which proves nothing)."""
    if f.dims != g.dims:
        return None
    require_valid(f)
    require_valid(g)

    def axis_tables(m_src: int, m_dst: int) -> list[tuple[int, ...]]:
        """Standard-line shrinking tables from length m_src onto m_dst, in
        lexicographic order: a step at position i is a digraph map iff i
        and the value there have the same parity."""
        tables = [(0,)]
        for i in range(m_src):
            tables = [
                tab + (tab[-1] + step,)
                for tab in tables
                for step in (0, 1)
                if 0 <= m_dst - tab[-1] - step <= m_src - i - 1
                and (step == 0 or tab[-1] % 2 == i % 2)
            ]
        return tables

    def combos(per_axis, limit=64):
        out = [[]]
        for tabs in per_axis:
            out = [c + [t] for c in out for t in tabs][:limit]
        return out

    for factor in range(1, max_factor + 1):
        common = tuple(max(a, b) * factor for a, b in zip(f.lengths, g.lengths))
        per_axis_f = [axis_tables(cm, m) for cm, m in zip(common, f.lengths)]
        per_axis_g = [axis_tables(cm, m) for cm, m in zip(common, g.lengths)]
        if not all(per_axis_f) or not all(per_axis_g):
            continue
        g_shrinks = [ShrinkingMap.from_tables(tg) for tg in combos(per_axis_g)]
        g_subdivisions = [(hg, subdivide(g, hg)) for hg in g_shrinks]
        for tf in combos(per_axis_f):
            hf = ShrinkingMap.from_tables(tf)
            fbar = subdivide(f, hf)
            for hg, gbar in g_subdivisions:
                _require_comparable(fbar, gbar)
                rel = relation(fbar, gbar)
                for direction in ("fwd", "bwd"):
                    if direction in rel:
                        return [CertificateStep(hf, hg, direction)]
    return None

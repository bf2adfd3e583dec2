"""Singular cubical homology of digraphs.

A singular n-cube is a digraph map from the n-fold box power of the
single arrow 0 -> 1 into the target.  Cube values are stored flat over
{0,1}^n in binary-counter order (first coordinate most significant).
Degenerate cubes (constant along some axis) span the subcomplex that is
quotiented away.  Relative homology comes from the pair of the complexes
of a digraph and of a subdigraph.

Also houses the corner-to-corner generator of the unit grid's allowed
chains, the induced chain map into path chains, and the comparison map
from cubical to path homology built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

from .chains import (
    ChainComplex,
    ChainComplexPair,
    GroupMap,
    HomologyClass,
    cached_builder,
    hom_map,
    suspension_composite,
)
from .digraphs import Digraph, require_subdigraph, cone, suspension
from .intlinalg import AbelianGroup
from .paths import PathChain, build_omega_complex, is_regular


class BoundExceededError(ValueError):
    pass


class IndexOutOfRangeError(IndexError):
    pass


DEFAULT_DIM_BOUND = 3
DEFAULT_VERTEX_BOUND = 12


def cube_corners(n: int) -> list[tuple[int, ...]]:
    """Corners of {0,1}^n in binary-counter order (x1 most significant)."""
    return [tuple((idx >> (n - 1 - k)) & 1 for k in range(n)) for idx in range(2**n)]


def corner_index(x: tuple[int, ...]) -> int:
    idx = 0
    for bit in x:
        idx = (idx << 1) | bit
    return idx


@dataclass(frozen=True)
class SingularCube:
    """Map from the n-cube's corners into a digraph, flat values tuple.

    Equality and hashing use (dim, values) only, so complexes over a
    subdigraph and its ambient digraph share cube identities; `target`
    is carried as metadata for validity checks and serialization.
    """

    dim: int
    values: tuple
    target: Digraph = field(compare=False)

    def __post_init__(self):
        if len(self.values) != 2**self.dim:
            raise ValueError("values length must be 2^dim")

    def corner(self, x: tuple[int, ...]):
        return self.values[corner_index(x)]

    def is_valid(self) -> bool:
        g = self.target
        for v in self.values:
            if not g.has_vertex(v):
                return False
        n = self.dim
        for idx in range(2**n):
            for k in range(n):
                bit = 1 << (n - 1 - k)
                if idx & bit:
                    continue
                a, b = self.values[idx], self.values[idx | bit]
                if a != b and not g.has_arrow(a, b):
                    return False
        return True

    def __repr__(self):
        return f"Cube{self.dim}{self.values!r}"


def face(c: SingularCube, i: int, k: int) -> SingularCube:
    """Fix coordinate i (1-based) to k in {0,1}."""
    if not 1 <= i <= c.dim:
        raise IndexOutOfRangeError(f"face index {i} out of range for dimension {c.dim}")
    if k not in (0, 1):
        raise IndexOutOfRangeError("face side must be 0 or 1")
    n = c.dim
    vals = []
    for x in cube_corners(n - 1):
        y = x[: i - 1] + (k,) + x[i - 1 :]
        vals.append(c.corner(y))
    return SingularCube(n - 1, tuple(vals), c.target)


def is_degenerate(c: SingularCube) -> bool:
    """True iff the assignment is constant along some axis."""
    n = c.dim
    for k in range(n):
        bit = 1 << (n - 1 - k)
        if all(
            c.values[idx] == c.values[idx | bit]
            for idx in range(2**n)
            if not idx & bit
        ):
            return True
    return False


class CubicalChain:
    """Integer formal sum of same-dimension singular cubes."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Optional[dict] = None):
        self.dim = dim
        self.terms: dict[SingularCube, int] = {}
        if terms:
            for cube, coeff in terms.items():
                if not coeff:
                    continue
                if cube.dim != dim:
                    raise ValueError("cube dimension mismatch")
                self.terms[cube] = self.terms.get(cube, 0) + coeff
            self.terms = {c: v for c, v in self.terms.items() if v}

    def __add__(self, other: "CubicalChain") -> "CubicalChain":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        merged = dict(self.terms)
        for c, v in other.terms.items():
            merged[c] = merged.get(c, 0) + v
        return CubicalChain(self.dim, merged)

    def __sub__(self, other: "CubicalChain") -> "CubicalChain":
        return self + other.scale(-1)

    def scale(self, k: int) -> "CubicalChain":
        return CubicalChain(self.dim, {c: k * v for c, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, CubicalChain):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def to_json(self) -> list:
        from .digraphs import label_str

        items = sorted(
            self.terms.items(), key=lambda kv: tuple(label_str(v) for v in kv[0].values)
        )
        return [
            {"dim": c.dim, "values": [label_str(v) for v in c.values], "coeff": coeff}
            for c, coeff in items
        ]


def cubical_boundary(ch: CubicalChain) -> CubicalChain:
    """Chain-level boundary: sum over i of (-1)^i (front face - back face).
    Degenerate faces are retained; they die only in the quotient complex."""
    if ch.dim == 0:
        return CubicalChain(-1)
    terms: dict[SingularCube, int] = {}
    for cube, coeff in ch.terms.items():
        for i in range(1, cube.dim + 1):
            sign = (-1) ** i
            f0 = face(cube, i, 0)
            f1 = face(cube, i, 1)
            terms[f0] = terms.get(f0, 0) + sign * coeff
            terms[f1] = terms.get(f1, 0) - sign * coeff
    return CubicalChain(ch.dim - 1, terms)


def enumerate_cubes(
    g: Digraph,
    n: int,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
) -> list[SingularCube]:
    """All singular n-cubes of g, by backtracking over corners in
    lexicographic (binary-counter) order; deterministic output order.
    """
    if n > dim_bound:
        raise BoundExceededError(f"dimension {n} exceeds bound {dim_bound}")
    if g.n_vertices > vertex_bound:
        raise BoundExceededError(
            f"{g.n_vertices} vertices exceed bound {vertex_bound}"
        )
    verts = list(g.vertices)
    succ = {v: (v,) + g.out_neighbors(v) for v in verts}

    total = 2**n
    out: list[SingularCube] = []
    values: list = [None] * total

    def fill(idx: int):
        if idx == total:
            out.append(SingularCube(n, tuple(values), g))
            return
        cands = None
        for k in range(n):
            bit = 1 << (n - 1 - k)
            if idx & bit:
                prev = values[idx ^ bit]
                allow = succ[prev]
                cands = allow if cands is None else [v for v in cands if v in allow]
        if cands is None:
            cands = verts
        for v in cands:
            values[idx] = v
            fill(idx + 1)
        values[idx] = None

    fill(0)
    return out


class CubicalComplex:
    """Quotient cubical chain complex with basis the nondegenerate cubes."""

    def __init__(
        self,
        g: Digraph,
        maxdim: int,
        dim_bound: int = DEFAULT_DIM_BOUND,
        vertex_bound: int = DEFAULT_VERTEX_BOUND,
        reduced: bool = False,
    ):
        self.digraph = g
        self.maxdim = maxdim
        self.reduced = reduced
        self.basis: dict[int, list[SingularCube]] = {}
        self.index: dict[int, dict[SingularCube, int]] = {}
        degrees: dict[int, list] = {}
        boundary: dict[int, list] = {}
        if reduced:
            degrees[-1] = ["*"]
            boundary[-1] = [{}]
        for n in range(maxdim + 1):
            cubes = [
                c
                for c in enumerate_cubes(g, n, dim_bound=dim_bound, vertex_bound=vertex_bound)
                if not is_degenerate(c)
            ]
            self.basis[n] = cubes
            self.index[n] = {c: i for i, c in enumerate(cubes)}
            degrees[n] = cubes
            cols = []
            if n == 0:
                cols = [{0: 1} if reduced else {} for _ in cubes]
            else:
                below = self.index[n - 1]
                for c in cubes:
                    col: dict[int, int] = {}
                    for i in range(1, n + 1):
                        sign = (-1) ** i
                        for k, s in ((0, sign), (1, -sign)):
                            f = face(c, i, k)
                            row = below.get(f)
                            if row is None:
                                continue  # degenerate
                            col[row] = col.get(row, 0) + s
                    cols.append({r: v for r, v in col.items() if v})
            boundary[n] = cols
        self.complex = ChainComplex(degrees, boundary)

    def chain_coords(self, ch: CubicalChain) -> dict:
        """Quotient coordinates of a chain: degenerate cubes are dropped."""
        n = ch.dim
        if n not in self.index:
            raise BoundExceededError(f"dimension {n} outside the built range")
        index = self.index[n]
        vec: dict[int, int] = {}
        for cube, coeff in ch.terms.items():
            row = index.get(cube)
            if row is None:
                if is_degenerate(cube):
                    continue
                raise ValueError("chain contains a cube outside the enumerated basis")
            vec[row] = vec.get(row, 0) + coeff
        return {r: v for r, v in vec.items() if v}

    def coords_to_chain(self, n: int, vec: dict) -> CubicalChain:
        return CubicalChain(n, {self.basis[n][j]: coeff for j, coeff in vec.items()})

    def homology(self, n: int) -> AbelianGroup:
        return self.complex.homology(n).group

    def class_of(self, ch: CubicalChain) -> HomologyClass:
        hd = self.complex.homology(ch.dim)
        return HomologyClass(hd.group, hd.class_vector(self.chain_coords(ch)))


@cached_builder(maxsize=64)
def build_cubical_complex(
    g: Digraph,
    maxdim: int,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
    reduced: bool = False,
) -> CubicalComplex:
    return CubicalComplex(g, maxdim, dim_bound, vertex_bound, reduced)


def cubical_homology(
    g: Digraph,
    n: int,
    relative_to: Optional[Digraph] = None,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
) -> AbelianGroup:
    """Cubical homology of g (or of the pair (g, relative_to)) at degree n;
    requires n + 1 <= dim_bound so the image boundary is available."""
    if n + 1 > dim_bound:
        raise BoundExceededError(f"degree {n} needs dimension {n + 1} > bound {dim_bound}")
    if relative_to is not None:
        pair = build_cubical_pair(g, relative_to, n + 1, dim_bound, vertex_bound)
        return pair.pair.quotient.homology(n).group
    return build_cubical_complex(g, n + 1, dim_bound, vertex_bound).homology(n)


class CubicalPair:
    """The complexes of a digraph and of a subdigraph, with the
    subdigraph's nondegenerate cubes as a coordinate subcomplex."""

    def __init__(
        self,
        g: Digraph,
        a: Digraph,
        maxdim: int,
        dim_bound: int = DEFAULT_DIM_BOUND,
        vertex_bound: int = DEFAULT_VERTEX_BOUND,
        reduced: bool = False,
    ):
        require_subdigraph(a, g)
        self.digraph = g
        self.sub_digraph = a
        self.ambient = build_cubical_complex(g, maxdim, dim_bound, vertex_bound, reduced)
        self.sub = build_cubical_complex(a, maxdim, dim_bound, vertex_bound, reduced)
        inclusion = {
            n: [{self.ambient.index[n][c]: 1} for c in self.sub.basis[n]]
            for n in range(maxdim + 1)
        }
        if reduced:
            inclusion[-1] = [{0: 1}]
        self.pair = ChainComplexPair(self.ambient.complex, self.sub.complex, inclusion)


@cached_builder(maxsize=64)
def build_cubical_pair(
    g: Digraph,
    a: Digraph,
    maxdim: int,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
    reduced: bool = False,
) -> CubicalPair:
    return CubicalPair(g, a, maxdim, dim_bound, vertex_bound, reduced)


def connecting_face_formula(pair: CubicalPair, n: int) -> GroupMap:
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
        images.append(pair.sub.chain_coords(cubical_boundary(chain)))
    return hom_map(hd_quot, hd_sub, images)


# --- comparison with path homology ------------------------------------------


def omega_generator(n: int) -> PathChain:
    """Signed sum of the n! corner-to-corner monotone paths of the unit
    n-grid; the sign is the parity of the coordinate-change sequence.

    >>> omega_generator(2)
    PathChain(-(0, 0)(0, 1)(1, 1) +(0, 0)(1, 0)(1, 1))
    """
    if n < 0:
        raise ValueError("negative dimension")
    if n == 0:
        return PathChain(0, {((),): 1})
    terms: dict[tuple, int] = {}
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        corner = [0] * n
        path = [tuple(corner)]
        for axis in perm:
            corner[axis] = 1
            path.append(tuple(corner))
        terms[tuple(path)] = (-1) ** inv
    return PathChain(n, terms)


def iota(arg) -> PathChain:
    """Push the unit-grid generator through a cube (extended linearly to
    chains): each corner-to-corner path maps to its vertex image, and
    images with equal adjacent vertices vanish."""
    if isinstance(arg, SingularCube):
        chains = [(arg, 1)]
        n = arg.dim
    elif isinstance(arg, CubicalChain):
        chains = list(arg.terms.items())
        n = arg.dim
    else:
        raise TypeError("iota expects a cube or a cubical chain")
    if n == 0:
        terms0: dict[tuple, int] = {}
        for cube, coeff in chains:
            key = (cube.values[0],)
            terms0[key] = terms0.get(key, 0) + coeff
        return PathChain(0, terms0)
    gen = omega_generator(n)
    terms: dict[tuple, int] = {}
    for cube, coeff in chains:
        for path, sign in gen.terms.items():
            image = tuple(cube.corner(x) for x in path)
            if is_regular(image):
                terms[image] = terms.get(image, 0) + sign * coeff
    return PathChain(n, terms)


def comparison_L(
    g: Digraph,
    n: int,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
    reduced: bool = False,
) -> GroupMap:
    """Matrix of the comparison homomorphism from cubical to path homology
    at degree n, on the chosen generator bases.  The reduced variant (only
    meaningful at n = 0) compares the two augmented theories."""
    cc = build_cubical_complex(g, n + 1, dim_bound, vertex_bound, reduced)
    oc = build_omega_complex(g, n + 1, reduced)
    hd_c = cc.complex.homology(n)
    hd_p = oc.complex.homology(n)
    images = []
    for j in range(hd_c.n_generators):
        chain = cc.coords_to_chain(n, hd_c.representative(j))
        pc = iota(chain)
        coords = oc.lattice_coords(pc)
        if coords is None:
            raise AssertionError("comparison image left the allowed-boundary lattice")
        images.append(coords)
    return hom_map(hd_c, hd_p, images)


def cubical_suspension_map(
    x: Digraph,
    n: int,
    dim_bound: int = DEFAULT_DIM_BOUND,
    vertex_bound: int = DEFAULT_VERTEX_BOUND,
    apex_a="+a",
    apex_b="+b",
) -> GroupMap:
    """The cubical suspension homomorphism H^c_n(x) -> H^c_{n+1}(suspension),
    computed as (quotient map)^-1 after (pair inclusion) after
    (connecting map)^-1 through the two cone pairs.

    At n = 0 the composite only exists for the augmented (reduced) degree-0
    group, so the source is the reduced group there.
    """
    reduced = n == 0
    pair_cone = build_cubical_pair(
        cone(x, apex_a), x, n + 2, dim_bound, vertex_bound, reduced
    )
    pair_susp = build_cubical_pair(
        suspension(x, apex_a, apex_b), cone(x, apex_b), n + 2, dim_bound, vertex_bound, reduced
    )

    def include(k: int, vec: dict) -> dict:
        basis, index = pair_cone.ambient.basis[k], pair_susp.ambient.index[k]
        return {index[basis[j]]: coeff for j, coeff in vec.items()}

    return suspension_composite(pair_cone.pair, pair_susp.pair, n, include)

"""Singular cubical homology of digraphs.

A singular n-cube is a digraph map from the n-fold box power of the
single arrow 0 -> 1 into the target.  Cube values are stored flat over
{0,1}^n in binary-counter order (first coordinate most significant).
Degenerate cubes (constant along some axis) span the subcomplex that is
quotiented away.  `CUBICAL`, the `chains.Theory` of the complex and its
chain-level suspension, gives the cached builders, absolute and relative
homology, and the suspension cycle and homomorphism.

The cost of a degree is its number of singular cubes, which neither the
degree nor the vertex count predicts: S^2 C4 has 8 vertices and over
seven million 4-cubes.  Enumeration refuses a degree with more than
`CUBE_BOUND` singular cubes (`BoundExceededError`) before it stores any
of them, whoever asks for the degree.

Complexes enumerate cubes by face composition, as pairs of integer ids
of degree n - 1 (`_level`).  Single cubes read small per-dimension index
tables (`_tables`): the corners of each face, the corner pairs along each
axis that decide degeneracy and validity, and the corner paths of the
unit grid's generator, so faces, degeneracy tests and `iota` images are
tuple gathers from a cube's values.

Also houses the corner-to-corner generator of the unit grid's allowed
chains, the induced chain map into path chains, and the comparison map
from cubical to path homology built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, permutations
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .chains import BoundExceededError, Chain, DigraphComplex, GroupMap, Theory, hom_map
from .digraphs import Digraph
from .intlinalg import vec_addmul
from .paths import PathChain, build_omega_complex, is_regular


class IndexOutOfRangeError(IndexError):
    pass


CUBE_BOUND = 500_000


def cube_corners(n: int) -> list[tuple[int, ...]]:
    """Corners of {0,1}^n in binary-counter order (x1 most significant)."""
    return [tuple((idx >> (n - 1 - k)) & 1 for k in range(n)) for idx in range(2**n)]


def corner_index(x: tuple[int, ...]) -> int:
    idx = 0
    for bit in x:
        idx = (idx << 1) | bit
    return idx


def _gather(indices: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The map from a values tuple to the tuple of its entries at `indices`
    (`itemgetter` alone returns a bare entry for a single index)."""
    if len(indices) == 1:
        (j,) = indices
        return lambda values: (values[j],)
    return itemgetter(*indices)


class _Tables(NamedTuple):
    """Corner-index tables of the n-cube; see `_tables`."""

    boundary: tuple[tuple[Callable, int], ...]
    axes: tuple[tuple[Callable, Callable], ...]
    omega: tuple[tuple[Callable, int], ...]


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """Index tables of the n-cube, in binary-counter corner order.

    - `boundary[2 * (i - 1) + k]` gathers face (i, k), the corners with
      coordinate i (1-based) fixed to k in the order of `cube_corners(n - 1)`,
      with its sign in the cubical boundary: (-1)^i for the front face
      k = 0 and -(-1)^i for the back face k = 1;
    - `axes[k]` gathers the low and the high corner of every edge along
      axis k + 1, so a cube is degenerate iff both gathers agree for some axis;
    - `omega` gathers each corner path of `omega_generator(n)` with its sign.
    """
    if n < 0:
        raise ValueError("negative dimension")
    corners = cube_corners(n)
    boundary = []
    for i in range(1, n + 1):
        for k in (0, 1):
            on_face = [corner_index(x[: i - 1] + (k,) + x[i - 1 :]) for x in cube_corners(n - 1)]
            boundary.append((_gather(tuple(on_face)), (-1) ** (i + k)))
    axes = []
    for k in range(n):
        low = tuple(corner_index(x) for x in corners if not x[k])
        high = tuple(corner_index(x[:k] + (1,) + x[k + 1 :]) for x in corners if not x[k])
        axes.append((_gather(low), _gather(high)))
    omega = tuple(
        (_gather(tuple(corner_index(x) for x in path)), sign)
        for path, sign in omega_generator(n).terms.items()
    )
    return _Tables(tuple(boundary), tuple(axes), omega)


def _degenerate(values: tuple, axes: tuple[tuple[Callable, Callable], ...]) -> bool:
    for low, high in axes:
        if low(values) == high(values):
            return True
    return False


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

    def __repr__(self):
        return f"Cube{self.dim}{self.values!r}"


def face(c: SingularCube, i: int, k: int) -> SingularCube:
    """Fix coordinate i (1-based) to k in {0,1}."""
    if not 1 <= i <= c.dim:
        raise IndexOutOfRangeError(f"face index {i} out of range for dimension {c.dim}")
    if k not in (0, 1):
        raise IndexOutOfRangeError("face side must be 0 or 1")
    gather, _ = _tables(c.dim).boundary[2 * (i - 1) + k]
    return SingularCube(c.dim - 1, gather(c.values), c.target)


def is_degenerate(c: SingularCube) -> bool:
    """True iff the assignment is constant along some axis."""
    return _degenerate(c.values, _tables(c.dim).axes)


class CubicalChain(Chain):
    """Integer formal sum of same-dimension singular cubes."""

    __slots__ = ()

    def _term(self, cube: SingularCube) -> SingularCube:
        if cube.dim != self.degree:
            raise ValueError("cube dimension mismatch")
        return cube

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
    if ch.degree == 0:
        return CubicalChain(-1)
    n = ch.degree
    boundary = _tables(n).boundary
    terms: dict[SingularCube, int] = {}
    for cube, coeff in ch.terms.items():
        for gather, sign in boundary:
            f = SingularCube(n - 1, gather(cube.values), cube.target)
            terms[f] = terms.get(f, 0) + sign * coeff
    return CubicalChain(n - 1, terms)


def _refusal(n: int) -> BoundExceededError:
    return BoundExceededError(f"degree {n} has more than {CUBE_BOUND} singular cubes")


class _Level(NamedTuple):
    """The singular n-cubes of a digraph by integer id; see `_level`."""

    his: Optional[list]  # per (n-1)-cube id a: the ids h with (a, h) an n-cube
    pid: Optional[dict]  # (a, h) -> id of the n-cube (a, h)
    faces: list  # per id: the ids of faces (1, 0), (1, 1), (2, 0), ..., (n, 1)
    mask: list  # per id: bit i set iff the cube is constant along axis i + 1
    values: list
    rows: list  # per id: position in the quotient basis, None if degenerate


def _level(g: Digraph, n: int, below: Optional[_Level], keep: bool = True) -> _Level:
    """The n-cubes of g from the (n-1)-cubes `below` (the vertices if None).

    An n-cube is the pair (lo, hi) of its faces x_1 = 0 and x_1 = 1.  The
    hi that go with lo = (A, B) are the (n-1)-cubes (C, D) with C among the
    hi of A and D among those of B; those of a vertex are its successors,
    itself first.  Ids run lo first, then hi in that candidate order: the
    binary-counter order of the values tuples.  Face (i, k) for i > 1 is
    the pair of faces (i - 1, k) of lo and hi, and the cube is constant
    along axis 1 iff lo == hi, along axis i > 1 iff lo and hi are along
    axis i - 1.  Without `keep` (the top degree of a build) `pid` is not
    made and degenerate cubes get no faces or values.  Past `CUBE_BOUND`
    cubes, counted per (n-1)-cube as their hi are found, the degree is
    refused before any faces or values are made.
    """
    if below is None:
        size = len(g.vertices)
        if size > CUBE_BOUND:
            raise _refusal(n)
        return _Level(None, {}, [()] * size, [0] * size, [(v,) for v in g.vertices], [*range(size)])
    if below.his is None:
        found = ([g.index(w) for w in (v,) + g.out_neighbors(v)] for v in g.vertices)
    else:
        up, get = below.his, below.pid.get
        found = (
            [i for c in up[a] for d in up[b] if (i := get((c, d))) is not None]
            for a, hs in enumerate(up)
            for b in hs
        )
    his, size = [], 0
    for hs in found:
        size += len(hs)
        if size > CUBE_BOUND:
            raise _refusal(n)
        his.append(hs)
    pairs = [(a, h) for a, hs in enumerate(his) for h in hs]
    bfaces, bmask, bvalues = below.faces, below.mask, below.values
    mask = [(a == h) | ((bmask[a] & bmask[h]) << 1) for a, h in pairs]
    face_id = below.pid.__getitem__
    faces = [
        (a, h, *map(face_id, zip(bfaces[a], bfaces[h]))) if keep or not m else None
        for (a, h), m in zip(pairs, mask)
    ]
    values = [bvalues[a] + bvalues[h] if keep or not m else None for (a, h), m in zip(pairs, mask)]
    position = count()
    rows = [None if m else next(position) for m in mask]
    return _Level(his, dict(zip(pairs, count())) if keep else None, faces, mask, values, rows)


def enumerate_cubes(g: Digraph, n: int) -> list[SingularCube]:
    """All singular n-cubes of g, in binary-counter order of their values."""
    level = None
    for k in range(n + 1):
        level = _level(g, k, level)
    return [SingularCube(n, v, g) for v in level.values]


class CubicalComplex(DigraphComplex):
    """Quotient cubical chain complex with basis the nondegenerate cubes,
    built degree by degree as it is read (`grow`).  `basis[n]` holds their
    values tuples, and `index[n]` their positions, the coordinates
    `chain_vector` reads a chain in.  `reduced` is the same complex
    augmented to Z in degree -1.

    Degree n is built from the id tables (`_Level`) of degree n - 1.  Every
    degree below the top degree of a `grow` keeps its tables; the top degree
    keeps only its basis, index and columns, and a later `grow` past it
    rebuilds its tables from the degree below."""

    def __init__(self, g: Digraph):
        # per degree: the values tuples of the basis cubes, and their positions
        self.basis: dict[int, list[tuple]] = {}
        self.index: dict[int, dict[tuple, int]] = {}
        self._levels: list[_Level] = []
        super().__init__(g)

    def grow(self, maxdim: int) -> "CubicalComplex":
        """Build every degree up to maxdim that is not built yet.  A degree
        over `CUBE_BOUND` raises `BoundExceededError` and stores nothing, so
        it is refused again on every later request, and the degrees below
        it stay built."""
        g = self.digraph
        levels = self._levels
        for n in range(len(self.basis), maxdim + 1):
            while len(levels) < n:  # a build's top degree keeps no id tables
                levels.append(_level(g, len(levels), levels[-1] if levels else None))
            below = levels[n - 1] if n else None
            level = _level(g, n, below, keep=n < maxdim)
            if n < maxdim:
                levels.append(level)
            signs = [sign for _, sign in _tables(n).boundary]
            rows = below.rows if below else ()
            values, cols = [], []
            for faces, v, row in zip(level.faces, level.values, level.rows):
                if row is None:
                    continue
                col: dict[int, int] = {}
                for f, sign in zip(faces, signs):
                    r = rows[f]
                    if r is not None:  # None: the face is degenerate
                        col[r] = col.get(r, 0) + sign
                values.append(v)
                cols.append({r: x for r, x in col.items() if x} if 0 in col.values() else col)
            self.complex.add_degree(n, values, cols)
            self.basis[n] = values
            self.index[n] = {v: i for i, v in enumerate(values)}
        return self

    def values_coords(self, n: int, terms: dict[tuple, int]) -> dict:
        """Quotient coordinates of the sum {values tuple: coeff} of singular
        n-cubes of the digraph: degenerate cubes are dropped."""
        self.complex.grow(n)
        if n not in self.index:
            raise ValueError(f"no cubes of degree {n}")
        index, axes = self.index[n], _tables(n).axes
        vec: dict[int, int] = {}
        for values, coeff in terms.items():
            row = index.get(values)
            if row is None:
                if _degenerate(values, axes):
                    continue
                raise ValueError("chain contains a cube outside the enumerated basis")
            vec[row] = vec.get(row, 0) + coeff
        return {r: v for r, v in vec.items() if v}

    def cube_coords(self, n: int, values: tuple) -> dict:
        """Quotient coordinates of one singular n-cube: {its row: 1}, or {}
        if it is degenerate."""
        return self.values_coords(n, {values: 1})

    def chain_vector(self, ch: CubicalChain) -> tuple[int, dict]:
        """Degree and quotient coordinates of a chain: degenerate cubes are dropped."""
        n = ch.degree
        return n, self.values_coords(n, {c.values: k for c, k in ch.terms.items()})

    def coords_to_chain(self, n: int, vec: dict) -> CubicalChain:
        basis, g = self.basis[n], self.digraph
        return CubicalChain(n, {SingularCube(n, basis[j], g): coeff for j, coeff in vec.items()})

    def inclusion_cols(self, sub: "CubicalComplex", n: int) -> list:
        index = self.index[n]
        return [{index[v]: 1} for v in sub.basis[n]]


def _suspend(z: CubicalChain, sx: Digraph, apex_a, apex_b) -> CubicalChain:
    """C_b z - C_a z for a degree-n chain z, unchecked.  C_p sends a cube to
    its cone with p along a new first axis: values + (p,) * 2^n.  The face
    signs (-1)^(i+k) give d(C_p s) = -s - C_p(ds) modulo degenerate cubes
    (plus the vertex p at n = 0), so it takes cycles to cycles."""
    n = z.degree
    terms = {}
    for apex, sign in ((apex_b, 1), (apex_a, -1)):
        tail = (apex,) * 2**n
        for cube, coeff in z.terms.items():
            terms[SingularCube(n + 1, cube.values + tail, sx)] = sign * coeff
    return CubicalChain(n + 1, terms)


CUBICAL = Theory(
    CubicalComplex,
    _suspend,
    "build_cubical_complex build_cubical_pair cubical_homology"
    " cubical_suspension_cycle cubical_suspension_map",
)
build_cubical_complex = CUBICAL.build_complex
build_cubical_pair = CUBICAL.build_pair
cubical_homology = CUBICAL.homology
cubical_suspension_cycle = CUBICAL.suspension_cycle
cubical_suspension_map = CUBICAL.suspension_map


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
        return PathChain(arg.dim, iota_terms(arg.dim, arg.values))
    if isinstance(arg, CubicalChain):
        out: dict[tuple, int] = {}
        for cube, coeff in arg.terms.items():
            vec_addmul(out, iota_terms(arg.degree, cube.values), coeff)
        return PathChain(arg.degree, out)
    raise TypeError("iota expects a cube or a cubical chain")


def iota_terms(n: int, values: tuple) -> dict[tuple, int]:
    """`iota` of the singular n-cube with these values as {path: coeff},
    zero coefficients dropped."""
    out: dict[tuple, int] = {}
    for gather, sign in _tables(n).omega:
        image = gather(values)
        if is_regular(image):
            out[image] = out.get(image, 0) + sign
    return {path: c for path, c in out.items() if c}


def comparison_L(g: Digraph, n: int, reduced: bool = False) -> GroupMap:
    """Matrix of the comparison homomorphism from cubical to path homology
    at degree n, on the chosen generator bases.  The reduced variant (only
    meaningful at n = 0) compares the two augmented theories."""
    cc = build_cubical_complex(g, n + 1, reduced)
    oc = build_omega_complex(g, n + 1, reduced)
    hd_c = cc.complex.homology(n)
    hd_p = oc.complex.homology(n)
    images = [
        oc.chain_vector(iota(cc.coords_to_chain(n, hd_c.representative(j))))[1]
        for j in range(hd_c.n_generators)
    ]
    return hom_map(hd_c, hd_p, images)

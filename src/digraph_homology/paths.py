"""Path homology of digraphs over the integers.

Allowed paths, the regular boundary (faces with equal adjacent vertices
vanish), and the complex of allowed chains whose boundary stays allowed,
with its chain-level suspension.  `PATH`, the `chains.Theory` of the two,
gives the cached builders, absolute and relative path homology, and the
suspension cycle and homomorphism.

The cost of a degree is its number of allowed paths, which grows like the
arrow count to the power of the degree.  Enumeration refuses a degree with
more than `PATH_BOUND` allowed paths (`BoundExceededError`) before it
builds any of them, whoever asks for the degree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .chains import BoundExceededError, Chain, DigraphComplex, NotACycleError, Theory
from .digraphs import Digraph
from .intlinalg import Echelon, combination, kernel_echelon

PATH_BOUND = 500_000


class PathChain(Chain):
    """Integer formal sum of same-length vertex sequences."""

    __slots__ = ()

    def _term(self, path) -> tuple:
        path = tuple(path)
        if len(path) != self.degree + 1:
            raise ValueError("path length does not match chain degree")
        return path

    @staticmethod
    def single(path: Sequence, coeff: int = 1) -> "PathChain":
        path = tuple(path)
        return PathChain(len(path) - 1, {path: coeff})

    def __repr__(self):
        if not self.terms:
            return "PathChain(0)"
        bits = []
        for path, coeff in sorted(self.terms.items(), key=lambda kv: kv[0]):
            word = "".join(str(v) for v in path)
            bits.append(f"{'+' if coeff > 0 else '-'}{abs(coeff) if abs(coeff) != 1 else ''}{word}")
        return "PathChain(" + " ".join(bits) + ")"

    def to_json(self) -> list:
        from .digraphs import label_str

        return [
            {"path": [label_str(v) for v in path], "coeff": coeff}
            for path, coeff in sorted(
                self.terms.items(), key=lambda kv: tuple(label_str(v) for v in kv[0])
            )
        ]


def is_regular(path: Sequence) -> bool:
    return all(a != b for a, b in zip(path, path[1:]))


def allowed_paths(g: Digraph, n: int) -> list[tuple]:
    """All allowed n-paths, ordered lexicographically in the vertex order.

    Each degree k is counted from degree k - 1, as the sum of the
    out-degrees of the last vertices, before it is built; past
    `PATH_BOUND` paths it is refused with `BoundExceededError`.
    """
    if n < 0:
        raise ValueError("negative path length")
    paths = [(v,) for v in g.vertices]
    for k in range(1, n + 1):
        paths = _extend(g, paths, k)
    return paths


def _extend(g: Digraph, paths: list[tuple], k: int) -> list[tuple]:
    """The allowed k-paths, from the allowed (k - 1)-paths in order: counted
    against `PATH_BOUND`, then extended by the out-neighbours of each last
    vertex."""
    succ = {v: g.out_neighbors(v) for v in g.vertices}
    if sum(len(succ[p[-1]]) for p in paths) > PATH_BOUND:
        raise BoundExceededError(f"degree {k} has more than {PATH_BOUND} allowed paths")
    return [p + (w,) for p in paths for w in succ[p[-1]]]


def _boundary_faces(path: tuple) -> list[tuple[tuple, int]]:
    """Regular faces of one regular path, with alternating signs: removing
    an interior vertex makes a face irregular only if its two neighbours
    are equal."""
    last = len(path) - 1
    return [
        (path[:i] + path[i + 1 :], (-1) ** i)
        for i in range(last + 1)
        if not 0 < i < last or path[i - 1] != path[i + 1]
    ]


def regular_boundary(chain: PathChain) -> PathChain:
    """Boundary in the regular quotient: faces with equal adjacent
    vertices are dropped.

    >>> regular_boundary(PathChain.single((0, 1, 2)))
    PathChain(+01 -02 +12)
    """
    if chain.degree == 0:
        return PathChain(-1)
    terms: dict[tuple, int] = {}
    for path, coeff in chain.terms.items():
        if not is_regular(path):
            raise ValueError("chain contains a non-regular path")
        for face, sign in _boundary_faces(path):
            terms[face] = terms.get(face, 0) + sign * coeff
    return PathChain(chain.degree - 1, terms)


class OmegaComplex(DigraphComplex):
    """The complex of allowed chains whose regular boundary stays allowed,
    built degree by degree as it is read (`grow`).

    Per built degree n: the ordered allowed-path basis, a saturated
    lattice basis for the degree-n chain group inside it, and the boundary
    matrix in those lattice coordinates, the coordinates `chain_vector`
    reads a chain in.  `reduced` is the same complex augmented to Z in
    degree -1.
    """

    def __init__(self, g: Digraph):
        self.allowed: dict[int, list[tuple]] = {}
        self.path_index: dict[int, dict[tuple, int]] = {}
        self._echelons: dict[int, Echelon] = {}
        super().__init__(g)

    def grow(self, maxdeg: int) -> "OmegaComplex":
        """Build every degree up to maxdeg that is not built yet.  A degree
        over `PATH_BOUND` raises `BoundExceededError` before anything of it
        is stored, so it is refused again on every later request, and the
        degrees below it stay built.  Degree n extends the allowed paths of
        degree n - 1."""
        g = self.digraph
        for n in range(len(self.allowed), maxdeg + 1):
            paths = _extend(g, self.allowed[n - 1], n) if n else allowed_paths(g, 0)
            below_index = self.path_index.get(n - 1, {})
            # each path's faces, once: the allowed ones as (row below, sign),
            # the others as a column over the non-allowed faces
            below_faces, cols = [], []
            nonallowed_rows: dict[tuple, int] = {}
            for p in paths:
                below: list[tuple[int, int]] = []
                col: dict[int, int] = {}
                for face, sign in _boundary_faces(p):
                    row = below_index.get(face)
                    if row is not None:
                        below.append((row, sign))
                    else:
                        row = nonallowed_rows.setdefault(face, len(nonallowed_rows))
                        col[row] = col.get(row, 0) + sign
                below_faces.append(below)
                cols.append({k: v for k, v in col.items() if v})
            # in degree 0 the empty face has no row, so every boundary is zero
            if n == 0:
                cols, nonallowed_rows = [{}] * len(paths), {}
            ech = kernel_echelon(cols, len(nonallowed_rows))
            below_ech = self._echelons.get(n - 1, Echelon())
            bcols = []
            for vec in ech.basis_vectors():
                db: dict[int, int] = {}
                for idx, coeff in vec.items():
                    for row, sign in below_faces[idx]:
                        db[row] = db.get(row, 0) + sign * coeff
                db = {k: v for k, v in db.items() if v}
                sol = below_ech.solve(db)
                if sol is None:
                    raise AssertionError("boundary left the allowed chain lattice")
                bcols.append(sol)
            self.complex.add_degree(n, [f"w{n}:{j}" for j in range(len(ech))], bcols)
            self.allowed[n], self._echelons[n] = paths, ech
            self.path_index[n] = {p: i for i, p in enumerate(paths)}
        return self

    def rank(self, n: int) -> int:
        self.complex.grow(n)
        return self.complex.dim(n)

    def basis_chain(self, n: int, j: int) -> PathChain:
        vec = self._echelons[n].basis_vectors()[j]
        return PathChain(n, {self.allowed[n][i]: c for i, c in vec.items()})

    def lattice_coords(self, chain: PathChain) -> Optional[dict]:
        """Coordinates of an allowed chain in the degree-n lattice basis,
        or None if the chain is not in the lattice."""
        return self._terms_coords(chain.degree, chain.terms)

    def cube_coords(self, n: int, values: tuple) -> dict:
        """Lattice coordinates of iota of one singular n-cube, read from its
        paths without a `PathChain`."""
        from .cubes import iota_terms  # cubes imports this module

        vec = self._terms_coords(n, iota_terms(n, values))
        if vec is None:
            raise NotACycleError("chain is not in the allowed-boundary lattice")
        return vec

    def _terms_coords(self, n: int, terms: dict) -> Optional[dict]:
        """`lattice_coords` of the chain {path: nonzero coeff} of degree n."""
        self.complex.grow(n)
        if n not in self.allowed:
            raise ValueError(f"no allowed paths of degree {n}")
        index = self.path_index[n]
        vec: dict[int, int] = {}
        for path, coeff in terms.items():
            if path not in index:
                return None
            vec[index[path]] = coeff
        return self._echelons[n].solve(vec)

    def chain_vector(self, chain: PathChain) -> tuple[int, dict]:
        vec = self.lattice_coords(chain)
        if vec is None:
            raise NotACycleError("chain is not in the allowed-boundary lattice")
        return chain.degree, vec

    def coords_to_chain(self, n: int, vec: dict) -> PathChain:
        paths = self.allowed[n]
        terms = combination(self._echelons[n].basis_vectors(), vec)
        return PathChain(n, {paths[i]: c for i, c in terms.items()})

    def inclusion_cols(self, sub: "OmegaComplex", n: int) -> list:
        return [self.chain_vector(sub.basis_chain(n, j))[1] for j in range(sub.rank(n))]


def _suspend(z: PathChain, sx: Digraph, apex_a, apex_b) -> PathChain:
    """(-1)^(n+1) * (z.a - z.b) for a degree-n chain z, unchecked."""
    sign = -1 if (z.degree + 1) % 2 else 1
    terms = {path + (apex_a,): sign * c for path, c in z.terms.items()}
    terms.update({path + (apex_b,): -sign * c for path, c in z.terms.items()})
    return PathChain(z.degree + 1, terms)


PATH = Theory(
    OmegaComplex,
    _suspend,
    "build_omega_complex build_omega_pair path_homology suspension_cycle path_suspension_map",
)
build_omega_complex = PATH.build_complex
build_omega_pair = PATH.build_pair
path_homology = PATH.homology
suspension_cycle = PATH.suspension_cycle
path_suspension_map = PATH.suspension_map

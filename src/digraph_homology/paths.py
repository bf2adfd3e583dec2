"""Path homology of digraphs over the integers.

Allowed paths, the regular boundary (faces with equal adjacent vertices
vanish), the complex of allowed chains whose boundary stays allowed, and
absolute/relative path homology.  Also the chain-level suspension cycle
construction and the suspension homomorphism as the classes of suspension
cycles.

The cost of a degree is its number of allowed paths, which grows like the
arrow count to the power of the degree.  Enumeration refuses a degree with
more than `PATH_BOUND` allowed paths (`BoundExceededError`) before it
builds any of them, whoever asks for the degree.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional, Sequence

from .chains import (
    BoundExceededError,
    Chain,
    ChainComplex,
    DigraphComplex,
    DigraphPair,
    GroupMap,
    NotACycleError,
    suspension_map,
)
from .digraphs import Digraph, suspension
from .intlinalg import AbelianGroup, Echelon, combination, kernel_echelon

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
    succ = {v: g.out_neighbors(v) for v in g.vertices}
    outdeg = {v: len(ws) for v, ws in succ.items()}
    paths = [(v,) for v in g.vertices]
    for k in range(1, n + 1):
        if sum(outdeg[p[-1]] for p in paths) > PATH_BOUND:
            raise BoundExceededError(f"degree {k} has more than {PATH_BOUND} allowed paths")
        paths = [p + (w,) for p in paths for w in succ[p[-1]]]
    return paths


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
        self.digraph = g
        self.allowed: dict[int, list[tuple]] = {}
        self.path_index: dict[int, dict[tuple, int]] = {}
        self._echelons: dict[int, Echelon] = {}
        self.complex = ChainComplex({}, {}, self.grow)

    def grow(self, maxdeg: int) -> "OmegaComplex":
        """Build every degree up to maxdeg that is not built yet.  A degree
        over `PATH_BOUND` raises `BoundExceededError` from `allowed_paths`
        before anything of it is stored, so it is refused again on every
        later request, and the degrees below it stay built."""
        for n in range(len(self.allowed), maxdeg + 1):
            paths = allowed_paths(self.digraph, n)
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
        n = chain.degree
        self.complex.grow(n)
        if n not in self.allowed:
            raise ValueError(f"no allowed paths of degree {n}")
        index = self.path_index[n]
        vec: dict[int, int] = {}
        for path, coeff in chain.terms.items():
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
        chains = (sub.basis_chain(n, j) for j in range(sub.rank(n)))
        cols = [self.lattice_coords(chain) for chain in chains]
        if None in cols:
            raise AssertionError("sub lattice does not embed; invariant broken")
        return cols


_omega_complex = lru_cache(maxsize=128)(OmegaComplex)


def build_omega_complex(g: Digraph, maxdeg: int, reduced: bool = False) -> OmegaComplex:
    """The complex of g (one per digraph, cached) grown to maxdeg, or its reduced view."""
    oc = _omega_complex(g).grow(maxdeg)
    return oc.reduced if reduced else oc


build_omega_complex.cache_info = _omega_complex.cache_info
build_omega_complex.cache_clear = _omega_complex.cache_clear


@lru_cache(maxsize=64)
def _omega_pair(g: Digraph, a: Digraph) -> DigraphPair:
    return DigraphPair(_omega_complex(g), _omega_complex(a))


def build_omega_pair(g: Digraph, a: Digraph, maxdeg: int, reduced: bool = False) -> DigraphPair:
    """The pair (g, a) (one per pair, cached) grown to maxdeg, or its reduced view."""
    pair = _omega_pair(g, a)
    pair.pair.grow(maxdeg)
    return pair.reduced if reduced else pair


build_omega_pair.cache_info = _omega_pair.cache_info
build_omega_pair.cache_clear = _omega_pair.cache_clear


def path_homology(
    g: Digraph, n: int, relative_to: Optional[Digraph] = None, reduced: bool = False
) -> AbelianGroup:
    """Path homology H_n(g) or H_n(g, relative_to) over the integers."""
    if n < 0:
        raise ValueError("negative degree")
    if relative_to is None:
        return build_omega_complex(g, n + 1, reduced).homology(n)
    return build_omega_pair(g, relative_to, n + 1, reduced).homology(n)


def append_vertex(chain: PathChain, v) -> PathChain:
    """The chain whose paths are those of `chain` with `v` appended."""
    return PathChain(
        chain.degree + 1, {path + (v,): coeff for path, coeff in chain.terms.items()}
    )


def _suspend(z: PathChain, apex_a, apex_b) -> PathChain:
    """(-1)^(n+1) * (z.a - z.b) for a degree-n chain z, unchecked."""
    sign = -1 if (z.degree + 1) % 2 else 1
    return (append_vertex(z, apex_a) - append_vertex(z, apex_b)).scale(sign)


def suspension_cycle(
    z: PathChain, x: Digraph, apex_a="+a", apex_b="+b"
) -> PathChain:
    """Chain-level suspension of a cycle: (-1)^(n+1) * (z.a - z.b).

    Requires z to be a cycle in the degree-n allowed-boundary lattice of
    x; the result is verified to be a cycle of the suspension, and its
    class realizes the suspension homomorphism applied to [z].
    """
    n = z.degree
    oc = build_omega_complex(x, n)
    if oc.lattice_coords(z) is None:
        raise NotACycleError("chain does not lie in the allowed-boundary lattice")
    if n == 0:
        if sum(z.terms.values()) != 0:
            raise NotACycleError("a degree-0 chain must sum to zero (reduced cycle)")
    elif not regular_boundary(z).is_zero():
        raise NotACycleError("chain is not a cycle")
    out = _suspend(z, apex_a, apex_b)
    sx = suspension(x, apex_a, apex_b)
    oc_sx = build_omega_complex(sx, n + 1)
    if oc_sx.lattice_coords(out) is None:
        raise AssertionError("suspension cycle left the allowed-boundary lattice")
    if not regular_boundary(out).is_zero():
        raise AssertionError("suspension cycle has nonzero boundary")
    return out


def path_suspension_map(x: Digraph, n: int, apex_a="+a", apex_b="+b") -> GroupMap:
    """The suspension homomorphism H_n(x) -> H_{n+1}(suspension of x)
    (reduced at n = 0): by `chains.suspension_map`, the class of the
    suspension cycle (-1)^(n+1) * (z.a - z.b) of each generator z."""
    return suspension_map(
        build_omega_complex(x, n + 1),
        build_omega_complex(suspension(x, apex_a, apex_b), n + 2),
        n,
        partial(_suspend, apex_a=apex_a, apex_b=apex_b),
    )

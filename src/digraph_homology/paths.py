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

The complex works on integer path ids: an n-path's faces are composed
from those of its (n - 1)-prefix, a path with no non-allowed face is a
unit generator of the lattice, and coordinates on unit rows need no solve.
"""

from __future__ import annotations

from itertools import accumulate, repeat
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
    degree -1.  A path's id is its place in `allowed`; `_units` maps each
    row j whose basis vector is {j: 1} to its basis position.
    """

    def __init__(self, g: Digraph):
        self.allowed: dict[int, list[tuple]] = {}
        self.path_index: dict[int, dict[tuple, int]] = {}  # built on the first read
        self._echelons: dict[int, Echelon] = {}
        self._units: dict[int, dict[int, int]] = {-1: {}}
        self._top: tuple = ()  # the face codes and `start` of the newest degree
        super().__init__(g)

    def grow(self, maxdeg: int) -> "OmegaComplex":
        """Build every degree up to maxdeg that is not built yet.  A degree
        over `PATH_BOUND` raises `BoundExceededError` before anything of it
        is stored, so it is refused again on every later request, and the
        degrees below it stay built.  Degree n extends the paths of degree
        n - 1 and composes their faces (`_compose`); a path with no
        non-allowed face is the unit generator {j: 1}, and `kernel_echelon`
        sees only the other columns (an empty column meets no other one)."""
        g = self.digraph
        for n in range(len(self.allowed), maxdeg + 1):
            paths = _extend(g, self.allowed[n - 1], n) if n else allowed_paths(g, 0)
            faces, start, cols, nrows = self._compose(n)
            ech, mixed = Echelon(), list(cols)
            ech.pivots = {j: {j: 1} for j in range(len(paths)) if j not in cols}
            for p, vec in kernel_echelon(list(cols.values()), nrows).pivots.items():
                ech.pivots[mixed[p]] = {mixed[i]: x for i, x in vec.items()}
            bcols, signs = [], (1, -1) * (n // 2 + 1)
            for vec in ech.basis_vectors():
                if len(vec) == 1:  # a unit generator, whose faces are all allowed or irregular
                    db = {c: s for j in vec for c, s in zip(faces[j], signs) if c is not None}
                else:
                    db = {}
                    for j, coeff in vec.items():
                        for c, s in zip(faces[j], signs):
                            if c is not None and c >= 0:
                                db[c] = db.get(c, 0) + s * coeff
                    db = {k: v for k, v in db.items() if v}
                sol = self._coords(n - 1, db)
                if sol is None:
                    raise AssertionError("boundary left the allowed chain lattice")
                bcols.append(sol)
            self.complex.add_degree(n, [f"w{n}:{j}" for j in range(len(ech))], bcols)
            self._units[n] = {j: k for k, vec in enumerate(ech.basis_vectors()) if len(vec) == 1 for j in vec}
            self.allowed[n], self._echelons[n], self._top = paths, ech, (faces, start)
        return self

    def _compose(self, n: int) -> tuple:
        """The faces of the allowed n-paths, from those of degree n - 1:
        (codes per path, `start`, {path: column} of the paths with a
        non-allowed face, row count), where `start[a]` is the id of the
        first extension of the (n - 1)-path a.  Face i, sign (-1)^i, is
        coded as its id if allowed, ~row if not (rows numbered in order of
        first occurrence) and None if irregular.  For p = (q, w), faces
        0..n-2 are q's extended by w, face n - 1 is q's prefix extended by
        w, and face n is q.  An allowed a extended by w is the path
        first[a] + (rank of w among the out-neighbours of a's last vertex),
        with `first` the `start` of degree n - 1; a non-allowed face is
        keyed by (its code in q, w), or by (q's prefix, w) for a new jump."""
        g, rows, cols = self.digraph, {}, {}
        succ = {v: g.out_neighbors(v) for v in g.vertices}
        start = list(accumulate((len(succ[q[-1]]) for q in self.allowed.get(n - 1, ())), initial=0))
        if n < 2:  # a vertex has no face here; (v, w) has (w) and (v)
            faces = [(g.index(w), qid) for qid, v in enumerate(g.vertices) for w in succ[v]]
            return faces if n else [()] * len(g.vertices), start, cols, 0
        rank = {v: {w: r for r, w in enumerate(ws)} for v, ws in succ.items()}
        below, first = self._top
        faces, sign = [], -1 if n & 1 else 1  # the sign of face n - 1
        for qid, q in enumerate(self.allowed[n - 1]):
            ws, fq, u = succ[q[-1]], below[qid], q[-2]
            if not ws:
                continue
            prefix, jumps, k = fq[-1], rank[u], len(ws)
            codes = [repeat(c, k) if c is None else [] if c < 0 else range(first[c], first[c] + k) for c in fq[:-1]]
            down = [(i, c) for i, c in enumerate(fq[:-1]) if c is not None and c < 0]
            jump = []
            for w in ws:
                col = {}
                for i, c in down:
                    col[rows.setdefault((c, w), len(rows))] = -1 if i & 1 else 1
                    codes[i].append(~rows[c, w])
                if w == u or w in jumps:
                    jump.append(None if w == u else first[prefix] + jumps[w])
                else:
                    col[rows.setdefault((prefix, w), len(rows))] = sign
                    jump.append(~rows[prefix, w])
                if col:
                    cols[start[qid] + len(jump) - 1] = col
            faces.extend(zip(*codes, jump, repeat(qid, k)))
        return faces, start, cols, len(rows)

    def _coords(self, n: int, vec: dict) -> Optional[dict]:
        """`solve` in the degree-n echelon, read off if every row of vec is a unit row."""
        try:
            return dict(sorted(zip(map(self._units[n].__getitem__, vec), vec.values())))
        except KeyError:
            return self._echelons[n].solve(vec)

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
        index = self.path_index.get(n)
        if index is None:
            index = self.path_index[n] = {p: i for i, p in enumerate(self.allowed[n])}
        try:
            vec = {index[path]: coeff for path, coeff in terms.items()}
        except KeyError:  # a path that is not allowed
            return None
        return self._coords(n, vec)

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

"""Chain complexes over Z, homology with generators, maps of homology
groups, complex pairs, and long-exact-sequence machinery, with everything
that path and cubical homology share: formal-sum chains, the complex of a
digraph with its homology and classes, the pair of a digraph and a
subdigraph, and `Theory`, each theory's entry points written once.

A `Theory` is a `DigraphComplex` class and a chain-level `suspend`; its
suspension homomorphism E: H_n(x) -> H_{n+1}(Sx) (reduced at n = 0) is
the class of each source generator's suspension cycle.  The long exact
sequence route through the cone pairs, `suspension_composite`, computes
the same map independently and is kept as its oracle.

A chain complex stores, per degree, an ordered generator basis and the
boundary as sparse columns into the previous degree.  Homology groups are
computed with explicit generator representatives so that induced maps
(inclusions, quotients, connecting homomorphisms, comparison maps) come
out as honest integer matrices in fixed coordinates.

A complex pair splits each degree by the `Cokernel` of its inclusion
columns and solves sub coordinates through their `extended_echelon`.
"""

from __future__ import annotations

from collections import ChainMap, defaultdict
from copy import copy
from functools import cached_property, lru_cache, partial, wraps
from typing import Callable, Optional, Sequence

from .digraphs import require_subdigraph, suspension
from .intlinalg import (
    AbelianGroup,
    Cokernel,
    Echelon,
    IntMatrix,
    NotASublatticeError,
    combination,
    extended_echelon,
    kernel_echelon,
    vec_addmul,
)


class BoundExceededError(ValueError):
    """A degree holds more paths or cubes than its theory's bound."""


class BoundaryNotSquareZeroError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class LiftFailureError(RuntimeError):
    pass


class NotACycleError(ValueError):
    pass


class Chain:
    """Integer formal sum of terms of one degree: `terms` maps each term to
    a nonzero coefficient.  A theory names its terms by `_term`, which
    normalises one term and checks it against the degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Optional[dict] = None):
        self.degree = degree
        self.terms: dict = {}
        if terms:
            for term, coeff in terms.items():
                if coeff:
                    term = self._term(term)
                    self.terms[term] = self.terms.get(term, 0) + coeff
            self.terms = {t: c for t, c in self.terms.items() if c}

    def _term(self, term):
        return term

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        merged = dict(self.terms)
        for t, c in other.terms.items():
            merged[t] = merged.get(t, 0) + c
        return type(self)(self.degree, merged)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def scale(self, k: int) -> "Chain":
        return type(self)(self.degree, {t: k * c for t, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))


class Reducible:
    """Mixin: `reduced` is a shallow copy that shares all state, growth
    included, but reads each attribute in `_complexes` as its `reduced`."""

    _complexes = ("complex",)

    @cached_property
    def reduced(self):
        view = copy(self)
        for name in self._complexes:
            setattr(view, name, getattr(self, name).reduced)
        return view


class ChainComplex:
    """Non-negatively indexed complex of free Z-modules (degree -1 allowed
    for augmentations).  `boundary_cols[n][j]` is the sparse boundary of
    the j-th degree-n generator, a dict {index in degree n-1: coefficient}.

    With a `grow` callback the complex is built on demand (`add_degree`),
    and `homology(n)` grows it to degree n + 1 first.  `reduced` is the
    augmented complex, a view sharing every degree of this one.
    """

    def __init__(self, degrees: dict[int, list], boundary_cols: dict[int, list], grow=None):
        self.degrees: dict[int, list] = {}
        self.boundary_cols: dict[int, list] = {}
        for n in sorted(degrees):
            self.add_degree(n, list(degrees[n]), [dict(c) for c in boundary_cols[n]])
        self._grow = grow
        self._homology: dict[int, HomologyData] = {}

    def add_degree(self, n: int, basis: list, cols: list) -> None:
        """Add degree n: its generators and their boundary columns, which
        must hit the rows of degree n - 1."""
        if len(cols) != len(basis):
            raise DimensionMismatchError(f"boundary at degree {n} has wrong column count")
        below = self.dim(n - 1)
        for col in cols:
            if col and not (0 <= min(col) and max(col) < below):
                raise DimensionMismatchError(f"boundary at degree {n} hits a bad row")
        self.degrees[n] = basis
        self.boundary_cols[n] = cols

    def grow(self, d: int) -> None:
        """Build every degree up to d, if this complex is built on demand."""
        if self._grow is not None and d not in self.degrees:
            self._grow(d)

    @cached_property
    def reduced(self) -> "ChainComplex":
        return _Augmented(self)

    def dim(self, n: int) -> int:
        return len(self.degrees.get(n, ()))

    def boundary_of(self, n: int, vec: dict) -> dict:
        """Boundary of a degree-n chain given as a sparse coordinate dict."""
        cols = self.boundary_cols.get(n)
        return combination(cols, vec) if cols else {}

    def check_square_zero(self) -> None:
        for n in sorted(self.boundary_cols):
            if n - 1 not in self.boundary_cols:
                continue
            for j, col in enumerate(self.boundary_cols[n]):
                if self.boundary_of(n - 1, col):
                    raise BoundaryNotSquareZeroError(
                        f"boundary squared is nonzero on degree-{n} generator {j}"
                    )

    def homology(self, n: int) -> "HomologyData":
        if n not in self._homology:
            self.grow(n + 1)
            self._homology[n] = HomologyData(self, n)
        return self._homology[n]

    def class_of(self, n: int, vec: dict) -> "HomologyClass":
        """Class of a degree-n cycle given as a sparse coordinate dict."""
        hd = self.homology(n)
        return HomologyClass(hd.group, hd.class_vector(vec))


class _Augmented(ChainComplex):
    """`base` augmented to Z in degree -1, every degree-0 generator going
    to 1.  Degrees >= 0 are read live from `base` as it grows; only the
    degree-0 boundary and the homology below degree 1 are its own."""

    def __init__(self, base: ChainComplex):
        base.grow(0)
        self.base = base
        self.degrees = ChainMap({-1: ["*"]}, base.degrees)
        augmentation = [{0: 1} for _ in range(base.dim(0))]
        self.boundary_cols = ChainMap({-1: [{}], 0: augmentation}, base.boundary_cols)
        self._grow = base.grow
        self._homology = {}

    def add_degree(self, n: int, basis: list, cols: list) -> None:
        self.base.add_degree(n, basis, cols)

    def homology(self, n: int) -> "HomologyData":
        return self.base.homology(n) if n > 0 else super().homology(n)


class HomologyData:
    """Homology of a complex at one degree, with chosen generators.

    Generators are ordered torsion part first (divisors increasing), then
    the free part.  `class_vector` expresses any cycle in these
    coordinates, reducing torsion coordinates into [0, d).
    """

    def __init__(self, complex: ChainComplex, n: int):
        self.complex = complex
        self.n = n
        self._kernel = kernel_echelon(complex.boundary_cols.get(n, []), complex.dim(n - 1))
        self._kernel_basis = self._kernel.basis_vectors()

        image = Echelon()
        for col in complex.boundary_cols.get(n + 1, []):
            if col:
                image.add(col)
        relations = []
        for w in image.basis_vectors():
            y = self._kernel.solve(w)
            if y is None:
                raise BoundaryNotSquareZeroError(
                    f"image at degree {n} does not lie in the kernel"
                )
            relations.append(y)
        self._quotient = Cokernel(len(self._kernel_basis), relations)
        self.group = self._quotient.group

    @property
    def n_generators(self) -> int:
        return self.group.n_generators

    def representative(self, j: int) -> dict:
        """Chain-level representative of the j-th homology generator."""
        return combination(self._kernel_basis, self._quotient.generators[j])

    def class_vector(self, vec: dict) -> tuple[int, ...]:
        """Coordinates of a cycle's class in the chosen generators."""
        y = self._kernel.solve(vec)
        if y is None:
            raise NotACycleError(f"chain is not a cycle in degree {self.n}")
        return self._quotient.coords(y)


class HomologyClass:
    """An element of a homology group in generator coordinates."""

    __slots__ = ("group", "coords")

    def __init__(self, group: AbelianGroup, coords: Sequence[int]):
        if len(coords) != group.n_generators:
            raise DimensionMismatchError("coordinate length mismatch")
        self.group = group
        self.coords = _reduce_coords(group, coords)

    def __eq__(self, other):
        if not isinstance(other, HomologyClass):
            return NotImplemented
        return self.group == other.group and self.coords == other.coords

    def __hash__(self):
        return hash((self.group, self.coords))

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        if self.group != other.group:
            raise DimensionMismatchError("classes live in different groups")
        return HomologyClass(self.group, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.group, [-a for a in self.coords])

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        return self + (-other)

    def scale(self, k: int) -> "HomologyClass":
        return HomologyClass(self.group, [k * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __repr__(self):
        return f"HomologyClass({self.coords} in {self.group})"


def _reduce_coords(group: AbelianGroup, coords: Sequence[int]) -> tuple[int, ...]:
    out = list(coords)
    for i, d in enumerate(group.torsion):
        out[i] %= d
    return tuple(out)


def _relations(group: AbelianGroup) -> list[dict]:
    """The torsion relations d * e_i of a presented group, as sparse vectors."""
    return [{i: d} for i, d in enumerate(group.torsion)]


class GroupMap:
    """Homomorphism between presented abelian groups as an integer matrix.

    Columns are images of source generators, in target-generator
    coordinates (torsion generators first).  Columns are normalized by
    reducing torsion coordinates mod d.
    """

    def __init__(self, source: AbelianGroup, target: AbelianGroup, matrix: IntMatrix):
        if matrix.shape != (target.n_generators, source.n_generators):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match "
                f"{target.n_generators}x{source.n_generators}"
            )
        cols = [_reduce_coords(target, matrix.column(j)) for j in range(matrix.cols)]
        self.source = source
        self.target = target
        self.matrix = IntMatrix.from_cols(cols, rows=target.n_generators)
        self._check_well_defined()

    def _check_well_defined(self):
        for i, d in enumerate(self.source.torsion):
            col = [d * x for x in self.matrix.column(i)]
            if any(x != 0 for x in _reduce_coords(self.target, col)):
                raise ValueError("matrix does not respect source torsion relations")

    @staticmethod
    def zero(source: AbelianGroup, target: AbelianGroup) -> "GroupMap":
        return GroupMap(
            source, target, IntMatrix.zeros(target.n_generators, source.n_generators)
        )

    @staticmethod
    def identity(group: AbelianGroup) -> "GroupMap":
        return GroupMap(group, group, IntMatrix.identity(group.n_generators))

    def __call__(self, cls: HomologyClass) -> HomologyClass:
        if cls.group != self.source:
            raise DimensionMismatchError("class not in the source group")
        return HomologyClass(self.target, self.matrix.apply(cls.coords))

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other."""
        if other.target != self.source:
            raise DimensionMismatchError("composition mismatch")
        return GroupMap(other.source, self.target, self.matrix @ other.matrix)

    def __eq__(self, other):
        if not isinstance(other, GroupMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def _presentation_cols(self) -> list[dict]:
        """Sparse generators in Z^{target gens} of the image subgroup's
        preimage lattice: the image columns, then the target relations."""
        cols = [{i: x for i, x in enumerate(c) if x} for c in self.matrix.columns()]
        return cols + _relations(self.target)

    def _kernel_cols(self) -> list[dict]:
        """Sparse generators in Z^{source gens} of the kernel subgroup's
        preimage lattice: the source part of each kernel vector of the
        presentation, then the source relations."""
        s = self.source.n_generators
        kernel = kernel_echelon(self._presentation_cols(), self.target.n_generators)
        cols = [{i: x for i, x in vec.items() if i < s} for vec in kernel.basis_vectors()]
        return cols + _relations(self.source)

    def inverse(self) -> "GroupMap":
        """Inverse homomorphism; raises if this map is not an isomorphism."""
        s = self.source.n_generators
        t = self.target.n_generators
        presentation = extended_echelon(self._presentation_cols(), t)
        cols = []
        for j in range(t):
            sol = presentation.preimage({j: 1}, t)
            if sol is None:
                raise ValueError("map is not surjective; cannot invert")
            cols.append([sol.get(i, 0) for i in range(s)])
        inv = GroupMap(self.target, self.source, IntMatrix.from_cols(cols, rows=s))
        if inv.compose(self) != GroupMap.identity(self.source):
            raise ValueError("map is not injective; cannot invert")
        return inv


def verify_exactness(maps: Sequence[GroupMap]) -> bool:
    """True iff image equals kernel at every interior node of the sequence:
    each of the two preimage lattices contains the other's echelon basis
    (an `Echelon` is not a canonical form, so the bases are not compared)."""
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise DimensionMismatchError("consecutive maps are not composable")
        image, kernel = Echelon(), Echelon()
        for v in f._presentation_cols():
            image.add(v)
        for v in g._kernel_cols():
            kernel.add(v)
        if not (
            all(map(kernel.contains, image.basis_vectors()))
            and all(map(image.contains, kernel.basis_vectors()))
        ):
            return False
    return True


def hom_map(
    source: HomologyData, target: HomologyData, images: Sequence[dict]
) -> GroupMap:
    """GroupMap whose j-th column is the class of images[j] in the target."""
    if len(images) != source.n_generators:
        raise DimensionMismatchError("one image chain per source generator required")
    cols = [target.class_vector(img) for img in images]
    return GroupMap(
        source.group,
        target.group,
        IntMatrix.from_cols(cols, rows=target.group.n_generators),
    )


class ChainComplexPair(Reducible):
    """A subcomplex inclusion with the induced quotient complex and the
    three families of long-exact-sequence maps, grown with the complexes.

    `inclusion_cols(n)` expresses the degree-n sub basis in ambient
    coordinates.  The embedded sub lattice must be saturated degreewise
    (true for coordinate subcomplexes and saturated path lattices), or
    NotASublatticeError is raised.  `reduced`, the pair of the reduced
    complexes, shares the quotient (their augmentations agree).
    """

    _complexes = ("ambient", "sub")

    def __init__(self, ambient: ChainComplex, sub: ChainComplex, inclusion_cols: Callable):
        self.ambient = ambient
        self.sub = sub
        self._inclusion_cols = inclusion_cols
        self._adapters: dict[int, _DegreeAdapter] = {}
        self.quotient = ChainComplex({}, {}, self.grow)

    def grow(self, d: int) -> None:
        """Build the adapters and quotient degrees up to d (or to the
        ambient's top degree, if it does not grow)."""
        self.ambient.grow(d)
        self.sub.grow(d)
        for n in range(len(self._adapters), d + 1):
            if n not in self.ambient.degrees:
                break
            cols = self._inclusion_cols(n)
            if len(cols) != self.sub.dim(n):
                raise DimensionMismatchError(f"inclusion at degree {n} has wrong column count")
            ad = self._adapters[n] = _DegreeAdapter(self.ambient.dim(n), cols)
            below = self._adapters.get(n - 1)
            q_cols = [
                below.quotient_coords(col) if below else {}
                for col in ad.section_boundaries(self.ambient, n)
            ]
            self.quotient.add_degree(n, [f"q{n}:{j}" for j in range(ad.quot_dim)], q_cols)

    def _adapter(self, n: int) -> "_DegreeAdapter":
        if n not in self._adapters:
            self.grow(n)
        return self._adapters[n]

    def sub_chain_to_ambient(self, n: int, vec: dict) -> dict:
        return combination(self._adapter(n).inclusion_cols, vec)

    def ambient_chain_to_quotient(self, n: int, vec: dict) -> dict:
        return self._adapter(n).quotient_coords(vec)

    def quotient_section(self, n: int, vec: dict) -> dict:
        return combination(self._adapter(n).sections, vec)

    def quotient_class(self, n: int, vec: dict) -> HomologyClass:
        """Class in H_n(quotient) of an ambient chain that is a relative cycle."""
        return self.quotient.class_of(n, self.ambient_chain_to_quotient(n, vec))

    def ambient_chain_to_sub(self, n: int, vec: dict) -> dict:
        sub_vec = self._adapter(n).sub_coords(vec)
        if sub_vec is None:
            raise LiftFailureError(f"chain at degree {n} does not lie in the subcomplex")
        return sub_vec

    def inclusion_map(self, n: int) -> GroupMap:
        hd_sub = self.sub.homology(n)
        hd_amb = self.ambient.homology(n)
        images = [
            self.sub_chain_to_ambient(n, hd_sub.representative(j))
            for j in range(hd_sub.n_generators)
        ]
        return hom_map(hd_sub, hd_amb, images)

    def quotient_map(self, n: int) -> GroupMap:
        hd_amb = self.ambient.homology(n)
        hd_quot = self.quotient.homology(n)
        images = [
            self.ambient_chain_to_quotient(n, hd_amb.representative(j))
            for j in range(hd_amb.n_generators)
        ]
        return hom_map(hd_amb, hd_quot, images)

    def connecting_map(self, n: int, lift_perturbation: Optional[Callable] = None) -> GroupMap:
        """H_n(quotient) -> H_{n-1}(sub): lift, take the ambient boundary,
        express in the subcomplex.  `lift_perturbation(j)` may return a
        degree-n sub chain to add to the canonical lift of generator j
        (the induced map must not change; used to test lift independence).
        """
        hd_quot = self.quotient.homology(n)
        hd_sub = self.sub.homology(n - 1)
        images = []
        for j in range(hd_quot.n_generators):
            lift = self.quotient_section(n, hd_quot.representative(j))
            if lift_perturbation is not None:
                extra = lift_perturbation(j)
                if extra:
                    vec_addmul(lift, self.sub_chain_to_ambient(n, extra), 1)
            bound = self.ambient.boundary_of(n, lift)
            images.append(self.ambient_chain_to_sub(n - 1, bound))
        return hom_map(hd_quot, hd_sub, images)

    def les_maps(self, maxdeg: int) -> list[GroupMap]:
        """[i_m, q_m, xi_m, i_{m-1}, ..., i_0, q_0, 0] ready for
        verify_exactness; the terminal zero map checks q_0 surjectivity."""
        maps: list[GroupMap] = []
        for n in range(maxdeg, -1, -1):
            maps.append(self.inclusion_map(n))
            maps.append(self.quotient_map(n))
            if n > 0:
                maps.append(self.connecting_map(n))
        maps.append(GroupMap.zero(self.quotient.homology(0).group, AbelianGroup(0)))
        return maps


class DigraphComplex(Reducible):
    """The chain complex of a digraph in one homology theory, grown on
    demand.  A theory gives `grow(maxdeg)`, which builds `complex` (the
    ChainComplex in its basis coordinates), `chain_vector(chain)` ->
    (degree, coordinates), its inverse `coords_to_chain(n, vec)`,
    `inclusion_cols(sub, n)`: the degree-n basis of `sub`, the complex of a
    subdigraph, in these coordinates, and `cube_coords(n, values)`: the
    coordinates of one singular n-cube of the digraph, given by its values
    tuple.  `reduced` is the same complex augmented in degree -1.

    `cube_tables[n]` keeps `cube_coords` of every n-cube read so far, as
    {values tuple: coordinates}; it is filled by its readers, lives and
    dies with the complex, and is shared by the `reduced` view."""

    def __init__(self, g):
        self.digraph = g
        self.complex = ChainComplex({}, {}, self.grow)
        self.cube_tables: defaultdict[int, dict[tuple, dict]] = defaultdict(dict)

    def homology(self, n: int) -> AbelianGroup:
        return self.complex.homology(n).group

    def class_of(self, chain: Chain) -> HomologyClass:
        """Class of a cycle given as a chain of the theory."""
        return self.complex.class_of(*self.chain_vector(chain))


class DigraphPair(Reducible):
    """The complexes of a digraph and of a subdigraph in one theory, with
    the subdigraph's complex as a subcomplex (`pair`); it grows with the
    two complexes.  `reduced` pairs the reduced complexes and shares the
    quotient."""

    _complexes = ("ambient", "sub", "pair")

    def __init__(self, ambient: DigraphComplex, sub: DigraphComplex):
        require_subdigraph(sub.digraph, ambient.digraph)
        self.ambient = ambient
        self.sub = sub
        self.pair = ChainComplexPair(
            ambient.complex, sub.complex, partial(ambient.inclusion_cols, sub)
        )

    def homology(self, n: int) -> AbelianGroup:
        """The relative group H_n(ambient, sub)."""
        return self.pair.quotient.homology(n).group

    def quotient_class(self, chain: Chain) -> HomologyClass:
        """Relative class of an ambient chain that is a relative cycle."""
        return self.pair.quotient_class(*self.ambient.chain_vector(chain))


CACHE_SIZE = 64


class Theory:
    """One homology theory of digraphs, written once for both: a
    `DigraphComplex` class and its chain-level suspension
    `suspend(z, sx, apex_a, apex_b)`, which takes a degree-n chain z of x
    to the degree-(n + 1) chain of the suspension sx of x, unchecked.

    `names` gives the theory's public names of `build_complex`,
    `build_pair`, `homology`, `suspension_cycle` and `suspension_map`, in
    that order; each is bound once, as a function of that name in the
    module of `complex_cls`.  It keeps the last `CACHE_SIZE` complexes, one
    per digraph, and the last `CACHE_SIZE` pairs, one per pair of cached
    complexes, so a pair always holds the cached complexes of its digraphs;
    `build_complex` and `build_pair` carry their cache's `cache_info` and
    `cache_clear`.
    """

    def __init__(self, complex_cls: type, suspend: Callable, names: str):
        self.suspend = suspend
        self._complexes = lru_cache(maxsize=CACHE_SIZE)(complex_cls)
        self._pairs = lru_cache(maxsize=CACHE_SIZE)(DigraphPair)
        methods = ("build_complex", "build_pair", "homology", "suspension_cycle", "suspension_map")
        for method, name in zip(methods, names.split(), strict=True):
            setattr(self, method, _entry_point(getattr(self, method), name, complex_cls.__module__))
        for builder, cache in ((self.build_complex, self._complexes), (self.build_pair, self._pairs)):
            builder.cache_info, builder.cache_clear = cache.cache_info, cache.cache_clear

    def build_complex(self, g, maxdeg: int, reduced: bool = False) -> DigraphComplex:
        """The complex of g (one per digraph, cached) grown to maxdeg, or its reduced view."""
        c = self._complexes(g)
        c.complex.grow(maxdeg)
        return c.reduced if reduced else c

    def build_pair(self, g, a, maxdeg: int, reduced: bool = False) -> DigraphPair:
        """The pair (g, a) (one per pair, cached) grown to maxdeg, or its reduced view."""
        pair = self._pairs(self._complexes(g), self._complexes(a))
        pair.pair.grow(maxdeg)
        return pair.reduced if reduced else pair

    def homology(self, g, n: int, relative_to=None, reduced: bool = False) -> AbelianGroup:
        """H_n(g) or H_n(g, relative_to) over the integers."""
        if n < 0:
            raise ValueError("negative degree")
        if relative_to is None:
            return self.build_complex(g, n + 1, reduced).homology(n)
        return self.build_pair(g, relative_to, n + 1, reduced).homology(n)

    def suspension_cycle(self, z: Chain, x, apex_a="+a", apex_b="+b") -> Chain:
        """The chain-level suspension of a degree-n cycle z of x (reduced at
        n = 0), verified to be a cycle of the suspension; its class is the
        suspension map applied to [z].  `NotACycleError` if z is not a
        chain of x or not a cycle."""
        n = z.degree
        cx = self.build_complex(x, n, n == 0)
        if cx.complex.boundary_of(n, cx.chain_vector(z)[1]):
            raise NotACycleError(f"chain is not a cycle in degree {n}")
        sx = suspension(x, apex_a, apex_b)
        out = self.suspend(z, sx, apex_a, apex_b)
        csx = self.build_complex(sx, n + 1)
        if csx.complex.boundary_of(n + 1, csx.chain_vector(out)[1]):
            raise AssertionError("suspension cycle has nonzero boundary")
        return out

    def suspension_map(self, x, n: int, apex_a="+a", apex_b="+b") -> GroupMap:
        """The suspension homomorphism H_n(x) -> H_{n+1}(Sx), reduced at
        n = 0: the j-th column is the class of the suspension of z_j, where
        z_j represents the j-th generator of the source.  `chain_vector`
        raises if a suspended cycle leaves the chains of Sx, and `hom_map`
        if it is not a cycle there."""
        sx = suspension(x, apex_a, apex_b)
        cx = self.build_complex(x, n + 1, n == 0)
        csx = self.build_complex(sx, n + 2)
        source, target = cx.complex.homology(n), csx.complex.homology(n + 1)
        images = []
        for j in range(source.n_generators):
            z = cx.coords_to_chain(n, source.representative(j))
            images.append(csx.chain_vector(self.suspend(z, sx, apex_a, apex_b))[1])
        return hom_map(source, target, images)


def _entry_point(method: Callable, name: str, module: str) -> Callable:
    """`method` as a function called `name` in `module`."""

    @wraps(method)
    def entry(*args, **kwargs):
        return method(*args, **kwargs)

    entry.__name__ = entry.__qualname__ = name
    entry.__module__ = module
    return entry


def suspension_composite(cone_pair: DigraphPair, susp_pair: DigraphPair, n: int) -> GroupMap:
    """The suspension homomorphism H_n(x) -> H_{n+1}(Sx) as
    (quotient map)^-1 after (pair map) after (connecting map)^-1, through
    the cone pair (C^+x, x) and the suspension pair (Sx, C^-x).  The pair
    map is induced by the inclusion of C^+x into Sx, read through chains.
    It never reads a suspension cycle, so it checks `Theory.suspension_map`.

    At n = 0 the connecting map is only invertible against the augmented
    degree-0 group, so the composite runs through the reduced pairs and
    its source is the reduced group there."""
    if n == 0:
        cone_pair, susp_pair = cone_pair.reduced, susp_pair.reduced
    cone, susp, k = cone_pair.pair, susp_pair.pair, n + 1
    xi = cone.connecting_map(k)
    hd_cone, hd_susp = cone.quotient.homology(k), susp.quotient.homology(k)
    images = []
    for j in range(hd_cone.n_generators):
        lift = cone.quotient_section(k, hd_cone.representative(j))
        _, vec = susp_pair.ambient.chain_vector(cone_pair.ambient.coords_to_chain(k, lift))
        images.append(susp.ambient_chain_to_quotient(k, vec))
    incl = hom_map(hd_cone, hd_susp, images)
    q = susp.quotient_map(k)
    return q.inverse().compose(incl).compose(xi.inverse())


def homology_of(c: ChainComplex, n: int) -> AbelianGroup:
    """Homology group at degree n; checks boundary-squared-zero first."""
    c.check_square_zero()
    return c.homology(n).group


class _DegreeAdapter:
    """Coordinate bridge for one degree of a complex pair.

    The quotient Z^ambient / sub is the `Cokernel` of the inclusion
    columns (kept as given): its generators are the sections, its
    coordinates the quotient coordinates, and it must be free of rank
    ambient - sub.  Sub coordinates are solved through the columns'
    `extended_echelon`, built when a connecting map first needs it.  With
    unit inclusion columns both coordinate maps are projections.
    """

    def __init__(self, ambient_dim: int, inclusion_cols: list):
        self.ambient_dim = ambient_dim
        self.sub_dim = len(inclusion_cols)
        self.inclusion_cols = inclusion_cols
        quotient = Cokernel(ambient_dim, inclusion_cols)
        if quotient.group.torsion or quotient.group.rank != ambient_dim - self.sub_dim:
            raise NotASublatticeError("subcomplex is not a saturated degreewise sublattice")
        self.quot_dim = quotient.group.rank
        self.sections = quotient.generators
        self.quotient_coords = quotient.sparse_coords

    @cached_property
    def _sub_echelon(self) -> Echelon:
        return extended_echelon(self.inclusion_cols, self.ambient_dim)

    def section_boundaries(self, ambient: ChainComplex, n: int) -> list[dict]:
        """Ambient boundaries of the sections; a unit section's is the shared column."""
        cols = ambient.boundary_cols.get(n, ())
        return [
            cols[min(v)] if len(v) == 1 and 1 in v.values() else ambient.boundary_of(n, v)
            for v in self.sections
        ]

    def sub_coords(self, vec: dict) -> Optional[dict]:
        return self._sub_echelon.preimage(vec, self.ambient_dim)

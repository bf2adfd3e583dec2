import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_homology import chains
from digraph_homology.chains import (
    CACHE_SIZE,
    BoundaryNotSquareZeroError,
    ChainComplex,
    ChainComplexPair,
    DimensionMismatchError,
    GroupMap,
    HomologyClass,
    NotACycleError,
    homology_of,
    suspension_composite,
    verify_exactness,
)
from digraph_homology.cubes import (
    CubicalChain,
    CubicalComplex,
    SingularCube,
    build_cubical_complex,
    build_cubical_pair,
    cubical_suspension_cycle,
    cubical_suspension_map,
)
from digraph_homology.digraphs import box_product, build_digraph, cone, cycle_digraph, suspension
from digraph_homology.intlinalg import (
    AbelianGroup,
    Cokernel,
    Echelon,
    IntMatrix,
    NotASublatticeError,
    _snf_full,
    kernel_echelon,
    vec_addmul,
)
from digraph_homology.paths import (
    OmegaComplex,
    PathChain,
    build_omega_complex,
    build_omega_pair,
    path_homology,
    path_suspension_map,
    suspension_cycle,
)
from digraph_homology.randomgen import random_digraph
from oracles import Lattice, quotient_group, random_unimodular


def two_step(matrix_entries):
    """Complex 0 -> Z^k -> Z^m -> 0 concentrated in degrees 1, 0."""
    rows = len(matrix_entries)
    cols = len(matrix_entries[0]) if rows else 0
    return ChainComplex(
        {0: [f"e{i}" for i in range(rows)], 1: [f"f{j}" for j in range(cols)]},
        {
            0: [{} for _ in range(rows)],
            1: [
                {i: matrix_entries[i][j] for i in range(rows) if matrix_entries[i][j]}
                for j in range(cols)
            ],
        },
    )


def test_homology_examples():
    # identity map: everything dies
    c = two_step([[1]])
    assert homology_of(c, 0) == AbelianGroup(0)
    assert homology_of(c, 1) == AbelianGroup(0)

    # multiplication by 2: cokernel Z/2
    c = two_step([[2]])
    assert homology_of(c, 0) == AbelianGroup(0, (2,))

    # no unit entry: the whole relation matrix goes to the dense Smith form
    c = two_step([[2, 0, 0], [0, 4, 0], [0, 0, 0]])
    assert homology_of(c, 0) == AbelianGroup(1, (2, 4))

    # a unit pivot first, then the residual diag(2, 3) with invariant factors 1, 6
    c = two_step([[1, 0, 0], [5, 2, 0], [0, 0, 3]])
    assert homology_of(c, 0) == AbelianGroup(0, (6,))

    # the allowed-chain complex of the 4-cycle at degree 1
    oc = build_omega_complex(cycle_digraph(4), 2)
    assert homology_of(oc.complex, 1) == AbelianGroup(1)


def test_homology_checks_square_zero():
    bad = ChainComplex(
        {0: ["a"], 1: ["b"], 2: ["c"]},
        {0: [{}], 1: [{0: 1}], 2: [{0: 1}]},
    )
    with pytest.raises(BoundaryNotSquareZeroError):
        homology_of(bad, 1)


def test_boundary_columns_must_hit_the_rows_below():
    c = ChainComplex({0: ["a", "b"]}, {0: [{}, {}]})
    for col in ({2: 1}, {-1: 1}, {0: 1, 2: -1}):
        with pytest.raises(DimensionMismatchError, match="^boundary at degree 1 hits a bad row$"):
            c.add_degree(1, ["e"], [col])
    c.add_degree(1, ["e", "f"], [{0: 1, 1: -1}, {}])
    assert c.boundary_cols[1] == [{0: 1, 1: -1}, {}]


def test_homology_invariant_under_unimodular_change_of_basis():
    rng = random.Random(11)
    base = [[2, 0, 4], [0, 6, 6]]
    c = two_step(base)
    reference = homology_of(c, 0)
    m = IntMatrix(base)
    for _ in range(5):
        p = random_unimodular(rng, 2)
        q = random_unimodular(rng, 3)
        changed = (p @ m) @ q
        c2 = two_step([list(r) for r in changed.data])
        assert homology_of(c2, 0) == reference


def test_verify_exactness_examples():
    z = AbelianGroup(1)
    ident = GroupMap.identity(z)
    incl = GroupMap(AbelianGroup(0), z, IntMatrix.zeros(1, 0))
    proj = GroupMap(z, AbelianGroup(0), IntMatrix.zeros(0, 1))
    # 0 -> Z -id-> Z -> 0 is exact at both interior nodes
    assert verify_exactness([incl, ident, proj])
    # 0 -> Z -0-> Z -> 0 is not
    zero = GroupMap.zero(z, z)
    assert not verify_exactness([incl, zero, proj])
    with pytest.raises(DimensionMismatchError):
        verify_exactness([proj, ident])


def test_pair_connecting_map_examples():
    c4 = cycle_digraph(4)
    pair = build_omega_pair(cone(c4, "+a"), c4, 3)
    xi = pair.pair.connecting_map(2)
    # the cone is contractible, so the connecting map onto H_1 is an iso
    assert xi.source == AbelianGroup(1)
    assert xi.target == AbelianGroup(1)
    assert xi.inverse() is not None

    # sub == ambient: the quotient is zero and so is the connecting map
    same = build_omega_pair(c4, c4, 3)
    xi0 = same.pair.connecting_map(2)
    assert xi0.source == AbelianGroup(0)

    # suspension against one cone: H_2 of the pair maps to H_1(cone) = 0,
    # and the quotient map from H_2 of the suspension is an iso
    sx = suspension(c4, "+a", "+b")
    pair2 = build_omega_pair(sx, cone(c4, "+b"), 3)
    xi2 = pair2.pair.connecting_map(2)
    assert xi2.source == AbelianGroup(1) and xi2.target == AbelianGroup(0)
    q2 = pair2.pair.quotient_map(2)
    assert q2.inverse() is not None


def test_connecting_map_independent_of_lift():
    rng = random.Random(5)
    c4 = cycle_digraph(4)
    pair = build_omega_pair(cone(c4, "+a"), c4, 3)
    reference = pair.pair.connecting_map(2)

    def perturb(j):
        dim = pair.pair.sub.dim(2)
        if dim == 0:
            return {}
        return {rng.randrange(dim): rng.randint(-2, 2)}

    for _ in range(5):
        assert pair.pair.connecting_map(2, lift_perturbation=perturb) == reference


def test_les_maps_of_cone_pair_are_exact():
    c4 = cycle_digraph(4)
    pair = build_omega_pair(cone(c4, "+a"), c4, 4)
    assert verify_exactness(pair.pair.les_maps(3))


def test_homology_matches_direct_quotient_oracle():
    # with zero lower boundary, homology is literally Z^m / column span,
    # which quotient_group computes independently of the chain pipeline
    rng = random.Random(37)
    for _ in range(25):
        m = rng.randint(1, 4)
        k = rng.randint(0, 4)
        entries = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        c = two_step(entries)
        got = homology_of(c, 0)
        cols = [tuple(entries[i][j] for i in range(m)) for j in range(k)]
        image = Lattice.from_vectors(m, cols)
        expected = quotient_group(Lattice(m, IntMatrix.identity(m)), image)
        assert got == expected, (entries, got, expected)


@st.composite
def small_complexes(draw):
    """C2 --d2--> C1 --d1--> C0 with d1 random and d2 = K @ A, K a kernel
    basis of d1.  Columns of A are scaled by 1, 2 or 3: a scaled column has
    no unit entry in any basis of the kernel lattice, so the relation
    matrix of H_1 can leave a residual block for the dense Smith form
    after its unit pivots, or be all residual."""
    r0 = draw(st.integers(0, 3))
    c1 = draw(st.integers(0, 5))
    d1 = []
    for _ in range(c1):
        col = {i: draw(st.integers(-2, 2)) for i in range(r0)}
        d1.append({i: x for i, x in col.items() if x})
    kernel = kernel_echelon(d1, r0).basis_vectors()
    c2 = draw(st.integers(0, 4))
    d2 = []
    for _ in range(c2):
        scale = draw(st.sampled_from((1, 1, 2, 3)))
        col: dict = {}
        for vec in kernel:
            vec_addmul(col, vec, scale * draw(st.integers(-3, 3)))
        d2.append(col)
    return ChainComplex(
        {0: [f"a{i}" for i in range(r0)], 1: [f"b{j}" for j in range(c1)], 2: [f"c{j}" for j in range(c2)]},
        {0: [{} for _ in range(r0)], 1: d1, 2: d2},
    )


def _relation_matrix(hd):
    """The relation matrix HomologyData reduces: a basis of the image of
    the boundary into degree n, in coordinates of its kernel basis."""
    c, n = hd.complex, hd.n
    kernel = kernel_echelon(c.boundary_cols.get(n, []), c.dim(n - 1))
    image = Echelon()
    for col in c.boundary_cols.get(n + 1, []):
        if col:
            image.add(col)
    k = len(kernel)
    cols = [kernel.solve(w) for w in image.basis_vectors()]
    return IntMatrix.from_cols([[c.get(i, 0) for i in range(k)] for c in cols], rows=k)


@settings(max_examples=200, deadline=None)
@given(small_complexes(), st.randoms(use_true_random=False))
def test_homology_data_matches_dense_and_sympy_smith_forms(c, rng):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for n in (0, 1, 2):
        hd = c.homology(n)
        rel = _relation_matrix(hd)
        divisors = _snf_full(rel).divisors
        expected = AbelianGroup(rel.rows - len(divisors), tuple(d for d in divisors if d > 1))
        assert hd.group == expected
        if rel.rows and rel.cols:
            factors = invariant_factors(sympy.Matrix(rel.data), domain=sympy.ZZ)
            nonzero = [abs(int(d)) for d in factors if d]
            assert len(nonzero) == len(divisors)
            assert tuple(d for d in nonzero if d > 1) == hd.group.torsion

        g = hd.n_generators
        for j in range(g):
            assert hd.class_vector(hd.representative(j)) == tuple(int(i == j) for i in range(g))
        for col in c.boundary_cols.get(n + 1, []):
            assert hd.class_vector(col) == (0,) * g
        cycles = kernel_echelon(c.boundary_cols[n], c.dim(n - 1)).basis_vectors()
        for _ in range(3):
            a: dict = {}
            b: dict = {}
            for vec in cycles:
                vec_addmul(a, vec, rng.randint(-3, 3))
                vec_addmul(b, vec, rng.randint(-3, 3))
            total = dict(a)
            vec_addmul(total, b, 1)
            sum_of_classes = HomologyClass(hd.group, hd.class_vector(a)) + HomologyClass(
                hd.group, hd.class_vector(b)
            )
            assert HomologyClass(hd.group, hd.class_vector(total)) == sum_of_classes


def test_pair_les_with_torsion():
    # ambient 0 -> Z --2--> Z -> 0, sub the degree-0 line: the quotient has
    # H_1 = Z, the connecting map is multiplication by 2 into H_0(sub) = Z,
    # and H_0(ambient) = Z/2, so exactness exercises torsion bookkeeping
    ambient = ChainComplex({0: ["e"], 1: ["f"]}, {0: [{}], 1: [{0: 2}]})
    sub = ChainComplex({0: ["e"], 1: []}, {0: [{}], 1: []})
    pair = ChainComplexPair(ambient, sub, {0: [{0: 1}], 1: []}.get)
    assert pair.quotient.homology(1).group == AbelianGroup(1)
    assert pair.ambient.homology(0).group == AbelianGroup(0, (2,))
    xi = pair.connecting_map(1)
    assert xi.matrix.data in (((2,),), ((-2,),))
    assert verify_exactness(pair.les_maps(1))


def _digraph(vertices, arrows: str):
    return build_digraph(vertices, [(int(a), int(b)) for a, b in arrows.split()])


def _non_unit_degrees(digraph_pair, top: int) -> list[int]:
    """Degrees whose inclusion columns are not all unit vectors."""
    ambient, sub = digraph_pair.ambient, digraph_pair.sub
    return [
        n
        for n in range(top + 1)
        if any(len(c) != 1 or 1 not in c.values() for c in ambient.inclusion_cols(sub, n))
    ]


@pytest.mark.parametrize(
    "sub_cols",
    [[{0: 2}], [{0: 1, 1: 1}, {0: -1, 1: -1}]],
    ids=["not-saturated", "dependent"],
)
def test_pair_rejects_a_non_sublattice_inclusion(sub_cols):
    ambient = ChainComplex({0: ["e0", "e1"]}, {0: [{}, {}]})
    sub = ChainComplex({0: [f"s{j}" for j in range(len(sub_cols))]}, {0: [{} for _ in sub_cols]})
    pair = ChainComplexPair(ambient, sub, {0: sub_cols}.get)
    with pytest.raises(NotASublatticeError):
        pair.quotient.homology(0)


def test_pair_with_non_unit_inclusion():
    # the sub lattice is saturated but not spanned by ambient basis vectors
    # in degrees 2 and 3; from a seeded search (seed 2316) for such a pair
    # with H_2(G, A) = Z
    g = _digraph(range(6), "01 04 05 13 15 25 30 32 34 35 41 45 52")
    a = _digraph((4, 3, 2, 1, 5, 0), "32 13 52 30 41 15 05 45 34 04 01")
    omega = build_omega_pair(g, a, 4)
    assert _non_unit_degrees(omega, 4) == [2, 3]
    pair = omega.pair
    adapters = pair._adapters
    for n in (2, 3):
        ad = adapters[n]
        for j in range(ad.quot_dim):
            assert pair.ambient_chain_to_quotient(n, pair.quotient_section(n, {j: 1})) == {j: 1}
        for i in range(ad.sub_dim):
            assert pair.ambient_chain_to_sub(n, pair.sub_chain_to_ambient(n, {i: 1})) == {i: 1}
    assert verify_exactness(pair.les_maps(3))

    rng = random.Random(5)
    for n in (1, 2, 3):
        reference = pair.connecting_map(n)

        def perturb(j):
            return {rng.randrange(pair.sub.dim(n)): rng.randint(-2, 2)}

        for _ in range(3):
            assert pair.connecting_map(n, lift_perturbation=perturb) == reference

    # the same sub listed in ambient order gives the same relative groups
    ordered = build_digraph(sorted(a.vertices), sorted(a.arrows))
    groups = [path_homology(g, n, relative_to=a) for n in range(4)]
    assert groups == [path_homology(g, n, relative_to=ordered) for n in range(4)]
    assert groups == [AbelianGroup(0), AbelianGroup(0), AbelianGroup(1), AbelianGroup(0)]


def test_reordered_sub_of_a_box_power_gives_the_same_sequence():
    # C4^□3 and the induced subdigraph off the last coordinate 3; listing
    # the sub's vertices in reverse order makes degrees 2 and 3 non-unit
    c4 = cycle_digraph(4)
    g = box_product(box_product(c4, c4), c4)
    vertices = [v for v in g.vertices if v[1] != 3]
    arrows = [(u, v) for u, v in g.arrows if u[1] != 3 and v[1] != 3]
    ordered = build_digraph(vertices, arrows)
    reversed_ = build_digraph(vertices[::-1], arrows[::-1])
    results = {}
    for name, a in (("ordered", ordered), ("reversed", reversed_)):
        omega = build_omega_pair(g, a, 4)
        groups = [omega.homology(n) for n in range(4)]
        results[name] = (groups, verify_exactness(omega.pair.les_maps(3)))
        assert _non_unit_degrees(omega, 4) == ([] if a is ordered else [2, 3])
    assert results["reversed"] == results["ordered"]
    assert results["ordered"] == ([AbelianGroup(r) for r in (0, 1, 2, 1)], True)


def test_group_map_inverse_roundtrip():
    g = AbelianGroup(1, (3,))
    m = GroupMap(g, g, IntMatrix([[1, 0], [0, 1]]))
    assert m.inverse() == m
    twisted = GroupMap(g, g, IntMatrix([[2, 1], [0, 1]]))
    inv = twisted.inverse()
    assert inv.compose(twisted) == GroupMap.identity(g)
    assert twisted.compose(inv) == GroupMap.identity(g)
    not_iso = GroupMap(AbelianGroup(1), AbelianGroup(1), IntMatrix([[2]]))
    with pytest.raises(ValueError):
        not_iso.inverse()


def test_homology_class_arithmetic():
    g = AbelianGroup(1, (2,))
    a = HomologyClass(g, (1, 1))
    b = HomologyClass(g, (1, 0))
    assert (a + b).coords == (0, 1)
    assert (-a).coords == (1, -1)
    assert a.scale(2).coords == (0, 2)


def rp2_face_poset():
    """The Hasse diagram of the faces of the six-vertex projective plane,
    each face to the faces one dimension up that contain it: H_1 = Z/2."""
    triangles = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    faces = {frozenset(f) for t in triangles for k in (1, 2, 3) for f in combinations(t, k)}
    name = {f: "".join(map(str, sorted(f))) for f in faces}
    ordered = sorted(faces, key=lambda f: (len(f), name[f]))
    arrows = [
        (name[a], name[b]) for a in ordered for b in ordered if a < b and len(b) == len(a) + 1
    ]
    return build_digraph([name[f] for f in ordered], arrows)


def test_suspension_maps_match_the_composite():
    """Both suspension maps, read from suspension cycles, equal the long
    exact sequence composite through the cone pairs, on 40 seeded random
    digraphs (the last 10 with nonzero H_1), the suspension of C4 (H_2 = Z) and
    the face poset of the projective plane (H_1 = Z/2).  No random digraph
    on at most six vertices had torsion in 40,000 draws.  Every theory and
    degree has a nonzero map on a free group, where a flipped sign shows."""
    theories = {
        "path": (path_suspension_map, build_omega_pair, (0, 1, 2)),
        "cubical": (cubical_suspension_map, build_cubical_pair, (0, 1)),
    }
    nonzero = Counter()

    def check(x):
        for theory, (suspension_map, build_pair, degrees) in theories.items():
            for n in degrees:
                cone_pair = build_pair(cone(x, "+a"), x, n + 2)
                susp_pair = build_pair(suspension(x, "+a", "+b"), cone(x, "+b"), n + 2)
                e = suspension_map(x, n)
                assert e == suspension_composite(cone_pair, susp_pair, n), (x, theory, n)
                nonzero[theory, n] += e.source.rank > 0 and not e.is_zero()

    rng = random.Random(12)
    digraphs = [
        random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=2) for _ in range(30)
    ]
    while len(digraphs) < 40:
        x = random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=3)
        if path_homology(x, 1).rank:
            digraphs.append(x)
    digraphs.append(suspension(cycle_digraph(4), "c", "d"))
    for x in digraphs:
        check(x)
    assert all(nonzero[theory, n] for theory, (*_, degrees) in theories.items() for n in degrees)
    rp2 = rp2_face_poset()
    assert path_homology(rp2, 1) == AbelianGroup(0, (2,))
    check(rp2)



def test_homology_takes_the_kernel_on_the_free_cokernel_generators_only(monkeypatch):
    """d_n's kernel is taken only on the generators of C_n / im d_{n+1}
    that are free: dim C_n minus the rank of d_{n+1} columns, not dim C_n."""
    c4 = cycle_digraph(4)
    cube = box_product(box_product(c4, c4), c4)
    widths = []

    def recording(cols, nrows):
        widths.append(len(cols))
        return kernel_echelon(cols, nrows)

    monkeypatch.setattr(chains, "kernel_echelon", recording)
    cases = [
        (OmegaComplex, cube, 1, 66, 192),
        (OmegaComplex, cube, 2, 129, 192),
        (CubicalComplex, suspension(c4), 2, 8, 68),
    ]
    for cls, g, n, free, dim in cases:
        c = cls(g).grow(n + 1).complex
        quotient = Cokernel(c.dim(n), c.boundary_cols[n + 1])
        assert (quotient.group, c.dim(n)) == (AbelianGroup(free), dim)
        widths.clear()
        c.homology(n)
        assert widths == [free], (cls.__name__, n)


@pytest.mark.parametrize("build_complex", [build_omega_complex, build_cubical_complex])
def test_torsion_class_of_the_projective_plane(build_complex):
    hd = build_complex(rp2_face_poset(), 2).complex.homology(1)
    assert hd.group == AbelianGroup(0, (2,))
    rep = hd.representative(0)
    assert rep and not hd.complex.boundary_of(1, rep)
    assert hd.class_vector(rep) == (1,)
    assert hd.class_vector({i: 2 * x for i, x in rep.items()}) == (0,)

# --- the entry points every theory shares ------------------------------------

BUILDERS = {
    "path": (build_omega_complex, build_omega_pair),
    "cubical": (build_cubical_complex, build_cubical_pair),
}


@pytest.mark.parametrize("theory", sorted(BUILDERS))
def test_each_builder_keeps_one_cache(theory):
    build_complex, build_pair = BUILDERS[theory]
    c4 = cycle_digraph(4)
    ambient = cone(c4, "+a")
    for builder, args in ((build_complex, (c4, 2)), (build_pair, (ambient, c4, 2))):
        builder(*args)
        builder.cache_clear()
        assert builder.cache_info().currsize == 0
        first = builder(*args)
        before = builder.cache_info()
        assert builder(*args) is first
        after = builder.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert (after.currsize, after.maxsize) == (1, CACHE_SIZE)
    pair = build_pair(ambient, c4, 2)
    assert pair.ambient is build_complex(ambient, 2)
    assert pair.sub is build_complex(c4, 2)
    # a cached pair holds the cached complexes, also after they are cleared
    build_complex.cache_clear()
    assert build_pair(ambient, c4, 2).sub is build_complex(c4, 2)


def test_suspension_cycle_refuses_what_is_not_a_cycle_in_both_theories():
    c4 = cycle_digraph(4)
    cases = {
        suspension_cycle: (
            PathChain(0, {(0,): 2, (1,): -1}),
            PathChain.single((0, 1)),
            PathChain(1),
        ),
        cubical_suspension_cycle: (
            CubicalChain(0, {SingularCube(0, (0,), c4): 2, SingularCube(0, (1,), c4): -1}),
            CubicalChain(1, {SingularCube(1, (0, 1), c4): 1}),
            CubicalChain(1),
        ),
    }
    for suspend, (nonzero_sum, arrow, zero) in cases.items():
        with pytest.raises(NotACycleError, match="^chain is not a cycle in degree 0$"):
            suspend(nonzero_sum, c4)
        with pytest.raises(NotACycleError, match="^chain is not a cycle in degree 1$"):
            suspend(arrow, c4)
        assert suspend(zero, c4).is_zero()
    with pytest.raises(NotACycleError, match="^chain is not in the allowed-boundary lattice$"):
        suspension_cycle(PathChain.single((0, 2)), c4)

import json
import random
from functools import lru_cache
from itertools import product

import pytest

from digraph_homology import cubes
from digraph_homology.chains import NotACycleError, verify_exactness
from digraph_homology.cli import main
from digraph_homology.cubes import (
    BoundExceededError,
    CubicalChain,
    CubicalComplex,
    IndexOutOfRangeError,
    SingularCube,
    build_cubical_complex,
    build_cubical_pair,
    comparison_L,
    cube_corners,
    cubical_boundary,
    cubical_homology,
    cubical_suspension_cycle,
    cubical_suspension_map,
    enumerate_cubes,
    face,
    iota,
    is_degenerate,
    omega_generator,
)
from digraph_homology.digraphs import (
    box_product,
    build_digraph,
    cone,
    cycle_digraph,
    digraph_from_json,
    digraph_to_json,
    make_grid,
    relabel_to_strings,
    standard_line,
    suspension,
)
from digraph_homology.grids import GridMap, grid_map_to_json, hurewicz_class
from digraph_homology.intlinalg import AbelianGroup
from digraph_homology.paths import (
    PathChain,
    build_omega_complex,
    build_omega_pair,
    path_homology,
    path_suspension_map,
    regular_boundary,
)
from digraph_homology.randomgen import random_digraph
from oracles import connecting_face_formula, is_valid


def brute_force_cubes(g, n):
    """Oracle: all corner assignments satisfying the axis conditions."""
    out = []
    corners = cube_corners(n)
    for vals in product(g.vertices, repeat=2**n):
        ok = True
        for idx, x in enumerate(corners):
            for k in range(n):
                if x[k] == 1:
                    continue
                y = list(x)
                y[k] = 1
                j = corners.index(tuple(y))
                a, b = vals[idx], vals[j]
                if a != b and not g.has_arrow(a, b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(vals)
    return out


def test_enumerate_cubes_counts(monkeypatch):
    c4 = cycle_digraph(4)
    assert len(enumerate_cubes(c4, 0)) == 4
    # 4 constant + 4 arrow cubes, against the brute-force oracle
    cubes1 = enumerate_cubes(c4, 1)
    assert len(cubes1) == 8
    assert len(brute_force_cubes(c4, 1)) == 8

    j1 = build_digraph([0, 1], [(0, 1)])
    cubes2 = enumerate_cubes(j1, 2)
    oracle = brute_force_cubes(j1, 2)
    assert len(cubes2) == len(oracle)
    assert sorted(c.values for c in cubes2) == sorted(oracle)

    # C4 has 4, 8, 24 and 152 singular cubes in degrees 0 to 3
    monkeypatch.setattr(cubes, "CUBE_BOUND", 24)
    assert len(enumerate_cubes(c4, 2)) == 24
    with pytest.raises(BoundExceededError, match="^degree 3 has more than 24 singular cubes$"):
        enumerate_cubes(c4, 3)


def test_face_and_boundary_examples():
    j1 = build_digraph([0, 1], [(0, 1)])
    arrow = SingularCube(1, (0, 1), j1)
    b = cubical_boundary(CubicalChain(1, {arrow: 1}))
    # single axis: sign (-1)^1 on (front - back) = cube(1) - cube(0)
    assert b == CubicalChain(
        0, {SingularCube(0, (1,), j1): 1, SingularCube(0, (0,), j1): -1}
    )

    const = SingularCube(1, (0, 0), j1)
    assert face(const, 1, 0) == face(const, 1, 1)

    with pytest.raises(IndexOutOfRangeError):
        face(arrow, 2, 0)

    c4 = cycle_digraph(4)
    from digraph_homology.digraphs import box_product

    torus = box_product(c4, c4)
    for cube in enumerate_cubes(torus, 2):
        bb = cubical_boundary(cubical_boundary(CubicalChain(2, {cube: 1})))
        assert bb.is_zero()


def test_is_degenerate():
    j1 = build_digraph([0, 1], [(0, 1)])
    assert is_degenerate(SingularCube(1, (0, 0), j1))
    assert not is_degenerate(SingularCube(1, (0, 1), j1))
    # constant along axis 1 only
    sq = SingularCube(2, (0, 0, 1, 1), j1)
    assert is_degenerate(sq)
    assert not is_degenerate(SingularCube(2, (0, 0, 0, 1), j1))


def test_cubical_homology_examples(monkeypatch):
    point = build_digraph([0], [])
    assert cubical_homology(point, 0) == AbelianGroup(1)
    c4 = cycle_digraph(4)
    assert cubical_homology(c4, 0) == AbelianGroup(1)
    # rank >= 1 witnessed through the comparison map below
    h1 = cubical_homology(c4, 1)
    assert h1.rank >= 1
    # H_2 reads degree 3, with 152 singular cubes
    build_cubical_complex.cache_clear()
    monkeypatch.setattr(cubes, "CUBE_BOUND", 151)
    with pytest.raises(BoundExceededError, match="^degree 3 has more than 151 singular cubes$"):
        cubical_homology(c4, 2)


def test_omega_generator_examples():
    assert omega_generator(1).terms == {((0,), (1,)): 1}
    assert omega_generator(2).terms == {
        ((0, 0), (1, 0), (1, 1)): 1,
        ((0, 0), (0, 1), (1, 1)): -1,
    }
    gen3 = omega_generator(3)
    assert len(gen3.terms) == 6

    # oracle: corner-to-corner allowed paths of the unit grid, signed by
    # the inversion count of the coordinate-change sequence
    grid = make_grid([standard_line(1)] * 3)
    start, end = (0, 0, 0), (1, 1, 1)
    paths = []

    def walk(path):
        if path[-1] == end:
            paths.append(tuple(path))
            return
        for w in grid.out_neighbors(path[-1]):
            walk(path + [w])

    walk([start])
    assert len(paths) == 6
    for p in paths:
        changes = []
        for a, b in zip(p, p[1:]):
            changes.append(next(k for k in range(3) if a[k] != b[k]))
        inv = sum(
            1
            for i in range(len(changes))
            for j in range(i + 1, len(changes))
            if changes[i] > changes[j]
        )
        assert gen3.terms[p] == (-1) ** inv


def test_omega_generator_spans_unit_grid_lattice():
    for n in (1, 2, 3):
        grid = make_grid([standard_line(1)] * n)
        oc = build_omega_complex(grid, n)
        assert oc.rank(n) == 1
        coords = oc.lattice_coords(omega_generator(n))
        assert coords is not None and tuple(coords.values()) in ((1,), (-1,))


def test_iota_examples():
    j1 = build_digraph([0, 1], [(0, 1)])
    ident = SingularCube(1, (0, 1), j1)
    assert iota(ident).terms == {(0, 1): 1}

    const = SingularCube(2, (0, 0, 0, 0), j1)
    assert iota(const).is_zero()

    c4 = cycle_digraph(4)
    from digraph_homology.digraphs import box_product

    torus = box_product(c4, c4)
    corner = SingularCube(
        2, ((0, 0), (0, 1), (1, 0), (1, 1)), torus
    )
    pc = iota(corner)
    assert len(pc.terms) == 2
    oc = build_omega_complex(torus, 2)
    assert oc.lattice_coords(pc) is not None


def test_iota_is_chain_map_and_lands_in_lattice():
    rng = random.Random(77)
    for _ in range(6):
        g = random_digraph(rng, max_vertices=5, max_arrows=8)
        oc = build_omega_complex(g, 3)
        for n in (1, 2, 3):
            for cube in enumerate_cubes(g, n):
                ch = CubicalChain(n, {cube: 1})
                assert iota(cubical_boundary(ch)) == regular_boundary(iota(ch))
                assert oc.lattice_coords(iota(ch)) is not None


# --- per-corner reference definitions -----------------------------------------
# The library reads faces, degeneracy and iota images from precomputed index
# tables; these are the direct per-corner definitions they must agree with.


def reference_cubes(g, n):
    """Singular n-cubes by backtracking, each corner constrained by its
    lower neighbours along every axis; binary-counter order."""
    verts = list(g.vertices)
    succ = {v: (v,) + g.out_neighbors(v) for v in verts}
    out, values = [], [None] * 2**n

    def fill(idx):
        if idx == 2**n:
            out.append(SingularCube(n, tuple(values), g))
            return
        cands = None
        for k in range(n):
            bit = 1 << (n - 1 - k)
            if idx & bit:
                allow = succ[values[idx ^ bit]]
                cands = allow if cands is None else [v for v in cands if v in allow]
        for v in verts if cands is None else cands:
            values[idx] = v
            fill(idx + 1)

    fill(0)
    return out


@lru_cache(maxsize=None)
def reference_corners(n):
    return cube_corners(n)


def reference_face(c, i, k):
    vals = [c.corner(x[: i - 1] + (k,) + x[i - 1 :]) for x in reference_corners(c.dim - 1)]
    return SingularCube(c.dim - 1, tuple(vals), c.target)


def reference_is_degenerate(c):
    n = c.dim
    for k in range(n):
        bit = 1 << (n - 1 - k)
        if all(c.values[idx] == c.values[idx | bit] for idx in range(2**n) if not idx & bit):
            return True
    return False


def reference_iota(c):
    terms = {}
    for path, sign in omega_generator(c.dim).terms.items():
        image = tuple(c.corner(x) for x in path)
        if all(a != b for a, b in zip(image, image[1:])):
            terms[image] = terms.get(image, 0) + sign
    return PathChain(c.dim, terms)


def reference_boundary(c):
    """Sum over i of (-1)^i (front face - back face)."""
    terms = {}
    for i in range(1, c.dim + 1):
        for k, sign in ((0, (-1) ** i), (1, -((-1) ** i))):
            f = reference_face(c, i, k)
            terms[f] = terms.get(f, 0) + sign
    return CubicalChain(c.dim - 1, terms)


def differential_digraphs():
    rng = random.Random(41)
    gs = [cycle_digraph(4), build_digraph([0, 1], [(0, 1)]), build_digraph([0], [])]
    gs += [random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=2) for _ in range(5)]
    return gs


def test_index_tables_match_per_corner_definitions():
    for g in differential_digraphs():
        for n in range(4):
            cubes = enumerate_cubes(g, n)
            assert cubes == reference_cubes(g, n)
            for c in cubes:
                assert is_valid(c)
                assert is_degenerate(c) == reference_is_degenerate(c)
                assert iota(c) == reference_iota(c)
                for i in range(1, n + 1):
                    for k in (0, 1):
                        assert face(c, i, k) == reference_face(c, i, k)
                if n:
                    assert cubical_boundary(CubicalChain(n, {c: 1})) == reference_boundary(c)


def test_is_valid_against_brute_force():
    rng = random.Random(43)
    gs = [cycle_digraph(3)] + [random_digraph(rng, max_vertices=4, max_arrows=5) for _ in range(3)]
    for g in gs:
        for n in (0, 1, 2):
            valid = set(brute_force_cubes(g, n))
            for vals in product(g.vertices, repeat=2**n):
                assert is_valid(SingularCube(n, vals, g)) == (vals in valid)


def test_cubical_complex_matches_per_corner_reference():
    for g in differential_digraphs():
        for reduced in (False, True):
            cc = build_cubical_complex(g, 3, reduced=reduced)
            cc.complex.check_square_zero()
            index = {}
            for n in range(4):
                basis = [c for c in reference_cubes(g, n) if not reference_is_degenerate(c)]
                assert cc.basis[n] == [c.values for c in basis]
                assert cc.index[n] == {c.values: j for j, c in enumerate(basis)}
                cols = []
                for c in basis:
                    col = {}
                    if n == 0 and reduced:
                        col[0] = 1
                    for f, sign in reference_boundary(c).terms.items():
                        row = index.get(f.values)
                        if row is not None:
                            col[row] = col.get(row, 0) + sign
                    cols.append({r: v for r, v in col.items() if v})
                assert cc.complex.boundary_cols[n] == cols
                index = cc.index[n]


def shuffled_digraphs():
    """Digraphs whose vertex order, and with it the order of every
    out-neighbour list, is not the order of their labels (small enough
    for the per-corner reference at degree 4)."""
    return [
        build_digraph([2, 0, 3, 1], [(0, 1), (1, 2), (2, 3), (3, 0)]),
        build_digraph(["c", "a", "b"], [("a", "b"), ("a", "c"), ("b", "c")]),
        build_digraph([1, 3, 0, 2, 4], [(0, 4), (2, 0), (3, 2), (3, 4), (4, 1)]),
        build_digraph([3, 0, 2, 1, 4], [(1, 0), (2, 0), (2, 1)]),
    ]


def reference_columns(basis, below):
    """Boundary columns of the nondegenerate cubes `basis` in the
    nondegenerate cubes `below`, one degree lower."""
    index = {c.values: j for j, c in enumerate(below)}
    cols = []
    for c in basis:
        col = {}
        for f, sign in reference_boundary(c).terms.items():
            row = index.get(f.values)
            if row is not None:
                col[row] = col.get(row, 0) + sign
        cols.append({r: v for r, v in col.items() if v})
    return cols


def test_face_composition_matches_the_reference_to_degree_4():
    for g in shuffled_digraphs():
        bases = [[c for c in reference_cubes(g, n) if not reference_is_degenerate(c)] for n in range(5)]
        cols = [reference_columns(bases[n], bases[n - 1]) if n else [] for n in range(5)]
        for reduced in (False, True):
            cols[0] = [{0: 1} if reduced else {} for _ in bases[0]]
            build_cubical_complex.cache_clear()
            for n in range(5):  # one degree at a time: each grow rebuilds the last one's tables
                one_by_one = build_cubical_complex(g, n, reduced=reduced)
            at_once = CubicalComplex(g).grow(4)
            for cc in (one_by_one, at_once.reduced if reduced else at_once):
                for n in range(5):
                    assert cc.basis[n] == [c.values for c in bases[n]]
                    assert cc.index[n] == {c.values: j for j, c in enumerate(bases[n])}
                    assert cc.complex.boundary_cols[n] == cols[n]


def test_enumerate_cubes_matches_the_reference_at_degree_4():
    for g in shuffled_digraphs():
        level = enumerate_cubes(g, 4)
        assert level == reference_cubes(g, 4)
        assert any(reference_is_degenerate(c) for c in level)


def test_pinned_suspension_and_comparison_coordinates():
    """Generator coordinates follow the basis order, so they are pinned."""
    line = build_digraph([0, 1], [(0, 1)])
    r = build_digraph(
        [3, 0, 5, 2, 4, 1],
        [(0, 5), (1, 3), (1, 4), (2, 0), (3, 0), (4, 1), (4, 5), (5, 1), (5, 2)],
    )
    cases = [
        (cycle_digraph(3), ((-1,),), ((1,),), [{(2, 0): 1, (0, 1): 1, (1, 2): 1}]),
        (
            box_product(cycle_digraph(4), line),
            ((-1,),),
            ((1,),),
            [{((3, 1), (0, 1)): 1, ((0, 1), (1, 1)): 1, ((1, 1), (2, 1)): 1, ((2, 1), (3, 1)): 1}],
        ),
        (
            r,
            ((-1, 0), (0, 1)),
            ((1, 0), (0, 1)),
            [{(1, 3): 1, (3, 0): 1, (0, 5): 1, (4, 5): -1, (4, 1): 1}, {(2, 0): 1, (0, 5): 1, (5, 2): 1}],
        ),
    ]
    for x, suspension_1, comparison_1, representatives in cases:
        assert cubical_suspension_map(x, 0).matrix.data == ()
        assert comparison_L(x, 0).matrix.data == ((1,),)
        assert cubical_suspension_map(x, 1).matrix.data == suspension_1
        assert comparison_L(x, 1).matrix.data == comparison_1
        cc = build_cubical_complex(x, 2)
        hd = cc.complex.homology(1)
        chains = [cc.coords_to_chain(1, hd.representative(j)) for j in range(hd.n_generators)]
        assert [{c.values: k for c, k in ch.terms.items()} for ch in chains] == representatives


def test_degenerate_cubes_form_a_subcomplex():
    rng = random.Random(3)
    for _ in range(6):
        g = random_digraph(rng, max_vertices=5, max_arrows=8)
        build_cubical_complex(g, 3).complex.check_square_zero()


def test_comparison_map_examples():
    c4 = cycle_digraph(4)
    l0 = comparison_L(c4, 0)
    assert l0.source == AbelianGroup(1) and l0.target == AbelianGroup(1)
    assert l0.matrix.data in (((1,),), ((-1,),))

    l1 = comparison_L(c4, 1)
    assert l1.target == AbelianGroup(1)
    # surjectivity: some generator hits +-1 on the winding class
    assert any(abs(x) == 1 for x in l1.matrix.data[0])

    tri = build_digraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert path_homology(tri, 1) == AbelianGroup(0)
    l1t = comparison_L(tri, 1)
    assert l1t.is_zero() or l1t.target.n_generators == 0


def test_connecting_formula_matches_generic():
    rng = random.Random(13)
    c4 = cycle_digraph(4)
    cases = [(cone(c4, "+a"), c4)]
    for _ in range(3):
        x = random_digraph(rng, max_vertices=4, max_arrows=6, min_vertices=1)
        cases.append((cone(x, "+a"), x))
    for ambient, sub in cases:
        pair = build_cubical_pair(ambient, sub, 3)
        assert connecting_face_formula(pair, 1) == pair.pair.connecting_map(2)


def test_relative_cubical_homology_of_cone_pairs():
    # the cone is contractible, so the LES of (cone x, x) gives
    # H^c_{n+1}(cone x, x) = H^c_n(x), reduced at n = 0
    rng = random.Random(17)
    xs = [cycle_digraph(4), build_digraph([0, 1], []), build_digraph([0], [])]
    while len(xs) < 6:
        x = random_digraph(rng, max_vertices=4, max_arrows=6, min_vertices=2)
        if path_homology(x, 1) != AbelianGroup(0):
            xs.append(x)
    for x in xs:
        for n in (0, 1):
            relative = cubical_homology(cone(x, "+a"), n + 1, relative_to=x)
            assert relative == build_cubical_complex(x, n + 1, reduced=n == 0).homology(n)


def test_cubical_pair_sub_is_the_complex_of_the_subdigraph():
    c4 = cycle_digraph(4)
    pair = build_cubical_pair(cone(c4, "+a"), c4, 2)
    assert pair.sub is build_cubical_complex(c4, 2)
    for n in range(3):
        for j, values in enumerate(pair.sub.basis[n]):
            assert pair.pair.sub_chain_to_ambient(n, {j: 1}) == {pair.ambient.index[n][values]: 1}


def test_cubical_les_exactness():
    c4 = cycle_digraph(4)
    pair = build_cubical_pair(cone(c4, "+a"), c4, 3)
    assert verify_exactness(pair.pair.les_maps(2))
    sx = suspension(c4, "+a", "+b")
    pair2 = build_cubical_pair(sx, cone(c4, "+b"), 3)
    assert verify_exactness(pair2.pair.les_maps(2))


def test_comparison_commutes_with_suspension_on_c4():
    c4 = cycle_digraph(4)
    sx = suspension(c4, "+a", "+b")
    ec = cubical_suspension_map(c4, 1)
    ep = comparison_L(sx, 2).compose(ec)
    other = __import__(
        "digraph_homology.paths", fromlist=["path_suspension_map"]
    ).path_suspension_map(c4, 1).compose(comparison_L(c4, 1))
    assert ep == other


def test_cubical_suspension_cycle_realizes_the_suspension_map():
    for m in (3, 4, 5, 6):
        x = cycle_digraph(m)
        z = CubicalChain(1, {SingularCube(1, (i, (i + 1) % m), x): 1 for i in range(m)})
        sz = cubical_suspension_cycle(z, x)
        sx = suspension(x, "+a", "+b")
        cones = {(i, (i + 1) % m, p, p): s for i in range(m) for p, s in (("+a", -1), ("+b", 1))}
        assert sz == CubicalChain(2, {SingularCube(2, v, sx): s for v, s in cones.items()})
        assert all(is_degenerate(c) for c in cubical_boundary(sz).terms)
        z_class = build_cubical_complex(x, 2).class_of(z)
        sz_class = build_cubical_complex(sx, 3).class_of(sz)
        assert z_class.coords in ((1,), (-1,))
        assert cubical_suspension_map(x, 1)(z_class) == sz_class


def test_cubical_suspension_cycle_of_two_points():
    two = build_digraph(["v", "w"], [])
    z = CubicalChain(0, {SingularCube(0, ("v",), two): 1, SingularCube(0, ("w",), two): -1})
    sz = cubical_suspension_cycle(z, two)
    sx = suspension(two, "+a", "+b")
    values = {("v", "+b"): 1, ("w", "+b"): -1, ("v", "+a"): -1, ("w", "+a"): 1}
    assert sz == CubicalChain(1, {SingularCube(1, v, sx): k for v, k in values.items()})
    assert cubical_boundary(sz).is_zero()
    z_class = build_cubical_complex(two, 1, reduced=True).class_of(z)
    sz_class = build_cubical_complex(sx, 2).class_of(sz)
    assert z_class.coords in ((1,), (-1,)) and sz_class.coords in ((1,), (-1,))
    assert cubical_suspension_map(two, 0)(z_class) == sz_class


def test_cubical_suspension_cycle_rejects_a_non_cycle():
    c4 = cycle_digraph(4)
    with pytest.raises(NotACycleError):
        cubical_suspension_cycle(CubicalChain(1, {SingularCube(1, (0, 1), c4): 1}), c4)
    with pytest.raises(NotACycleError):
        cubical_suspension_cycle(CubicalChain(0, {SingularCube(0, (0,), c4): 1}), c4)
    assert cubical_suspension_cycle(CubicalChain(1), c4).is_zero()


def test_cube_json():
    c4 = cycle_digraph(4)
    arrow = SingularCube(1, (0, 1), c4)
    ch = CubicalChain(1, {arrow: 2})
    assert ch.to_json() == [{"dim": 1, "values": ["0", "1"], "coeff": 2}]


# --- one complex per digraph, grown on demand -------------------------------


def test_top_degree_homology_builds_the_degree_above():
    # the square 0->1->2 = 0->2 fills the triangle's only cycle, in degree 2,
    # one above the degree the complexes are asked for
    t = build_digraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    for builder in (build_omega_complex, build_cubical_complex):
        builder.cache_clear()
        assert builder(t, 1).homology(1) == AbelianGroup(0)
        builder.cache_clear()
        assert builder(t, 1).complex.homology(1).group == AbelianGroup(0)
    assert path_homology(t, 1) == cubical_homology(t, 1) == AbelianGroup(0)


def test_both_theories_take_the_same_positional_arguments():
    # each cubical function takes the arguments of its path twin, and nothing else
    c4 = cycle_digraph(4)
    for x in (c4, suspension(c4)):
        for n in (0, 1):
            for e in (path_suspension_map, cubical_suspension_map):
                assert e(x, n, "n", "s") == e(x, n, apex_a="n", apex_b="s"), (e, n)
    for homology in (path_homology, cubical_homology):
        assert homology(c4, 0, None, True) == AbelianGroup(0)
        assert homology(cone(c4, "+a"), 1, c4, True) == AbelianGroup(0)
    for builder in (build_omega_complex, build_cubical_complex):
        assert builder(c4, 2, True) is builder(c4, 2).reduced
    for builder in (build_omega_pair, build_cubical_pair):
        assert builder(cone(c4, "+a"), c4, 2, True) is builder(cone(c4, "+a"), c4, 2).reduced


@pytest.mark.parametrize("homology", [path_homology, cubical_homology])
def test_a_negative_degree_is_refused_in_both_theories(homology):
    for reduced in (False, True):
        with pytest.raises(ValueError, match="^negative degree$"):
            homology(cycle_digraph(4), -1, reduced=reduced)


def test_every_cubical_entry_point_is_bounded_by_the_cube_count(tmp_path, monkeypatch, capsys):
    # cold caches, so each call enumerates degree 3 of C4: 152 singular cubes
    build_cubical_complex.cache_clear()
    build_cubical_pair.cache_clear()
    monkeypatch.setattr(cubes, "CUBE_BOUND", 100)
    c4 = cycle_digraph(4)
    square = GridMap((standard_line(2),) * 2, (0,) * 9, c4, "pair", 0)
    calls = [
        lambda: build_cubical_complex(c4, 3),
        lambda: build_cubical_pair(cone(c4, "+a"), c4, 3),
        lambda: cubical_homology(c4, 2),
        lambda: comparison_L(c4, 2),
        lambda: cubical_suspension_map(c4, 1),
        lambda: hurewicz_class(square),
    ]
    for call in calls:
        with pytest.raises(BoundExceededError, match="^degree 3 has more than 100 singular cubes$"):
            call()

    c4 = relabel_to_strings(c4)
    documents = {
        "c4": digraph_to_json(c4),
        "pair": {"ambient": digraph_to_json(cone(c4, "+a")), "sub": "c4.json"},
        "square": grid_map_to_json(GridMap(square.axes, ("0",) * 9, c4, "pair", "0")),
    }
    for name, document in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    c4_file, pair_file, square_file = (str(tmp_path / f"{name}.json") for name in documents)
    commands = [
        ["homology", c4_file, "--theory", "cubical", "--dim", "2"],
        ["compare", c4_file, "--dim", "2"],
        ["hurewicz", square_file],
        ["verify", "exactness", pair_file, "--theory", "cubical", "--maxdim", "2"],
    ]
    for argv in commands:
        assert main(argv) == 3, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: degree 3 has more than 100 singular cubes\n"


def test_a_warm_cache_never_bypasses_a_bound(tmp_path, monkeypatch):
    path = tmp_path / "c4.json"
    arrows = [list(e) for e in ("ab", "bc", "cd", "da")]
    path.write_text(json.dumps({"vertices": list("abcd"), "arrows": arrows}))
    g = digraph_from_json(json.loads(path.read_text()))
    cc = build_cubical_complex(g, 3)
    groups = [cc.homology(n) for n in range(3)]
    bases = dict(cc.basis)
    # degree 3 of C4 has 152 singular cubes, degree 4 more
    monkeypatch.setattr(cubes, "CUBE_BOUND", 152)
    refused = "^degree 4 has more than 152 singular cubes$"
    for _ in range(2):  # a refused degree stores nothing, so it is refused again
        with pytest.raises(BoundExceededError, match=refused):
            cc.complex.homology(3)
        with pytest.raises(BoundExceededError, match=refused):
            cubical_homology(g, 3)
        with pytest.raises(BoundExceededError, match=refused):
            build_cubical_complex(g, 4)
        argv = ["homology", str(path), "--theory", "cubical", "--dim", "3"]
        assert main(argv) == 3
    # every degree below the refused one, and its group, is still there
    assert build_cubical_complex(g, 3) is cc
    assert cc.basis == bases
    assert [cubical_homology(g, n) for n in range(3)] == groups
    assert groups == [AbelianGroup(1), AbelianGroup(1), AbelianGroup(0)]
    monkeypatch.undo()

    # one complex and one pair per digraph, whatever the degree or reduction
    assert build_cubical_complex(g, 2) is cc
    assert build_omega_complex(g, 2) is build_omega_complex(g, 3)
    for builder in (build_omega_complex, build_cubical_complex):
        reduced = builder(g, 2, reduced=True).complex
        assert reduced.homology(1) is builder(g, 2).complex.homology(1)
        assert reduced.homology(0).group == AbelianGroup(0)
    for builder in (build_omega_pair, build_cubical_pair):
        pair = builder(cone(g, "+a"), g, 2)
        assert builder(cone(g, "+a"), g, 3) is pair
        assert builder(cone(g, "+a"), g, 2, reduced=True).pair.quotient is pair.pair.quotient

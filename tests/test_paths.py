import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_homology import chains, cubes, paths
from digraph_homology.chains import BoundExceededError, NotACycleError, suspension_composite
from digraph_homology.cli import main
from digraph_homology.digraphs import (
    DigraphMap,
    box_product,
    build_digraph,
    cone,
    cycle_digraph,
    digraph_to_json,
    inclusion_map,
    relabel_to_strings,
    standard_line,
    suspension,
)
from digraph_homology.grids import GridMap, glmy_hurewicz, grid_map_to_json
from digraph_homology.intlinalg import AbelianGroup, Echelon
from digraph_homology.paths import (
    OmegaComplex,
    PathChain,
    _boundary_faces,
    allowed_paths,
    build_omega_complex,
    build_omega_pair,
    path_homology,
    path_suspension_map,
    is_regular,
    regular_boundary,
    suspension_cycle,
)
from digraph_homology.randomgen import random_digraph
from oracles import InvalidMappingError, omega_reference, pushforward


def triangle():
    return build_digraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


def test_allowed_paths_examples():
    c4 = cycle_digraph(4)
    assert allowed_paths(c4, 1) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    # exhaustive walk enumeration: each vertex has a unique out-neighbor
    assert allowed_paths(c4, 2) == [(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)]
    point = build_digraph([0], [])
    assert allowed_paths(point, 1) == []


def test_regular_boundary_examples():
    d = regular_boundary(PathChain.single((0, 1, 2)))
    assert d == PathChain(1, {(1, 2): 1, (0, 2): -1, (0, 1): 1})

    # the middle face 011 is non-regular and vanishes
    d = regular_boundary(PathChain.single((0, 1, 2, 1)))
    assert d == PathChain(2, {(1, 2, 1): 1, (0, 2, 1): -1, (0, 1, 2): -1})

    dd = regular_boundary(regular_boundary(PathChain.single((0, 1, 2, 3))))
    assert dd.is_zero()


def test_omega_examples():
    # directed 3-cycle: each 2-path has a distinct non-allowed face
    assert build_omega_complex(cycle_digraph(3), 2).rank(2) == 0

    # transitive triangle: the full 2-simplex survives
    oc = build_omega_complex(triangle(), 2)
    assert oc.rank(2) == 1
    assert oc.basis_chain(2, 0) in (
        PathChain.single((0, 1, 2)),
        PathChain.single((0, 1, 2), -1),
    )


def test_path_homology_examples():
    c4 = cycle_digraph(4)
    assert path_homology(c4, 1) == AbelianGroup(1)
    assert path_homology(triangle(), 1) == AbelianGroup(0)
    assert path_homology(c4, 2) == AbelianGroup(0)


def test_relative_path_homology_rejects_non_subdigraph():
    c4 = cycle_digraph(4)
    from digraph_homology.digraphs import NotASubdigraphError

    with pytest.raises(NotASubdigraphError):
        path_homology(c4, 1, relative_to=triangle())


def test_pushforward_examples():
    c4 = cycle_digraph(4)
    z = PathChain(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1})
    ident = pushforward(DigraphMap.from_dict(c4, c4, {v: v for v in c4.vertices}), z)
    assert ident == z

    point = build_digraph(["p"], [])
    const = pushforward(DigraphMap.from_dict(c4, point, {v: "p" for v in c4.vertices}), z)
    assert const.is_zero()

    sx = suspension(c4, "+a", "+b")
    incl = pushforward(inclusion_map(c4, sx), z)
    # H_1 of the suspension is trivial, so the image class must vanish
    oc = build_omega_complex(sx, 2)
    assert oc.homology(1) == AbelianGroup(0)
    assert oc.class_of(incl).is_zero()

    bad = DigraphMap.from_dict(c4, c4, {0: 0, 1: 2, 2: 2, 3: 3})
    with pytest.raises(InvalidMappingError):
        pushforward(bad, z)


def test_pushforward_commutes_with_boundary():
    rng = random.Random(23)
    found = 0
    while found < 15:
        g = random_digraph(rng, max_vertices=5, max_arrows=8)
        h = random_digraph(rng, max_vertices=5, max_arrows=8)
        mapping = {v: rng.choice(h.vertices) for v in g.vertices}
        f = DigraphMap.from_dict(g, h, mapping)
        from digraph_homology.digraphs import check_digraph_map

        if not check_digraph_map(f):
            continue
        found += 1
        for n in (1, 2, 3):
            paths = allowed_paths(g, n)
            if not paths:
                continue
            chain = PathChain(n, {p: rng.randint(-2, 2) for p in paths})
            assert pushforward(f, regular_boundary(chain)) == regular_boundary(
                pushforward(f, chain)
            )


def test_suspension_cycle_examples():
    c4 = cycle_digraph(4)
    z = PathChain(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1})

    zero = suspension_cycle(PathChain(1, {}), c4)
    assert zero.is_zero()

    sz = suspension_cycle(z, c4)
    expected = PathChain(
        2,
        {
            **{p + ("+a",): 1 for p in [(0, 1), (1, 2), (2, 3), (3, 0)]},
            **{p + ("+b",): -1 for p in [(0, 1), (1, 2), (2, 3), (3, 0)]},
        },
    )
    assert sz == expected
    sx = suspension(c4, "+a", "+b")
    cls = build_omega_complex(sx, 3).class_of(sz)
    assert cls.group == AbelianGroup(1)
    assert cls.coords in ((1,), (-1,))

    # degree 0: sign (-1)^(0+1) flips the appended difference
    two = build_digraph(["v", "w"], [])
    z0 = PathChain(0, {("v",): 1, ("w",): -1})
    s0 = suspension_cycle(z0, two)
    assert s0 == PathChain(
        1, {("w", "+a"): 1, ("w", "+b"): -1, ("v", "+a"): -1, ("v", "+b"): 1}
    )
    assert regular_boundary(s0).is_zero()

    with pytest.raises(NotACycleError):
        suspension_cycle(PathChain.single((0, 1)), c4)


def test_suspension_cycle_class_matches_connecting_composite():
    rng = random.Random(9)
    checked = 0
    while checked < 4:
        x = random_digraph(rng, max_vertices=4, max_arrows=7, min_vertices=2)
        oc = build_omega_complex(x, 3)
        hd = oc.complex.homology(1)
        if hd.group == AbelianGroup(0):
            continue
        checked += 1
        sx = suspension(x, "+a", "+b")
        cone_pair = build_omega_pair(cone(x, "+a"), x, 3)
        emap = suspension_composite(cone_pair, build_omega_pair(sx, cone(x, "+b"), 3), 1)
        hd_sx = build_omega_complex(sx, 3).complex.homology(2)
        for j in range(hd.n_generators):
            z = oc.coords_to_chain(1, hd.representative(j))
            sz = suspension_cycle(z, x)
            direct = hd_sx.class_vector(build_omega_complex(sx, 3).lattice_coords(sz))
            via = emap.matrix.apply(hd.class_vector(oc.lattice_coords(z)))
            assert tuple(direct) == tuple(via)


def test_suspension_isomorphism_property():
    rng = random.Random(31)
    digraphs = [cycle_digraph(4), triangle(), build_digraph([0, 1, 2], [])]
    digraphs += [random_digraph(rng, max_vertices=4, max_arrows=6) for _ in range(4)]
    for x in digraphs:
        sx = suspension(x, "+a", "+b")
        for n in (1, 2):
            assert path_homology(sx, n + 1) == path_homology(x, n), (x, n)
        # degree 0 only matches the reduced group; report both readings
        unreduced = path_homology(x, 0)
        reduced = path_homology(x, 0, reduced=True)
        h1 = path_homology(sx, 1)
        assert h1 == reduced
        if unreduced != reduced:
            assert h1 != unreduced


def test_suspension_lattice_decomposition_report():
    # The appended-apex chains span part of the suspension's degree-(n+1)
    # lattice; together with the absolute degree-(n+1) chains of x they
    # span all of it.  The pure tensor description alone fails whenever
    # the absolute part is nonzero (e.g. the transitive triangle).
    for x in (cycle_digraph(4), triangle()):
        n = 1
        sx = suspension(x, "+a", "+b")
        oc_x = build_omega_complex(x, n + 1)
        oc_sx = build_omega_complex(sx, n + 1)
        spanned = Echelon()
        for j in range(oc_x.rank(n)):
            z = oc_x.basis_chain(n, j)
            for apex in ("+a", "+b"):
                appended = PathChain(n + 1, {p + (apex,): c for p, c in z.terms.items()})
                coords = oc_sx.lattice_coords(appended)
                assert coords is not None  # tensor part embeds
                spanned.add(coords)
        for j in range(oc_x.rank(n + 1)):
            coords = oc_sx.lattice_coords(oc_x.basis_chain(n + 1, j))
            assert coords is not None
            spanned.add(coords)
        assert len(spanned) == oc_sx.rank(n + 1)
        tensor_only_rank = 2 * oc_x.rank(n)
        if oc_x.rank(n + 1) > 0:
            assert tensor_only_rank < oc_sx.rank(n + 1)


def test_omega_boundary_columns_stay_in_lattice():
    rng = random.Random(17)
    for _ in range(10):
        g = random_digraph(rng, max_vertices=5, max_arrows=8)
        oc = build_omega_complex(g, 3)
        for n in (1, 2, 3):
            for j in range(oc.rank(n)):
                chain = oc.basis_chain(n, j)
                bound = regular_boundary(chain)
                if n >= 1:
                    assert oc.lattice_coords(bound) is not None


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_boundary_squared_zero_property(rng):
    g = random_digraph(rng, max_vertices=6, max_arrows=10)
    build_omega_complex(g, 3).complex.check_square_zero()


def test_relative_homology_of_cone_pair():
    c4 = cycle_digraph(4)
    from digraph_homology.digraphs import cone

    pair = build_omega_pair(cone(c4, "+a"), c4, 3)
    # contractible ambient: H_2 of the pair is carried entirely by H_1(C4)
    assert pair.pair.quotient.homology(2).group == AbelianGroup(1)
    assert path_homology(cone(c4, "+a"), 2, relative_to=c4) == AbelianGroup(1)


def test_chain_json_roundtrip():
    z = PathChain(1, {(0, 1): 1, (3, 0): -2})
    blob = z.to_json()
    assert blob == [
        {"path": ["0", "1"], "coeff": 1},
        {"path": ["3", "0"], "coeff": -2},
    ]


def test_boundary_faces_match_the_regularity_filter():
    for length in range(1, 6):
        for path in filter(is_regular, product(range(3), repeat=length)):
            faces = [(path[:i] + path[i + 1 :], (-1) ** i) for i in range(length)]
            assert _boundary_faces(path) == [(f, s) for f, s in faces if is_regular(f)]


def test_every_path_entry_point_is_bounded_by_the_path_count(tmp_path, monkeypatch, capsys):
    # C4□C4 has 16, 32, 64 and 128 allowed paths in degrees 0 to 3, and its
    # suspension 128 in degree 2; cold caches, so each call enumerates them
    build_omega_complex.cache_clear()
    build_omega_pair.cache_clear()
    monkeypatch.setattr(paths, "PATH_BOUND", 100)
    box = relabel_to_strings(box_product(cycle_digraph(4), cycle_digraph(4)))
    keep = [v for v in box.vertices if not v.endswith("3)")]
    sub = build_digraph(keep, [(u, v) for u, v in box.arrows if u in keep and v in keep])
    loop = PathChain(1, {(f"({i},0)", f"({(i + 1) % 4},0)"): 1 for i in range(4)})
    square = GridMap((standard_line(2),) * 2, (box.vertices[0],) * 9, box, "pair", box.vertices[0])
    calls = [
        (lambda: allowed_paths(box, 3), 3),
        (lambda: build_omega_complex(box, 3), 3),
        (lambda: build_omega_pair(box, sub, 3), 3),
        (lambda: path_homology(box, 2), 3),
        (lambda: path_suspension_map(box, 0), 2),
        (lambda: suspension_cycle(loop, box), 2),
        (lambda: glmy_hurewicz(square), 3),
    ]
    for call, degree in calls:
        refused = f"^degree {degree} has more than 100 allowed paths$"
        with pytest.raises(BoundExceededError, match=refused):
            call()

    documents = {
        "box": digraph_to_json(box),
        "pair": {"ambient": "box.json", "sub": digraph_to_json(sub)},
        "square": grid_map_to_json(square),
    }
    for name, document in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    box_file, pair_file, square_file = (str(tmp_path / f"{name}.json") for name in documents)
    commands = [
        ["homology", box_file, "--dim", "2"],
        ["compare", box_file, "--dim", "2"],
        ["hurewicz", square_file],
        ["verify", "exactness", pair_file, "--theory", "path", "--maxdim", "2"],
    ]
    for argv in commands:
        assert main(argv) == 3, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: degree 3 has more than 100 allowed paths\n"

    # a refused degree stores nothing, so a warm complex refuses it again
    build_omega_complex.cache_clear()
    oc = build_omega_complex(box, 2)
    groups = [path_homology(box, n) for n in range(2)]
    allowed = dict(oc.allowed)
    for _ in range(2):
        for call in (
            lambda: oc.complex.homology(2),
            lambda: path_homology(box, 2),
            lambda: build_omega_complex(box, 3),
        ):
            with pytest.raises(BoundExceededError, match="^degree 3 has more than 100 allowed"):
                call()
    # every degree below the refused one, and its group, is still there
    assert build_omega_complex(box, 2) is oc
    assert oc.allowed == allowed and sorted(allowed) == [0, 1, 2]
    assert [path_homology(box, n) for n in range(2)] == groups
    assert groups == [AbelianGroup(1), AbelianGroup(2)]
    assert cubes.BoundExceededError is chains.BoundExceededError


def test_growing_one_degree_at_a_time_extends_the_degree_below():
    rng = random.Random(21)
    for _ in range(30):
        g = random_digraph(rng, max_vertices=5, max_arrows=9, min_vertices=1)
        stepwise = OmegaComplex(g)
        for k in range(4):
            stepwise.grow(k)
            # every vertex sequence along arrows, lexicographic in the vertex order
            walks = [
                p
                for p in product(g.vertices, repeat=k + 1)
                if all(g.has_arrow(a, b) for a, b in zip(p, p[1:]))
            ]
            assert stepwise.allowed[k] == allowed_paths(g, k) == walks
        cold = OmegaComplex(g).grow(3)
        assert stepwise.allowed == cold.allowed
        assert stepwise.complex.degrees == cold.complex.degrees
        assert stepwise.complex.boundary_cols == cold.complex.boundary_cols
        for k in range(4):
            assert stepwise._echelons[k].basis_vectors() == cold._echelons[k].basis_vectors()


# a -> b -> d, a -> c -> d: Ω_2 is spanned by abd - acd, not a unit vector
SQUARE = build_digraph("abcd", [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])


def omega_cases() -> list:
    rng = random.Random(29)
    cases = [random_digraph(rng, max_vertices=6, max_arrows=10) for _ in range(200)]
    x = cycle_digraph(4)
    for k in range(3):
        x = suspension(x, f"+a{k}", f"+b{k}")
        cases.append(x)
    c4 = cycle_digraph(4)
    cases.append(box_product(box_product(c4, c4), c4))
    cases.append(SQUARE)
    cases.append(build_digraph(range(4), [(0, 1), (1, 0), (1, 2), (2, 3), (0, 3)]))  # a double arrow
    return cases


def test_composed_faces_match_the_tuple_face_reference():
    rng = random.Random(7)
    off_lattice = 0
    for g in omega_cases():
        ref = omega_reference(g, 5)
        cold, stepwise = OmegaComplex(g).grow(5), OmegaComplex(g)
        for k in range(6):
            stepwise.grow(k)
        for oc in (cold, stepwise):
            assert oc.allowed == ref.allowed
            for n in range(6):
                # entry order too: the vectors are the same dicts, built alike
                for got, want in ((oc._echelons[n].basis_vectors(), ref.echelons[n].basis_vectors()),
                                  (oc.complex.boundary_cols[n], ref.boundary_cols[n])):
                    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
        for n in range(6):
            rank = cold.rank(n)
            if rank:
                coeffs = {j: rng.choice((-3, -2, -1, 1, 2, 3)) for j in rng.sample(range(rank), min(rank, 3))}
                chain = cold.coords_to_chain(n, coeffs)
                assert cold.lattice_coords(chain) == ref.lattice_coords(chain) == coeffs
            # a path with a face outside the allowed paths is off the lattice,
            # alone or beside a basis chain
            for path in ref.allowed[n]:
                single = PathChain.single(path)
                if ref.lattice_coords(single) is None:
                    off_lattice += 1
                    assert cold.lattice_coords(single) is None
                    if rank:
                        mixed = cold.basis_chain(n, 0) + single
                        assert cold.lattice_coords(mixed) is ref.lattice_coords(mixed) is None
                    break
    assert off_lattice > 100


def test_unit_rows_are_read_without_a_solve(monkeypatch):
    solved = []
    solve = Echelon.solve

    def counted(self, vec):
        solved.append(self)
        return solve(self, vec)

    x, z = cycle_digraph(4), PathChain(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1})
    for k in range(3):
        z, x = suspension_cycle(z, x, f"+a{k}", f"+b{k}"), suspension(x, f"+a{k}", f"+b{k}")
    monkeypatch.setattr(Echelon, "solve", counted)
    oc = OmegaComplex(x).grow(6)
    cls = oc.class_of(z)
    assert cls.group == AbelianGroup(1) and cls.coords in ((1,), (-1,))
    assert not any(ech is lattice for ech in solved for lattice in oc._echelons.values())

    # the square's Ω_2 generator abd - acd is no unit vector: its read solves
    oc, ref = OmegaComplex(SQUARE).grow(2), omega_reference(SQUARE, 2)
    chain = PathChain(2, {("a", "b", "d"): 2, ("a", "c", "d"): -2})
    solved.clear()
    assert oc.lattice_coords(chain) == ref.lattice_coords(chain) == {0: 2}
    assert any(ech is oc._echelons[2] for ech in solved)

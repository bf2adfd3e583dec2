import json
import random

import pytest

from digraph_homology import grids
from digraph_homology.cubes import (
    build_cubical_complex,
    build_cubical_pair,
    comparison_L,
    is_degenerate,
)
from digraph_homology.digraphs import (
    LineSpec,
    build_digraph,
    cone,
    cycle_digraph,
    standard_line,
)
from digraph_homology.grids import (
    CertificateStep,
    CoordinateOutOfRangeError,
    GridMap,
    InvalidGridMapError,
    ModeMismatchError,
    NotMonotoneShapeError,
    OddLengthAxisError,
    ShapeMismatchError,
    ShrinkingMap,
    WrongDimensionError,
    certificate_from_json,
    certificate_to_json,
    concat_mu,
    constant_grid_map,
    direct_homotopy,
    extend,
    find_certificate,
    glmy_hurewicz,
    grid_map_from_json,
    grid_map_to_json,
    grid_map_violation,
    hurewicz_chain,
    hurewicz_class,
    inverse_j,
    loop_h_prime,
    minimal_path,
    shrink_by_pair_insertions,
    subdivide,
    validate_grid_map,
    verify_homotopy_certificate,
    verify_one_step,
)
from digraph_homology.paths import build_omega_complex, build_omega_pair
from digraph_homology.randomgen import (
    random_certificate_chain,
    random_digraph,
    random_grid_map,
    random_shrinking,
)

C4 = cycle_digraph(4)


def winding():
    return GridMap((standard_line(8),), (0, 1, 1, 2, 2, 3, 3, 0, 0), C4, "pair", 0)


def cone_triple_map(loop: GridMap, apex="+a") -> GridMap:
    """Triple grid map on (cone, base digraph) sweeping a loop to the apex."""
    cp = cone(loop.target, apex)
    m = loop.axes[0].length
    vals = []
    for i in range(3):
        for j in range(m + 1):
            if i == 0:
                vals.append(loop.values[j])
            elif i == 1:
                vals.append(apex if 1 <= j <= m - 1 else loop.base)
            else:
                vals.append(loop.base)
    return GridMap(
        (standard_line(2), standard_line(m)),
        tuple(vals),
        cp,
        "triple",
        loop.base,
        loop.target,
    )


def test_validate_examples():
    assert validate_grid_map(constant_grid_map(C4, 0, (2, 2)))
    assert validate_grid_map(winding())
    wrong_base = GridMap((standard_line(8),), winding().values, C4, "pair", 1)
    assert not validate_grid_map(wrong_base)
    assert "basepoint" in grid_map_violation(wrong_base)

    not_a_map = GridMap((standard_line(2),), (0, 2, 0), C4, "pair", 0)
    assert not validate_grid_map(not_a_map)


def test_extend_examples():
    g = winding()
    assert extend(g, (8,)) == g
    c = constant_grid_map(C4, 0, (2,))
    assert extend(c, (6,)) == constant_grid_map(C4, 0, (6,))
    ext = extend(g, (10,))
    assert ext.values == g.values + (0, 0)
    with pytest.raises(NotMonotoneShapeError):
        extend(g, (6,))
    with pytest.raises(NotMonotoneShapeError):
        extend(g, (9,))


def test_subdivide_examples():
    g = winding()
    ident = ShrinkingMap.identity(g.axes)
    assert subdivide(g, ident) == g

    # the length-3 to length-2 shrink collapsing the last two vertices
    i3, i2 = LineSpec(3, "FBF"), LineSpec(2, "FB")
    h = ShrinkingMap((i3,), (i2,), ((0, 1, 2, 2),))
    f = GridMap((i2,), (0, 1, 1), C4, "absolute")
    sub = subdivide(f, h)
    assert sub.values == (0, 1, 1, 1)

    doubled = subdivide(g, shrink_by_pair_insertions([8], [[2, 6]]))
    assert validate_grid_map(doubled)
    assert len(doubled.values) == 13
    with pytest.raises(ShapeMismatchError):
        subdivide(g, ShrinkingMap.identity((standard_line(4),)))


def test_shrinking_map_validation():
    with pytest.raises(NotMonotoneShapeError):
        ShrinkingMap.from_tables([[0, 1, 0, 1]])  # not monotone
    with pytest.raises(NotMonotoneShapeError):
        ShrinkingMap.from_tables([[0, 0, 1, 1]])  # parity-misaligned step
    with pytest.raises(NotMonotoneShapeError):
        ShrinkingMap(
            (standard_line(2),), (standard_line(2),), ((0, 1, 1),)
        )  # endpoint not preserved


def test_concat_examples():
    c2 = constant_grid_map(C4, 0, (2,))
    c4m = constant_grid_map(C4, 0, (4,))
    assert concat_mu(1, c2, c2) == c4m

    g = winding()
    double = concat_mu(1, g, g)
    assert double.values == g.values + g.values[1:]
    assert minimal_path(double) == (0, 1, 2, 3, 0, 1, 2, 3, 0)

    f = constant_grid_map(C4, 0, (2, 2))
    h = constant_grid_map(C4, 0, (2, 2))
    prod = concat_mu(2, f, h)
    assert prod.lengths == (2, 4)

    with pytest.raises(CoordinateOutOfRangeError):
        concat_mu(3, f, h)
    other = constant_grid_map(C4, 1, (2,))
    with pytest.raises(ModeMismatchError):
        concat_mu(1, c2, other)


def test_concat_triple_restricts_first_coordinate():
    loop = winding()
    f = cone_triple_map(loop)
    with pytest.raises(CoordinateOutOfRangeError):
        concat_mu(1, f, f)
    prod = concat_mu(2, f, f)
    assert prod.lengths == (2, 16)
    assert validate_grid_map(prod)


def test_inverse_examples():
    c2 = constant_grid_map(C4, 0, (2,))
    assert inverse_j(1, c2) == c2
    g = winding()
    inv = inverse_j(1, g)
    assert inv.values == (0, 0, 3, 3, 2, 2, 1, 1, 0)
    assert inverse_j(1, inv) == g
    odd = GridMap((LineSpec(3, "FBF"),), (0, 1, 1, 2), C4, "absolute")
    with pytest.raises(OddLengthAxisError):
        inverse_j(1, odd)


def test_direct_homotopy_examples():
    g = winding()
    assert direct_homotopy(g, g) == frozenset({"fwd", "bwd"})

    j1 = build_digraph([0, 1], [(0, 1)])
    f0 = constant_grid_map(j1, 0, (2,), mode="absolute")
    f1 = constant_grid_map(j1, 1, (2,), mode="absolute")
    assert direct_homotopy(f0, f1) == frozenset({"fwd"})
    assert direct_homotopy(f1, f0) == frozenset({"bwd"})

    const = constant_grid_map(C4, 0, (8,))
    assert direct_homotopy(g, const) == frozenset()
    with pytest.raises(ShapeMismatchError):
        direct_homotopy(g, constant_grid_map(C4, 0, (6,)))


def test_verify_one_step_and_certificates():
    g = winding()
    ident = ShrinkingMap.identity(g.axes)
    assert verify_one_step(g, g, ident, ident)

    # constant loop vs its extension, after subdividing the short one
    c2 = constant_grid_map(C4, 0, (2,))
    c4m = extend(c2, (4,))
    h = shrink_by_pair_insertions([2], [[0]])
    assert verify_one_step(c2, c4m, h, ShrinkingMap.identity(c4m.axes))

    const = constant_grid_map(C4, 0, (8,))
    assert not verify_one_step(g, const, ident, ident)

    sub = subdivide(g, shrink_by_pair_insertions([8], [[4]]))
    cert = [CertificateStep(shrink_by_pair_insertions([8], [[4]]), None, "fwd")]
    assert verify_homotopy_certificate(g, sub, cert)
    assert not verify_homotopy_certificate(g, const, [CertificateStep(None, None, "fwd")])
    assert verify_homotopy_certificate(g, g, [])


def test_find_certificate():
    c2 = constant_grid_map(C4, 0, (2,))
    c4m = extend(c2, (4,))
    cert = find_certificate(c2, c4m)
    assert cert is not None
    assert verify_homotopy_certificate(c2, c4m, cert)


def test_hurewicz_chain_examples():
    const = constant_grid_map(C4, 0, (4,))
    assert all(is_degenerate(c) for c in hurewicz_chain(const).terms)
    assert hurewicz_class(const).is_zero()

    g = winding()
    ch = hurewicz_chain(g)
    live = {c.values: k for c, k in ch.terms.items() if not is_degenerate(c)}
    assert live == {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1}

    sub = subdivide(g, shrink_by_pair_insertions([8], [[1, 5]]))
    assert hurewicz_class(g) == hurewicz_class(sub)


def test_hurewicz_classes_and_h_prime():
    g = winding()
    cls = glmy_hurewicz(g)
    assert cls.coords in ((1,), (-1,))

    oc = build_omega_complex(C4, 2)
    assert oc.class_of(loop_h_prime(g)) == cls

    assert glmy_hurewicz(concat_mu(1, g, g)) == cls + cls
    assert glmy_hurewicz(inverse_j(1, g)) == -cls

    const = constant_grid_map(C4, 0, (4,))
    assert loop_h_prime(const).is_zero()

    j2loop = GridMap((standard_line(2),), (0, 1, 0), C4, "pair", 0)
    assert loop_h_prime(j2loop).is_zero()
    assert glmy_hurewicz(j2loop).is_zero()

    with pytest.raises(WrongDimensionError):
        loop_h_prime(constant_grid_map(C4, 0, (2, 2)))


def test_h_prime_matches_class_on_random_loops():
    rng = random.Random(19)
    oc_cache = {}
    found = 0
    while found < 25:
        g = random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=2)
        loop = random_grid_map(rng, g, 0, (rng.choice([2, 4, 6]),))
        if loop is None:
            continue
        found += 1
        oc = oc_cache.setdefault(g, build_omega_complex(g, 2))
        assert oc.class_of(loop_h_prime(loop)) == glmy_hurewicz(loop)


def test_additivity_of_hurewicz_classes():
    rng = random.Random(29)
    done = 0
    while done < 10:
        g = random_digraph(rng, max_vertices=4, max_arrows=7, min_vertices=2)
        f = random_grid_map(rng, g, 0, (2, 2))
        h = random_grid_map(rng, g, 0, (2, 2))
        if f is None or h is None:
            continue
        done += 1
        for j in (1, 2):
            prod = concat_mu(j, f, h)
            assert hurewicz_class(prod) == hurewicz_class(f) + hurewicz_class(h)
            assert glmy_hurewicz(prod) == glmy_hurewicz(f) + glmy_hurewicz(h)


def test_concat_pads_unequal_shapes():
    g = winding()
    short = constant_grid_map(C4, 0, (4,))
    p = concat_mu(1, short, g)
    assert p.lengths == (12,) and validate_grid_map(p)
    assert glmy_hurewicz(p) == glmy_hurewicz(short) + glmy_hurewicz(g)

    rng = random.Random(71)
    f2 = random_grid_map(rng, C4, 0, (2, 4))
    g2 = random_grid_map(rng, C4, 0, (4, 2))
    assert f2 is not None and g2 is not None
    for j, expected in ((1, (6, 4)), (2, (4, 6))):
        p2 = concat_mu(j, f2, g2)
        assert p2.lengths == expected
        assert glmy_hurewicz(p2) == glmy_hurewicz(f2) + glmy_hurewicz(g2)


def test_inverse_negates_class_on_random_loops():
    rng = random.Random(83)
    done = 0
    while done < 10:
        g = random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=2)
        f = random_grid_map(rng, g, 0, (4,))
        if f is None:
            continue
        done += 1
        assert glmy_hurewicz(inverse_j(1, f)) == -glmy_hurewicz(f)


def test_minimal_path_examples():
    const = constant_grid_map(C4, 0, (4,))
    assert minimal_path(const) == (0,)
    g = winding()
    assert minimal_path(g) == (0, 1, 2, 3, 0)
    sub = subdivide(g, shrink_by_pair_insertions([8], [[3]]))
    assert minimal_path(sub) == minimal_path(g)
    with pytest.raises(WrongDimensionError):
        minimal_path(constant_grid_map(C4, 0, (2, 2)))


def test_relative_boundary_compatibility_signed():
    # For a triple grid map, the connecting map applied to its relative
    # class is minus the class of its axis-1 zero-face restriction: the
    # axis-1 face pair enters the cubical boundary with sign (-1)^1.
    rng = random.Random(41)
    cases = [winding()]
    while len(cases) < 4:
        g = random_digraph(rng, max_vertices=4, max_arrows=7, min_vertices=2)
        loop = random_grid_map(rng, g, 0, (4,))
        if loop is not None:
            cases.append(loop)
    for loop in cases:
        f = cone_triple_map(loop)
        pair = build_cubical_pair(f.target, f.sub, 3)
        xi = pair.pair.connecting_map(2)
        lhs = xi(hurewicz_class(f))
        rhs = hurewicz_class(loop)
        assert lhs == -rhs


def test_homotopy_invariance_random():
    rng = random.Random(59)
    done = 0
    while done < 20:
        g = random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=2)
        f = random_grid_map(rng, g, 0, (4,))
        if f is None:
            continue
        done += 1
        other, cert = random_certificate_chain(rng, f)
        assert verify_homotopy_certificate(f, other, cert)
        assert glmy_hurewicz(f) == glmy_hurewicz(other)
        h = random_shrinking(rng, f.lengths)
        assert hurewicz_class(f) == hurewicz_class(subdivide(f, h))


def test_grid_map_json_roundtrip():
    g = winding()
    blob = json.dumps(grid_map_to_json(g))
    again = grid_map_from_json(json.loads(blob))
    assert again.values == tuple(str(v) for v in g.values)
    assert again.mode == "pair" and again.base == "0"
    assert json.dumps(grid_map_to_json(again)) == json.dumps(grid_map_to_json(again))

    f = cone_triple_map(g)
    data = grid_map_to_json(f)
    again = grid_map_from_json(data)
    assert again.mode == "triple"
    assert again.sub is not None and again.sub.n_vertices == 4

    steps = [CertificateStep(shrink_by_pair_insertions([8], [[4]]), None, "fwd")]
    blob = certificate_to_json(steps)
    parsed = certificate_from_json(blob)
    assert parsed[0].left.tables == steps[0].left.tables
    assert parsed[0].direction == "fwd"


def test_hurewicz_classes_validate_once(monkeypatch):
    calls = []
    check = grids.grid_map_violation

    def counted(f):
        calls.append(f)
        return check(f)

    monkeypatch.setattr(grids, "grid_map_violation", counted)
    for fn in (hurewicz_class, glmy_hurewicz):
        calls.clear()
        fn(winding())
        assert len(calls) == 1
    bad = GridMap((standard_line(2),), (0, 2, 0), C4, "pair", 0)
    for fn in (hurewicz_class, glmy_hurewicz):
        with pytest.raises(InvalidGridMapError):
            fn(bad)


def test_builders_share_cache_entries_across_spellings():
    for builder in (build_omega_complex, build_omega_pair, build_cubical_complex, build_cubical_pair):
        builder.cache_clear()
    hurewicz_class(winding())
    glmy_hurewicz(winding())
    before = (build_omega_complex.cache_info(), build_cubical_complex.cache_info())
    comparison_L(C4, 1)
    after = (build_omega_complex.cache_info(), build_cubical_complex.cache_info())
    for b, a in zip(before, after):
        assert (a.hits, a.misses) == (b.hits + 1, b.misses)
    oc = build_omega_complex(C4, 2)
    assert build_omega_complex(C4, 2, False) is oc
    assert build_omega_complex(C4, maxdeg=2, reduced=False) is oc
    pair = build_omega_pair(cone(C4, "+a"), C4, 2)
    assert pair.sub is oc

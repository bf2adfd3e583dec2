import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_homology import grids
from digraph_homology.cubes import (
    CubicalChain,
    SingularCube,
    build_cubical_complex,
    build_cubical_pair,
    comparison_L,
    iota,
    is_degenerate,
)
from digraph_homology.chains import NotACycleError
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
    glmy_hurewicz,
    grid_map_from_json,
    grid_map_to_json,
    grid_map_violation,
    hurewicz_chain,
    hurewicz_class,
    inverse_j,
    loop_h_prime,
    require_valid,
    shrink_by_pair_insertions,
    subdivide,
    validate_grid_map,
    verify_homotopy_certificate,
    verify_one_step,
)
from digraph_homology.paths import build_omega_complex, build_omega_pair
from digraph_homology import randomgen
from digraph_homology.randomgen import (
    random_certificate_chain,
    random_digraph,
    random_direct_move,
    random_grid_map,
    random_shrinking,
)
import oracles
from oracles import find_certificate

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
    # the loop with its stationary repeats collapsed
    assert tuple(v for v, _ in itertools.groupby(double.values)) == (0, 1, 2, 3, 0, 1, 2, 3, 0)

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
    # a side without a shrinking map is compared as it is
    back = [CertificateStep(None, shrink_by_pair_insertions([8], [[4]]), "bwd")]
    assert verify_homotopy_certificate(sub, g, back)
    assert not verify_homotopy_certificate(sub, g, [CertificateStep(None, None, "bwd")])
    assert verify_homotopy_certificate(g, g, [])


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


# --- flat-offset kernel against per-index references --------------------------

COMPLETE = build_digraph(range(4), [(i, j) for i in range(4) for j in range(4) if i != j])
COMPLETE_SUB = build_digraph(range(2), [(0, 1), (1, 0)])


def free_grid_map(rng: random.Random, specs, mode: str) -> GridMap:
    """A valid grid map on lines of any orientation into the complete
    digraph on 4 vertices: values are free up to the mode's conditions."""
    lengths = [ax.length for ax in specs]
    template = GridMap(tuple(specs), (0,) * grids._size_of(lengths), COMPLETE)
    values = []
    for idx in oracles.indices(template):
        if mode == "pair" and oracles.on_outer_boundary(idx, lengths):
            values.append(0)
        elif mode == "triple" and oracles.on_collapsed_part(idx, lengths):
            values.append(0)
        elif mode == "triple" and oracles.on_outer_boundary(idx, lengths):
            values.append(rng.randrange(2))
        else:
            values.append(rng.randrange(4))
    base = None if mode == "absolute" else 0
    sub = COMPLETE_SUB if mode == "triple" else None
    return GridMap(tuple(specs), tuple(values), COMPLETE, mode, base, sub)


def reference_hurewicz_terms(f: GridMap) -> list:
    """The cell decomposition read corner by corner through `value`."""
    n = f.dims
    terms: dict = {}
    for cell in itertools.product(*(range(m) for m in f.lengths)):
        forward = [f.axes[k].forward_at(i) for k, i in enumerate(cell)]
        corners = []
        for c in range(2**n):
            bits = [(c >> (n - 1 - k)) & 1 for k in range(n)]
            idx = [i + (b if fw else 1 - b) for i, b, fw in zip(cell, bits, forward)]
            corners.append(f.value(idx))
        cube = SingularCube(n, tuple(corners), f.target)
        terms[cube] = terms.get(cube, 0) + (-1) ** forward.count(False)
    return list(CubicalChain(n, terms).terms.items())


def test_hurewicz_chain_matches_per_corner_reference():
    rng = random.Random(61)
    for n in range(1, 5):
        for mode in grids.MODES:
            for trial in range(6):
                specs = []
                for _ in range(n):
                    m = rng.randint(1, 4 if n < 3 else 2)
                    pattern = "".join(rng.choice("FB") for _ in range(m))
                    specs.append(standard_line(m) if trial % 2 else LineSpec(m, pattern))
                f = free_grid_map(rng, specs, mode)
                assert grid_map_violation(f) is None
                assert list(hurewicz_chain(f).terms.items()) == reference_hurewicz_terms(f)


def reference_violation(f: GridMap):
    """Per-index copy of the grid-map conditions, read through `value`."""
    g = f.target
    for v in f.values:
        if not g.has_vertex(v):
            return f"value {v!r} is not a vertex of the target"
    lengths = f.lengths
    for idx in oracles.indices(f):
        for k in range(f.dims):
            if idx[k] >= lengths[k]:
                continue
            nxt = list(idx)
            nxt[k] += 1
            if f.axes[k].forward_at(idx[k]):
                src, dst = f.value(idx), f.value(nxt)
            else:
                src, dst = f.value(nxt), f.value(idx)
            if src != dst and not g.has_arrow(src, dst):
                return (
                    f"axis {k + 1} arrow at {tuple(idx)} maps to "
                    f"{src!r} -> {dst!r}, which is not an arrow"
                )
    if f.mode == "absolute":
        return None
    if f.base is None:
        return "pair/triple mode requires a basepoint"
    if not g.has_vertex(f.base):
        return f"basepoint {f.base!r} is not a vertex of the target"
    if f.mode == "pair":
        for idx in oracles.indices(f):
            if oracles.on_outer_boundary(idx, lengths) and f.value(idx) != f.base:
                return f"boundary vertex {idx} maps to {f.value(idx)!r}, not the basepoint"
        return None
    if f.sub is None:
        return "triple mode requires a subdigraph"
    if not (set(f.sub.vertices) <= set(g.vertices) and set(f.sub.arrows) <= set(g.arrows)):
        return "the constraint subdigraph is not a subdigraph of the target"
    if not f.sub.has_vertex(f.base):
        return "basepoint must lie in the constraint subdigraph"
    for idx in oracles.indices(f):
        if oracles.on_collapsed_part(idx, lengths) and f.value(idx) != f.base:
            return f"vertex {idx} on the collapsed part maps to {f.value(idx)!r}, not the basepoint"
        if oracles.on_outer_boundary(idx, lengths) and not f.sub.has_vertex(f.value(idx)):
            return f"boundary vertex {idx} maps outside the constraint subdigraph"
    for idx in oracles.indices(f):
        if not oracles.on_outer_boundary(idx, lengths):
            continue
        for k in range(f.dims):
            if idx[k] >= lengths[k]:
                continue
            nxt = list(idx)
            nxt[k] += 1
            if not oracles.on_outer_boundary(nxt, lengths):
                continue
            if not any(j != k and idx[j] in (0, lengths[j]) for j in range(f.dims)):
                continue
            if f.axes[k].forward_at(idx[k]):
                src, dst = f.value(idx), f.value(tuple(nxt))
            else:
                src, dst = f.value(tuple(nxt)), f.value(idx)
            if src != dst and not f.sub.has_arrow(src, dst):
                return (
                    f"boundary arrow at {tuple(idx)} maps to {src!r} -> {dst!r}, "
                    "which is not an arrow of the constraint subdigraph"
                )
    return None


CONE_C4 = cone(C4, "+a")
SHAPES = ((2,), (4,), (2, 2), (4, 2), (2, 4), (2, 2, 2))


def random_valid_map(rng: random.Random, mode: str, lengths) -> GridMap:
    """A random valid map, or the constant map when the fill finds none."""
    if mode == "triple":
        target, sub = CONE_C4, C4
    else:
        target, sub = random_digraph(rng, max_vertices=4, max_arrows=8, min_vertices=2), None
    f = random_grid_map(rng, target, 0, lengths, mode, sub, tries=20)
    return f if f is not None else constant_grid_map(target, 0, lengths, mode, sub)


@settings(max_examples=150, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(grids.MODES),
    st.sampled_from(SHAPES),
    st.integers(1, 4),
)
def test_grid_map_violation_matches_per_index_reference(rng, mode, lengths, mutations):
    f = random_valid_map(rng, mode, lengths)
    assert grid_map_violation(f) == reference_violation(f) is None
    # mutate boundary positions half of the time, where most conditions live
    boundary = [p for p, idx in enumerate(oracles.indices(f)) if oracles.on_outer_boundary(idx, lengths)]
    values = list(f.values)
    for _ in range(mutations):
        p = rng.choice(boundary) if rng.random() < 0.5 else rng.randrange(len(values))
        values[p] = rng.choice(f.target.vertices)
        g = f.with_values(values)
        assert grid_map_violation(g) == reference_violation(g)
    values[rng.randrange(len(values))] = rng.choice([*f.target.vertices, "zz"])
    # non-standard orientations and broken mode data, read through the same check
    specs = tuple(LineSpec(m, "".join(rng.choice("FB") for _ in range(m))) for m in lengths)
    h = GridMap(
        rng.choice([specs, f.axes]),
        tuple(values),
        f.target,
        f.mode,
        rng.choice([f.base, None, "zz"]),
        rng.choice([f.sub, None, COMPLETE_SUB, f.target, build_digraph(f.target.vertices, [])]),
    )
    assert grid_map_violation(h) == reference_violation(h)


def test_grid_map_violation_matches_reference_on_every_single_change():
    triple = cone_triple_map(winding())
    discrete = build_digraph(C4.vertices, [])
    maps = [
        winding(),
        constant_grid_map(C4, 0, (2, 2)),
        triple,
        GridMap(triple.axes, triple.values, triple.target, "triple", triple.base, discrete),
    ]
    for f in maps:
        for p in range(f.size):
            for v in f.target.vertices:
                values = list(f.values)
                values[p] = v
                g = f.with_values(values)
                assert grid_map_violation(g) == reference_violation(g)


def test_grid_map_violation_names_the_axis_before_an_empty_one():
    # an axis of length 0 repeats the row-major stride of the axis before it
    violations = set()
    for lengths in ((2, 0), (2, 0, 0), (0, 2), (1, 0, 2)):
        f = constant_grid_map(C4, 0, lengths, mode="absolute")
        for p in range(f.size):
            for v in C4.vertices:
                values = list(f.values)
                values[p] = v
                g = f.with_values(values)
                violations.add(grid_map_violation(g))
                assert grid_map_violation(g) == reference_violation(g)
    assert "axis 1 arrow at (0, 0) maps to 0 -> 2, which is not an arrow" in violations


@pytest.mark.parametrize("mode", grids.MODES)
def test_grid_tables_match_the_per_point_build(mode):
    rng = random.Random(f"tables:{mode}")
    for lengths in ((), (0,), (3,), (2, 0), (0, 2), (1, 0, 2), (2, 3, 1), (4, 2, 2)):
        standard = tuple(standard_line(m) for m in lengths)
        free = tuple(LineSpec(m, "".join(rng.choice("FB") for _ in range(m))) for m in lengths)
        for axes in (standard, free):
            assert grids._grid_tables.__wrapped__(axes) == oracles.grid_tables_per_point(axes)
            if not axes:
                continue
            f = free_grid_map(rng, axes, mode)
            values = list(f.values)
            values[rng.randrange(f.size)] = rng.randrange(4)
            for h in (f, f.with_values(values)):
                assert grid_map_violation(h) == reference_violation(h)


@pytest.mark.parametrize("mode", grids.MODES)
def test_direct_homotopy_matches_the_per_index_relation(mode):
    rng = random.Random(f"relation:{mode}")
    seen = set()  # (whether a fixed position moved, the relation) of the valid pairs
    for lengths in SHAPES:
        for _ in range(40):
            f = random_valid_map(rng, mode, lengths)
            tables = grids._grid_tables(f.axes)
            interior = [p for p in range(f.size) if p not in tables.boundary]
            places = rng.choice([sorted(tables.boundary), tables.collapsed, interior])
            values = list(f.values)
            # one to three moves, each to a neighbour of the old value or anywhere
            for _ in range(rng.randint(1, 3)):
                p = rng.choice(places)
                t, v = f.target, values[p]
                values[p] = rng.choice([*t.out_neighbors(v), *t.in_neighbors(v), *t.vertices])
            g = f.with_values(values)
            fixed_moved = mode != "absolute" and any(f.values[p] != values[p] for p in tables.boundary)
            for a, b in ((f, g), (g, f)):
                expected = oracles.relation(a, b)
                assert grids._relation(a, b) == expected
                if validate_grid_map(g):
                    assert direct_homotopy(a, b) == expected
                    seen.add((fixed_moved, expected))
                else:
                    with pytest.raises(InvalidGridMapError):
                        direct_homotopy(a, b)
    relations = {frozenset(), frozenset({"fwd"}), frozenset({"bwd"}), frozenset({"fwd", "bwd"})}
    # a move of the fixed boundary, possible in triple mode only, relates nothing
    expected_seen = {(False, rel) for rel in relations}
    if mode == "triple":
        expected_seen.add((True, frozenset()))
    assert seen == expected_seen


def random_shrink_onto(draw_bits, axes) -> ShrinkingMap:
    """A shrinking map onto the given lines: a walk that stays (with an
    arrow of either direction) or advances along the target's arrow, at
    most 2m + 4 steps onto a line of length m."""
    sources, tables = [], []
    for dst in axes:
        tab, pattern = [0], ""
        while tab[-1] < dst.length or (len(pattern) < 2 * dst.length + 4 and draw_bits(2) == 3):
            if tab[-1] < dst.length and (len(pattern) >= 2 * dst.length + 4 or not draw_bits(1)):
                pattern += dst.pattern[tab[-1]]
                tab.append(tab[-1] + 1)
            else:
                pattern += "FB"[draw_bits(1)]
                tab.append(tab[-1])
        sources.append(LineSpec(len(pattern), pattern))
        tables.append(tuple(tab))
    return ShrinkingMap(tuple(sources), tuple(axes), tuple(tables))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(grids.MODES), st.sampled_from(SHAPES))
def test_subdivision_of_a_valid_map_is_valid(rng, mode, lengths):
    f = random_valid_map(rng, mode, lengths)
    h = random_shrink_onto(rng.getrandbits, f.axes)
    assert grid_map_violation(subdivide(f, h)) is None


def test_inverse_rejects_the_collapsed_axis_in_triple_mode():
    rng = random.Random(0)
    for _ in range(30):
        f = random_grid_map(rng, CONE_C4, 0, (2, 2), "triple", C4, tries=20)
        if f is None:
            continue
        with pytest.raises(CoordinateOutOfRangeError, match="legal range 2..2"):
            inverse_j(1, f)
        assert validate_grid_map(inverse_j(2, f))
    f = cone_triple_map(winding())
    with pytest.raises(CoordinateOutOfRangeError):
        inverse_j(1, f)
    assert inverse_j(2, inverse_j(2, f)) == f


def test_certificate_entry_points_validate_each_map_once(monkeypatch):
    calls = []
    check = grids.grid_map_violation

    def counted(f):
        calls.append(f)
        return check(f)

    monkeypatch.setattr(grids, "grid_map_violation", counted)
    rng = random.Random(5)
    f = winding()
    g, cert = random_certificate_chain(rng, f, max_steps=3)
    calls.clear()
    assert verify_homotopy_certificate(f, g, cert)
    assert len(calls) == 2 + sum(step.next_map is not None for step in cert)

    c2 = constant_grid_map(C4, 0, (2,))
    c4m = extend(c2, (4,))
    calls.clear()
    assert find_certificate(c2, c4m) is not None
    assert len(calls) == 2

    bad = GridMap((standard_line(2),), (0, 2, 0), C4, "pair", 0)
    assert not verify_homotopy_certificate(bad, bad, [CertificateStep(None, None, "fwd")])
    with pytest.raises(InvalidGridMapError):
        find_certificate(bad, c2)
    with pytest.raises(InvalidGridMapError):
        direct_homotopy(bad, bad)


# --- each map is checked once, when it is made -------------------------------


def count_checks(monkeypatch) -> list:
    """The maps the private validity check runs on from now on."""
    calls = []
    check = grids._violation

    def counted(f):
        calls.append(f)
        return check(f)

    monkeypatch.setattr(grids, "_violation", counted)
    return calls


def test_the_check_runs_once_per_construction(monkeypatch):
    calls = count_checks(monkeypatch)
    f = winding()
    bad = GridMap((standard_line(2),), (0, 2, 0), C4, "pair", 0)  # made, not refused
    moved = f.with_values(f.values)
    assert calls == [f, bad, moved]
    calls.clear()
    assert grid_map_violation(bad) == "axis 1 arrow at (0,) maps to 0 -> 2, which is not an arrow"
    assert grid_map_violation(f) is None and validate_grid_map(f) and not validate_grid_map(bad)
    require_valid(f)
    with pytest.raises(InvalidGridMapError):
        require_valid(bad)
    assert calls == []
    # a subdivision of a valid map inherits its result; one of an invalid map is checked
    assert validate_grid_map(subdivide(f, shrink_by_pair_insertions([8], [[2, 6]])))
    assert calls == []
    bad_sub = subdivide(bad, shrink_by_pair_insertions([2], [[1]]))
    assert calls == [bad_sub] and not validate_grid_map(bad_sub)


def test_queries_read_the_recorded_result(monkeypatch):
    f = winding()
    g, cert = random_certificate_chain(random.Random(5), f, max_steps=3)
    h = shrink_by_pair_insertions([8], [[2, 6]])
    triple = cone_triple_map(winding())
    calls = count_checks(monkeypatch)
    for m in (f, g, triple):
        hurewicz_class(m)
        glmy_hurewicz(m)
    assert verify_homotopy_certificate(f, g, cert)
    assert verify_one_step(f, f, h, h, "bwd")
    assert verify_one_step(subdivide(f, h), f, None, h)
    assert direct_homotopy(f, f) == {"fwd", "bwd"}
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(grids.MODES), st.sampled_from(SHAPES))
def test_a_subdivision_rebuilt_through_the_constructor_is_valid(rng, mode, lengths):
    f = random_valid_map(rng, mode, lengths)
    sub = subdivide(f, random_shrink_onto(rng.getrandbits, f.axes))
    rebuilt = GridMap(sub.axes, sub.values, sub.target, sub.mode, sub.base, sub.sub)
    assert grid_map_violation(rebuilt) is None and rebuilt == sub


@pytest.mark.parametrize("mode", grids.MODES)
def test_random_generators_match_the_fully_checked_ones(mode, monkeypatch):
    lengths_drawn = ((2,), (4,), (2, 2), (4, 2), (2, 2, 2))
    for seed in range(25):
        if mode == "triple":
            target, sub = CONE_C4, C4
        else:
            target, sub = random_digraph(random.Random(seed), 4, 8, min_vertices=2), None
        new, old = random.Random(seed), random.Random(seed)
        for lengths in lengths_drawn:
            f = random_grid_map(new, target, 0, lengths, mode, sub, tries=20)
            assert f == oracles.random_grid_map(old, target, 0, lengths, mode, sub, tries=20)
            f = f or constant_grid_map(target, 0, lengths, mode, sub)
            for _ in range(3):
                move = random_direct_move(new, f)
                assert move == oracles.random_direct_move(old, f)
                if move is not None:
                    assert grid_map_violation(move[0]) is None
                    f = move[0]
            chain = random_certificate_chain(new, f)
            with monkeypatch.context() as patch:
                patch.setattr(randomgen, "random_direct_move", oracles.random_direct_move)
                assert chain == random_certificate_chain(old, f)
            assert verify_homotopy_certificate(f, *chain)
        assert new.random() == old.random()


# --- the class route against the chain route ----------------------------------


def winding_loop(m: int, w: int, mode: str = "pair") -> GridMap:
    """A based loop on the standard line of length 2m|w| winding w times
    around the m-cycle: one step per forward arrow for w > 0, one per
    backward arrow for w < 0."""
    values = [0]
    for i in range(2 * m * abs(w)):
        step = 1 if w > 0 and i % 2 == 0 else -1 if w < 0 and i % 2 else 0
        values.append((values[-1] + step) % m)
    base = 0 if mode == "pair" else None
    return GridMap((standard_line(len(values) - 1),), tuple(values), cycle_digraph(m), mode, base)


def chain_route_classes(f: GridMap):
    """The cubical and path classes read off `hurewicz_chain`."""
    n, ch = f.dims, hurewicz_chain(f)
    if f.mode == "triple":
        cubical = build_cubical_pair(f.target, f.sub, n + 1)
        path = build_omega_pair(f.target, f.sub, n + 1)
        return (
            cubical.quotient_class(ch),
            path.quotient_class(iota(ch)),
        )
    cubical = build_cubical_complex(f.target, n + 1)
    return cubical.class_of(ch), build_omega_complex(f.target, n + 1).class_of(iota(ch))


def test_class_route_matches_chain_route():
    known = []  # (map, winding number of its class)
    for m in (3, 4, 5, 6):
        loops = {w: winding_loop(m, w) for w in (1, -1, 2, -2)}
        known += [(f, w) for w, f in loops.items()]
        known += [(winding_loop(m, w, "absolute"), w) for w in (1, -2)]
        known += [(concat_mu(1, loops[1], loops[2]), 3), (concat_mu(1, loops[-1], loops[1]), 0)]
        known += [(inverse_j(1, loops[-2]), 2), (inverse_j(1, loops[1]), -1)]
    maps = [f for f, _ in known]
    for w in (1, -2):
        triple = cone_triple_map(winding_loop(4, w))
        maps += [triple, inverse_j(2, triple), concat_mu(2, triple, triple)]
    rng = random.Random(97)
    for mode in grids.MODES:
        for lengths in ((2,), (4,), (2, 2), (4, 2)):
            maps += [random_valid_map(rng, mode, lengths) for _ in range(3)]
    nonzero = 0
    for f in maps:
        try:
            expected = chain_route_classes(f)
        except NotACycleError:
            assert f.mode == "absolute"
            for route in (hurewicz_class, glmy_hurewicz):
                with pytest.raises(NotACycleError):
                    route(f)
            continue
        assert (hurewicz_class(f), glmy_hurewicz(f)) == expected
        nonzero += not expected[0].is_zero()
    # every known map with w != 0 and the six cone fillers have nonzero classes
    assert nonzero >= sum(w != 0 for _, w in known) + 6
    for f, w in known:
        assert hurewicz_class(f).coords == glmy_hurewicz(f).coords == (w,)


# --- the cube tables ------------------------------------------------------------


def clear_builders():
    for builder in (build_omega_complex, build_omega_pair, build_cubical_complex, build_cubical_pair):
        builder.cache_clear()


def class_route_maps() -> list:
    """The maps of `test_class_route_matches_chain_route`, in its order."""
    maps = []
    for m in (3, 4, 5, 6):
        loops = {w: winding_loop(m, w) for w in (1, -1, 2, -2)}
        maps += loops.values()
        maps += [winding_loop(m, w, "absolute") for w in (1, -2)]
        maps += [concat_mu(1, loops[1], loops[2]), concat_mu(1, loops[-1], loops[1])]
        maps += [inverse_j(1, loops[-2]), inverse_j(1, loops[1])]
    for w in (1, -2):
        triple = cone_triple_map(winding_loop(4, w))
        maps += [triple, inverse_j(2, triple), concat_mu(2, triple, triple)]
    rng = random.Random(97)
    for mode in grids.MODES:
        for lengths in ((2,), (4,), (2, 2), (4, 2)):
            maps += [random_valid_map(rng, mode, lengths) for _ in range(3)]
    return maps


def table_route_classes(f: GridMap):
    try:
        return hurewicz_class(f), glmy_hurewicz(f)
    except NotACycleError:
        return NotACycleError


def count_misses(monkeypatch) -> list:
    """Patch both theories' `cube_coords` and the lattice solve of the
    path theory to record their calls; returns the record."""
    from digraph_homology.cubes import CubicalComplex
    from digraph_homology.paths import OmegaComplex

    calls = []
    for cls, name in ((CubicalComplex, "cube_coords"), (OmegaComplex, "cube_coords"), (OmegaComplex, "_terms_coords")):
        method = getattr(cls, name)

        def counted(self, *args, method=method, name=f"{cls.__name__}.{name}"):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_cube_tables_give_the_chain_route_classes_in_any_order():
    maps = class_route_maps()
    clear_builders()
    expected = []
    for f in maps:
        try:
            expected.append(chain_route_classes(f))
        except NotACycleError:
            expected.append(NotACycleError)
    assert sum(e is NotACycleError for e in expected) < len(maps)

    def read_in(order):
        got = {p: table_route_classes(maps[p]) for p in order}
        assert [got[p] for p in range(len(maps))] == expected

    order = list(range(len(maps)))
    random.Random(5).shuffle(order)
    read_in(order)
    read_in(order[::-1])
    clear_builders()
    read_in(order)


def test_pair_and_triple_reads_share_the_target_table(monkeypatch):
    clear_builders()
    triple = cone_triple_map(winding_loop(4, 1))
    m = triple.axes[1].length
    # the cone filler's upper two rows, with a constant first row: a pair map
    apex_row = tuple("+a" if 1 <= j <= m - 1 else 0 for j in range(m + 1))
    pair = GridMap(triple.axes, (0,) * (m + 1) + apex_row + (0,) * (m + 1), CONE_C4, "pair", 0)
    assert validate_grid_map(pair)
    for build_complex, build_pair in ((build_cubical_complex, build_cubical_pair), (build_omega_complex, build_omega_pair)):
        dc, dp = build_complex(CONE_C4, 3), build_pair(CONE_C4, C4, 3)
        assert dp.ambient.cube_tables is dc.cube_tables is dc.reduced.cube_tables
    calls = count_misses(monkeypatch)
    pair_cubes = {cube for cube, _ in grids._cells(pair)}
    triple_cubes = {cube for cube, _ in grids._cells(triple)}
    assert pair_cubes & triple_cubes and triple_cubes - pair_cubes
    hurewicz_class(pair)
    assert calls.count("CubicalComplex.cube_coords") == len(pair_cubes)
    calls.clear()
    hurewicz_class(triple)
    assert calls.count("CubicalComplex.cube_coords") == len(triple_cubes - pair_cubes)
    calls.clear()
    glmy_hurewicz(triple)
    assert calls.count("OmegaComplex.cube_coords") == len(triple_cubes)
    calls.clear()
    glmy_hurewicz(pair)
    assert calls.count("OmegaComplex.cube_coords") == len(pair_cubes - triple_cubes)
    assert set(build_cubical_complex(CONE_C4, 3).cube_tables[2]) == pair_cubes | triple_cubes


def test_a_second_read_solves_nothing(monkeypatch):
    clear_builders()
    calls = count_misses(monkeypatch)
    maps = [winding_loop(5, -2), cone_triple_map(winding_loop(4, 1)), random_valid_map(random.Random(3), "pair", (4, 2))]
    for f in maps:
        first = table_route_classes(f)
        assert {"OmegaComplex._terms_coords", "OmegaComplex.cube_coords", "CubicalComplex.cube_coords"} <= set(calls)
        calls.clear()
        assert table_route_classes(f) == first
        assert calls == []


def test_cache_clear_leaves_new_complexes_with_empty_tables():
    hurewicz_class(winding())
    glmy_hurewicz(winding())
    old = [build(C4, 2) for build in (build_cubical_complex, build_omega_complex)]
    assert all(dc.cube_tables[1] for dc in old)
    clear_builders()
    for build, dc in zip((build_cubical_complex, build_omega_complex), old):
        new = build(C4, 2)
        assert new is not dc and not any(new.cube_tables.values())

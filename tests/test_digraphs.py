import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_homology.digraphs import (
    Digraph,
    DigraphMap,
    DuplicateArrowError,
    LabelCollisionError,
    LineSpec,
    LoopArrowError,
    UnknownVertexError,
    box_product,
    build_digraph,
    check_digraph_map,
    cone,
    constant_map,
    cycle_digraph,
    digraph_from_json,
    digraph_to_json,
    identity_map,
    is_subdigraph,
    make_grid,
    make_line,
    relabel_to_strings,
    standard_line,
    suspension,
)


@st.composite
def small_digraphs(draw, max_vertices=4):
    n = draw(st.integers(1, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_digraph(range(n), sorted(chosen))


def test_build_digraph_examples():
    one = build_digraph([0], [])
    assert one.n_vertices == 1 and one.n_arrows == 0

    c4 = build_digraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4 == cycle_digraph(4)

    with pytest.raises(LoopArrowError):
        build_digraph([0], [(0, 0)])
    with pytest.raises(DuplicateArrowError):
        build_digraph([0, 1], [(0, 1), (0, 1)])
    with pytest.raises(UnknownVertexError):
        build_digraph([0, 1], [(0, 2)])


def test_check_digraph_map_examples():
    c4 = cycle_digraph(4)
    assert check_digraph_map(identity_map(c4))
    point = build_digraph([0], [])
    assert check_digraph_map(constant_map(c4, point, 0))

    # 0 -> 2 is not an arrow of C4: exhaustive scan over the arrow set
    j1 = make_line(standard_line(1))
    f = DigraphMap.from_dict(j1, c4, {0: 0, 1: 2})
    assert not c4.has_arrow(0, 2)
    assert check_digraph_map(f) is False


@settings(max_examples=60, deadline=None)
@given(small_digraphs(), small_digraphs(), st.randoms(use_true_random=False))
def test_composition_of_valid_maps_is_valid(g, h, rng):
    # random digraph maps g -> h found by rejection; identity always works
    assert check_digraph_map(identity_map(g))
    for _ in range(10):
        mapping = {v: rng.choice(h.vertices) for v in g.vertices}
        f = DigraphMap.from_dict(g, h, mapping)
        if check_digraph_map(f):
            c = f.compose(identity_map(g))
            assert check_digraph_map(c)
            break


def test_box_product_counts():
    j1 = make_line(standard_line(1))
    sq = box_product(j1, j1)
    assert (sq.n_vertices, sq.n_arrows) == (4, 4)

    c4 = cycle_digraph(4)
    tor = box_product(c4, c4)
    assert (tor.n_vertices, tor.n_arrows) == (16, 32)

    point = build_digraph(["x"], [])
    unit = box_product(c4, point)
    relabeled = build_digraph(
        [(v, "x") for v in c4.vertices], [((a, "x"), (b, "x")) for a, b in c4.arrows]
    )
    assert unit == relabeled


@settings(max_examples=40, deadline=None)
@given(small_digraphs(3), small_digraphs(3))
def test_box_product_counting_formula(g, h):
    p = box_product(g, h)
    assert p.n_vertices == g.n_vertices * h.n_vertices
    assert p.n_arrows == g.n_arrows * h.n_vertices + g.n_vertices * h.n_arrows


@settings(max_examples=25, deadline=None)
@given(small_digraphs(3), small_digraphs(3), small_digraphs(2))
def test_box_product_associative_commutative_up_to_relabel(g, h, k):
    left = box_product(box_product(g, h), k)
    right = box_product(g, box_product(h, k))
    relabel = build_digraph(
        [((v[0], v[1][0]), v[1][1]) for v in right.vertices],
        [
            (((a[0], a[1][0]), a[1][1]), ((b[0], b[1][0]), b[1][1]))
            for a, b in right.arrows
        ],
    )
    assert sorted(map(str, left.vertices)) == sorted(map(str, relabel.vertices))
    assert sorted(map(str, left.arrows)) == sorted(map(str, relabel.arrows))

    gh = box_product(g, h)
    hg = box_product(h, g)
    swapped = build_digraph(
        [(v[1], v[0]) for v in hg.vertices],
        [((a[1], a[0]), (b[1], b[0])) for a, b in hg.arrows],
    )
    assert sorted(map(str, gh.vertices)) == sorted(map(str, swapped.vertices))
    assert sorted(map(str, gh.arrows)) == sorted(map(str, swapped.arrows))


def test_cone_examples():
    # the 4-vertex square 0->1, 0->3, 1->2, 2->3
    square = build_digraph([0, 1, 2, 3], [(0, 1), (0, 3), (1, 2), (2, 3)])
    cx = cone(square)
    assert (cx.n_vertices, cx.n_arrows) == (5, 8)

    point = build_digraph([0], [])
    cp = cone(point)
    j1 = make_line(standard_line(1))
    assert cp.n_vertices == j1.n_vertices and cp.n_arrows == j1.n_arrows

    c4 = cycle_digraph(4)
    assert (cone(c4).n_vertices, cone(c4).n_arrows) == (5, 8)
    with pytest.raises(LabelCollisionError):
        cone(c4, apex=0)


def test_suspension_examples():
    point = build_digraph([0], [])
    sp = suspension(point)
    assert (sp.n_vertices, sp.n_arrows) == (3, 2)

    square = build_digraph([0, 1, 2, 3], [(0, 1), (0, 3), (1, 2), (2, 3)])
    assert (suspension(square).n_vertices, suspension(square).n_arrows) == (6, 12)

    c4 = cycle_digraph(4)
    assert (suspension(c4).n_vertices, suspension(c4).n_arrows) == (6, 12)


@settings(max_examples=40, deadline=None)
@given(small_digraphs())
def test_suspension_is_two_glued_cones(x):
    sx = suspension(x)
    assert sx.n_vertices == x.n_vertices + 2
    assert sx.n_arrows == x.n_arrows + 2 * x.n_vertices
    ca = cone(x, "+a")
    cb = cone(x, "+b")
    assert set(sx.arrows) == set(ca.arrows) | set(cb.arrows)
    assert set(ca.arrows) & set(cb.arrows) == set(x.arrows)
    assert is_subdigraph(ca, sx) and is_subdigraph(cb, sx)


def test_make_line_examples():
    j2 = standard_line(2)
    assert j2.is_standard and j2.pattern == "FB"
    assert not LineSpec(2, "FF").is_standard

    # the length-3 line 0->1, 2->1, 2->3
    i3 = make_line(LineSpec(3, "FBF"))
    assert set(i3.arrows) == {(0, 1), (2, 1), (2, 3)}

    grid = make_grid([standard_line(2), standard_line(2)])
    assert (grid.n_vertices, grid.n_arrows) == (9, 12)


def test_json_roundtrip():
    c4 = relabel_to_strings(build_digraph(range(4), [(i, (i + 1) % 4) for i in range(4)], base=0))
    blob = json.dumps(digraph_to_json(c4))
    again = digraph_from_json(json.loads(blob))
    assert again == c4
    assert json.dumps(digraph_to_json(again)) == blob


def test_tuple_labels_render_canonically():
    g = box_product(build_digraph([0, 1], [(0, 1)]), build_digraph(["x"], []))
    data = digraph_to_json(g)
    assert data["vertices"] == ["(0,x)", "(1,x)"]

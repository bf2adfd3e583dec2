"""Metamorphic checks: relations between groups of related inputs that
hold whatever the groups are."""

import random
from itertools import combinations_with_replacement

import pytest

from digraph_homology.acceptance import _random_with_h1
from digraph_homology.cubes import cubical_homology
from digraph_homology.digraphs import box_product, build_digraph, cycle_digraph, suspension
from digraph_homology.paths import path_homology
from digraph_homology.randomgen import random_digraph


def shuffled_string_relabelling(g, rng):
    """g with its vertex and arrow lists shuffled and each vertex renamed to
    a string that does not follow the old order."""
    names = [f"v{k}" for k in range(len(g.vertices))]
    rng.shuffle(names)
    name = dict(zip(g.vertices, names))
    vertices = [name[v] for v in g.vertices]
    arrows = [(name[a], name[b]) for a, b in g.arrows]
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    return build_digraph(vertices, arrows)


@pytest.mark.parametrize("homology", [path_homology, cubical_homology])
def test_groups_do_not_depend_on_vertex_order_or_labels(homology):
    rng = random.Random(61)
    # a few of the random digraphs have H_1 = Z; the suspension of C4 has H_2 = Z
    inputs = [random_digraph(rng, max_vertices=6, max_arrows=10, min_vertices=3) for _ in range(12)]
    inputs.append(suspension(cycle_digraph(4)))
    for g in inputs:
        h = shuffled_string_relabelling(g, rng)
        for n in (0, 1, 2):
            for reduced in (False, True):
                assert homology(h, n, reduced=reduced) == homology(g, n, reduced=reduced), (g, n)


def test_path_homology_ranks_of_box_products_follow_kunneth():
    # Grigor'yan-Muranov-Yau: over a field, H(G □ H) = H(G) ⊗ H(H) for path homology
    line = build_digraph([0, 1], [(0, 1)])
    factors = [cycle_digraph(3), cycle_digraph(4), cycle_digraph(5), line]
    factors.append(_random_with_h1(random.Random(7)))
    for g, h in combinations_with_replacement(factors, 2):
        ranks_g = [path_homology(g, i).rank for i in range(3)]
        ranks_h = [path_homology(h, j).rank for j in range(3)]
        product = box_product(g, h)
        for n in range(3):
            expected = sum(ranks_g[i] * ranks_h[n - i] for i in range(n + 1))
            assert path_homology(product, n).rank == expected, (g, h, n)

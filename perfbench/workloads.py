"""The benchmark's three workloads: inputs made from a seed, the fixed item
list of one round, and the correctness check of every item.

A workload's `setup` returns a `Workload`: its items in round order and
whether the builder caches are cleared before each item (a fresh CLI call
or a fresh query) or only at the start of each round (one library session
per round).  Every `Item.run` is one user query and is what the benchmark
times; `Item.check` runs outside the timed region on the value `run`
returned and uses only the arithmetic in `checks.py`, facts the benchmark
knows about its own inputs, and properties from the paper.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import digraph_homology as dh
from digraph_homology import cubes, grids, paths, randomgen
from digraph_homology.cli import main as cli_main
from digraph_homology.paths import build_omega_pair

import checks

BUILDERS = (
    paths.build_omega_complex,
    paths.build_omega_pair,
    cubes.build_cubical_complex,
    cubes.build_cubical_pair,
)


def clear_caches() -> None:
    for builder in BUILDERS:
        builder.cache_clear()


def cache_lookups() -> dict[str, tuple[int, int]]:
    """(hits, misses) per theory, summed over that theory's builders."""
    out = {}
    for theory, pair in (("paths", BUILDERS[:2]), ("cubes", BUILDERS[2:])):
        infos = [b.cache_info() for b in pair]
        out[theory] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    items: list[Item]
    clear_per_item: bool


def _labels(rng: random.Random, count: int) -> list[str]:
    """Distinct random vertex names, so no run depends on integer labels."""
    names: set[str] = set()
    while len(names) < count:
        names.add("v" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5)))
    return sorted(names)


def _relabel(g, names) -> "dh.Digraph":
    """The same digraph, with vertex order kept and labels replaced."""
    mapping = dict(zip(g.vertices, names))
    return dh.build_digraph(
        [mapping[v] for v in g.vertices], [(mapping[a], mapping[b]) for a, b in g.arrows]
    )


def _rotated_cycle(m: int, rng: random.Random):
    """A directed m-cycle whose vertex order starts at a seeded vertex.  Any
    start gives the same index structure, so the cost does not depend on
    the seed."""
    start = rng.randrange(m)
    order = [(start + i) % m for i in range(m)]
    return dh.build_digraph(order, [(i, (i + 1) % m) for i in order])


def _line():
    return dh.build_digraph([0, 1], [(0, 1)])


# --- boxpow -------------------------------------------------------------------

# (name, factors); a factor is a cycle length, or 0 for the one-arrow line I.
# C4^3 x C3 (192 vertices, 12.5 s for its two queries) is left out: with it a
# round took 15 s, every item was timed only twice in a run, and host noise
# moved item_s.p50 by 28% between runs.
BOX_PRODUCTS = (
    ("C4^3", (4, 4, 4)),
    ("C5^3", (5, 5, 5)),
    ("C3^4", (3, 3, 3, 3)),
    ("C4^3xI", (4, 4, 4, 0)),
)


def boxpow(seed: int, workdir: str) -> Workload:
    """H_1 and H_2 of box products of directed cycles through the CLI.

    The seed picks vertex names, each cycle factor's starting vertex and the
    order of arrows in the JSON file; the vertex order of the product is
    the canonical one, because the dense Smith form's cost depends on it
    by about 30% and the seed should not move the cost.
    """
    rng = random.Random(f"boxpow:{seed}")
    items = []
    for name, factors in BOX_PRODUCTS:
        g = None
        for m in factors:
            factor = _rotated_cycle(m, rng) if m else _line()
            g = factor if g is None else dh.box_product(g, factor)
        g = _relabel(g, _labels(rng, g.n_vertices))
        data = dh.digraph_to_json(g)
        rng.shuffle(data["arrows"])
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        cycles = sum(1 for m in factors if m)
        for n in (1, 2):
            items.append(
                Item(f"{name}:H{n}", _cli_homology(path, n), _kunneth_check(cycles, n))
            )
    return Workload(items, clear_per_item=True)


def _cli_homology(path: str, n: int):
    argv = ["homology", path, "--dim", str(n), "--json"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        return code, out.getvalue()

    return run


def _kunneth_check(cycles: int, n: int):
    """Künneth formula (Grigor'yan-Muranov-Yau 2017): H_n of a box product of
    `cycles` directed cycles and some lines I is free of rank C(cycles, n)."""

    def check(result) -> bool:
        code, text = result
        return code == 0 and json.loads(text) == {"rank": comb(cycles, n), "torsion": []}

    return check


# --- suspension ---------------------------------------------------------------

TOWER_HEIGHT = 5  # S^k C4 for k = 0..4
# (vertices, arrows) of the random digraphs, two of each shape per item.
# Their arrows come from a fixed generator and the seed gives their vertex
# names: a random digraph's cost ranged from 0.4 to 1.1 s with its
# structure, which made the round time follow the seed more than the
# program.  Pairing keeps these items above the median item.
RANDOM_SHAPES = ((4, 5), (5, 6), (6, 7))
RANDOM_PER_SHAPE = 2


def suspension(seed: int, workdir: str) -> Workload:
    """Suspension homomorphisms in both theories and their comparison square.

    Items: the path suspension map along the tower S^k C4 with the explicit
    suspension cycle and the long exact sequences of its cone and
    suspension pairs; and path and cubical suspension maps at n = 0, 1 with
    the comparison maps, on directed cycles, cycle x I and random digraphs
    with nontrivial H_1.  The seed picks every vertex name and the rotation
    of each cycle.
    """
    rng = random.Random(f"suspension:{seed}")
    items = []
    x = _relabel(_rotated_cycle(4, rng), _labels(rng, 4))
    v = x.vertices
    z = dh.PathChain(1, {(v[i], v[(i + 1) % 4]): 1 for i in range(4)})
    for k in range(TOWER_HEIGHT):
        apex_a, apex_b = f"+a{k}", f"+b{k}"
        sz = _suspend_chain(z, apex_a, apex_b)
        items.append(
            Item(f"tower:S^{k}C4", _tower_item(x, z, k + 1, apex_a, apex_b), _tower_check(sz))
        )
        z = sz
        x = dh.suspension(x, apex_a, apex_b)

    families = [(f"C{m}", [_relabel(_rotated_cycle(m, rng), _labels(rng, m))]) for m in (3, 4, 5, 6)]
    for m in (3, 4):
        g = dh.box_product(_rotated_cycle(m, rng), _line())
        families.append((f"C{m}xI", [_relabel(g, _labels(rng, g.n_vertices))]))
    structure_rng = random.Random("suspension:digraphs")
    for nv, na in RANDOM_SHAPES:
        pair = [
            _relabel(_random_with_h1(structure_rng, nv, na), _labels(rng, nv))
            for _ in range(RANDOM_PER_SHAPE)
        ]
        families.append((f"random{nv}v{na}a", pair))
    clear_caches()
    for name, digraphs in families:
        items.append(Item(f"square:{name}", _square_item(digraphs), _square_check))
    return Workload(items, clear_per_item=True)


def _suspend_chain(z, apex_a, apex_b):
    """(-1)^(n+1) (z.a - z.b): the paper's suspension of an n-cycle."""
    sign = -1 if (z.degree + 1) % 2 else 1
    terms = {}
    for path, c in z.terms.items():
        terms[path + (apex_a,)] = sign * c
        terms[path + (apex_b,)] = -sign * c
    return dh.PathChain(z.degree + 1, terms)


def _random_with_h1(rng: random.Random, nv: int, na: int):
    """The first random digraph on vertices 0..nv-1 with nontrivial H_1."""
    pairs = [(i, j) for i in range(nv) for j in range(nv) if i != j]
    while True:
        g = dh.build_digraph(range(nv), sorted(rng.sample(pairs, na)))
        if dh.path_homology(g, 1).rank > 0:
            return g


def _tower_item(x, z, n, apex_a, apex_b):
    """E: H_n(x) -> H_{n+1}(Sx) for x = S^(n-1) C4, the classes of z and of
    its suspension cycle, and the part of the long exact sequences of the
    cone and suspension pairs that runs through degrees n+1 and n."""

    def run():
        e = dh.path_suspension_map(x, n, apex_a=apex_a, apex_b=apex_b)
        sx = dh.suspension(x, apex_a, apex_b)
        sz = dh.suspension_cycle(z, x, apex_a, apex_b)
        z_class = dh.build_omega_complex(x, n + 2).class_of(z)
        sz_class = dh.build_omega_complex(sx, n + 2).class_of(sz)
        les = []
        for ambient, sub in ((dh.cone(x, apex_a), x), (sx, dh.cone(x, apex_b))):
            pair = build_omega_pair(ambient, sub, n + 2, False).pair
            les.append(
                [
                    pair.inclusion_map(n + 1),
                    pair.quotient_map(n + 1),
                    pair.connecting_map(n + 1),
                    pair.inclusion_map(n),
                    pair.quotient_map(n),
                ]
            )
        exact = [dh.verify_exactness(maps) for maps in les]
        return e, sz, z_class, sz_class, les, exact

    return run


def _tower_check(expected_sz):
    """E is an isomorphism Z -> Z, the program's suspension cycle is the
    paper's (-1)^(n+1) (z.a - z.b), E sends [z] to [Sz], and both long exact
    sequences are exact."""

    def check(result) -> bool:
        e, sz, z_class, sz_class, les, exact = result
        return (
            e.source.n_generators == e.target.n_generators == 1
            and checks.bareiss_det(e.matrix.data) in (1, -1)
            and sz == expected_sz
            and checks.apply(e, z_class.coords) == tuple(sz_class.coords)
            and abs(z_class.coords[0]) == 1
            and all(checks.sequence_exact(maps) for maps in les)
            and all(exact)
        )

    return check


def _square_item(digraphs):
    """Both suspension maps at n = 0 and n = 1 with the comparison maps on
    either side of the square L . E^c = E^p . L, for each digraph."""

    def run():
        out = []
        for x in digraphs:
            sx = dh.suspension(x)
            for n in (0, 1):
                ec = dh.cubical_suspension_map(x, n)
                ep = dh.path_suspension_map(x, n)
                l_top = dh.comparison_L(sx, n + 1)
                l_bot = dh.comparison_L(x, n, reduced=(n == 0))
                out.append((ec, ep, l_top, l_bot))
        return out

    return run


def _square_check(result) -> bool:
    return all(
        ep.source.n_generators == ep.target.n_generators
        and checks.bareiss_det(ep.matrix.data) in (1, -1)
        and checks.composite_equal(l_top, ec, ep, l_bot)
        for ec, ep, l_top, l_bot in result
    )


# --- hurewicz -----------------------------------------------------------------

LOOP_CYCLES = (3, 4, 5, 6)
# (vertices, arrows) of the small random targets of 2-D maps.  They come
# from a fixed generator, so that the seed moves the maps and not the cost
# of a quarter of them.
PLANE_RANDOM_SHAPES = ((4, 5), (4, 6))
N_MAPS = 1000


def hurewicz(seed: int, workdir: str) -> Workload:
    """About a thousand grid maps, each with a certificate chain to a
    homotopic map, checked for homotopy and subdivision invariance of
    their Hurewicz classes.

    Loops wind up to twice around C3..C6; 2-D maps go into C4, the
    suspension of C4 and small random targets.  Caches are kept within a
    round, as in one library session.
    """
    rng = random.Random(f"hurewicz:{seed}")
    loop_targets = [(m, dh.cycle_digraph(m)) for m in LOOP_CYCLES]
    c4 = dh.cycle_digraph(4)
    plane_targets = [c4, _int_labels(dh.suspension(c4))]
    structure_rng = random.Random("hurewicz:targets")
    for nv, na in PLANE_RANDOM_SHAPES:
        pairs = [(i, j) for i in range(nv) for j in range(nv) if i != j]
        plane_targets.append(dh.build_digraph(range(nv), sorted(structure_rng.sample(pairs, na))))
    known: dict = {}
    items = []
    for i in range(N_MAPS):
        if i % 2 == 0:
            m, target = loop_targets[(i // 2) % len(loop_targets)]
            f = _winding_loop(rng, target, m)
            winding = checks.winding_number(f.values, m)
        else:
            target = plane_targets[(i // 2) % len(plane_targets)]
            lengths = (2, 2) if (i // 2) % 3 else (4, 2)
            f = randomgen.random_grid_map(rng, target, 0, lengths) or grids.constant_grid_map(
                target, 0, lengths
            )
            winding = None
        g, cert = randomgen.random_certificate_chain(rng, f)
        shrink = randomgen.random_shrinking(rng, f.lengths)
        items.append(
            Item(f"map{i}", _hurewicz_item(f, g, cert), _hurewicz_check(f, shrink, winding, known))
        )
    return Workload(items, clear_per_item=False)


def _int_labels(g):
    return _relabel(g, list(range(g.n_vertices)))


def _winding_loop(rng: random.Random, target, m: int):
    """A based loop on a standard line winding w in {-2..2} times around the
    m-cycle, with random stalls and back-and-forth steps.  Forward steps
    sit at even positions and backward steps at odd ones, as the standard
    line's arrow directions require."""
    w = rng.choice((-2, -1, 1, 2, 0))
    extra = rng.randint(0, 3)
    forward = max(w, 0) * m + extra
    backward = max(-w, 0) * m + extra
    half = max(forward, backward) + rng.randint(1, 3)
    fwd_slots = set(rng.sample(range(half), forward))
    bwd_slots = set(rng.sample(range(half), backward))
    values = [0]
    for i in range(2 * half):
        v = values[-1]
        if i % 2 == 0 and i // 2 in fwd_slots:
            v = (v + 1) % m
        elif i % 2 == 1 and i // 2 in bwd_slots:
            v = (v - 1) % m
        values.append(v)
    return dh.GridMap((dh.standard_line(2 * half),), tuple(values), target, "pair", 0)


def _hurewicz_item(f, g, cert):
    def run():
        ok = dh.verify_homotopy_certificate(f, g, cert)
        return ok, [(dh.hurewicz_class(h), dh.glmy_hurewicz(h)) for h in (f, g)]

    return run


def _hurewicz_check(f, shrink, winding, known: dict):
    """Homotopy and subdivision invariance, the comparison map, winding
    numbers of loops, and H_0 against networkx.  `known` keeps the
    comparison map and component count of each target across items."""
    target, n = f.target, f.dims

    def check(result) -> bool:
        ok, ((cf, pf), (cg, pg)) = result
        if (target, n) not in known:
            import networkx as nx  # for checks only; kept out of set-up

            graph = nx.DiGraph()
            graph.add_nodes_from(target.vertices)
            graph.add_edges_from(target.arrows)
            h0 = dh.path_homology(target, 0)
            known[target, n] = (
                dh.comparison_L(target, n),
                h0.rank == nx.number_weakly_connected_components(graph) and not h0.torsion,
            )
        lmap, h0_ok = known[target, n]
        good = ok and h0_ok and cf == cg and pf == pg
        good = good and dh.hurewicz_class(dh.subdivide(f, shrink)) == cf
        good = good and checks.apply(lmap, cf.coords) == tuple(pf.coords)
        if winding is not None:
            good = good and tuple(cf.coords) == tuple(pf.coords) == (winding,)
        return good

    return check


WORKLOADS = {"boxpow": boxpow, "suspension": suspension, "hurewicz": hurewicz}

"""The built-in verification suite.

Each criterion is a function returning a CriterionResult; `run_all` is
used both by the test suite and by `verify paper-suite` on the CLI.
Randomized criteria draw from a seeded generator so runs reproduce.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .chains import ChainComplex, homology_of, suspension_composite, verify_exactness
from .cubes import (
    CubicalChain,
    build_cubical_complex,
    build_cubical_pair,
    comparison_L,
    cubical_boundary,
    cubical_suspension_map,
    enumerate_cubes,
    iota,
    omega_generator,
)
from .digraphs import (
    Digraph,
    cone,
    cycle_digraph,
    make_grid,
    standard_line,
    suspension,
)
from .grids import (
    GridMap,
    _size_of,
    glmy_hurewicz,
    hurewicz_class,
    concat_mu,
    inverse_j,
    loop_h_prime,
    subdivide,
    verify_homotopy_certificate,
)
from .intlinalg import AbelianGroup
from .paths import (
    PathChain,
    build_omega_complex,
    build_omega_pair,
    path_homology,
    path_suspension_map,
    regular_boundary,
    suspension_cycle,
)
from .randomgen import (
    random_certificate_chain,
    random_digraph,
    random_grid_map,
    random_shrinking,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(number, name, passed, detail, t0) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.monotonic() - t0)


def winding_loop(c4) -> GridMap:
    return GridMap((standard_line(8),), (0, 1, 1, 2, 2, 3, 3, 0, 0), c4, "pair", 0)


def criterion_01(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    group = path_homology(cycle_digraph(4), 1)
    ok = group == AbelianGroup(1)
    elapsed = time.monotonic() - t0
    return CriterionResult(
        1, "H_1 of the 4-cycle is Z", ok and elapsed < 1.0, f"H_1 = {group}", elapsed
    )


def criterion_02(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    c4 = cycle_digraph(4)
    s1 = suspension(c4, "+a", "+b")
    s2 = suspension(s1, "+a2", "+b2")
    g1 = path_homology(s1, 2)
    g2 = path_homology(s2, 3)
    ok = g1 == AbelianGroup(1) and g2 == AbelianGroup(1)
    elapsed = time.monotonic() - t0
    return CriterionResult(
        2,
        "suspension tower H_2, H_3 are Z",
        ok and elapsed < 30.0,
        f"H_2(S C4) = {g1}, H_3(S^2 C4) = {g2}",
        elapsed,
    )


def criterion_03(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    from .digraphs import box_product

    c4 = cycle_digraph(4)
    sq = box_product(c4, c4)
    g2 = path_homology(sq, 1)
    cube = box_product(sq, c4)
    g3 = path_homology(cube, 1)
    ok = g2 == AbelianGroup(2) and g3 == AbelianGroup(3)
    elapsed = time.monotonic() - t0
    return CriterionResult(
        3,
        "box-power first homology ranks",
        ok and elapsed < 60.0,
        f"H_1(C4 box C4) = {g2}, H_1(C4^box3) = {g3}",
        elapsed,
    )


def criterion_04(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    details = []
    ok = True
    for n in (1, 2, 3):
        grid = make_grid([standard_line(1)] * n)
        oc = build_omega_complex(grid, n)
        gen = omega_generator(n)
        rank = oc.rank(n)
        coords = oc.lattice_coords(gen)
        basis_is_gen = rank == 1 and coords is not None and tuple(coords.values()) in ((1,), (-1,))
        ok = ok and basis_is_gen
        details.append(f"n={n}: rank {rank}")
    return _result(4, "corner-path generator spans the unit-grid lattice", ok, "; ".join(details), t0)


def criterion_05(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(seed + 5)
    failures = 0
    checked = 0
    for _ in range(20):
        g = random_digraph(rng, max_vertices=5, max_arrows=8)
        for n in (1, 2, 3):
            for cube in enumerate_cubes(g, n):
                ch = CubicalChain(n, {cube: 1})
                if iota(cubical_boundary(ch)) != regular_boundary(iota(ch)):
                    failures += 1
                checked += 1
    return _result(
        5,
        "cube-to-path map is a chain map",
        failures == 0,
        f"{checked} cubes checked, {failures} failures",
        t0,
    )


def criterion_06(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    c4 = cycle_digraph(4)
    gamma = winding_loop(c4)
    oc = build_omega_complex(c4, 2)
    gen = glmy_hurewicz(gamma)
    hprime_cls = oc.class_of(loop_h_prime(gamma))
    double = glmy_hurewicz(concat_mu(1, gamma, gamma))
    inverse = glmy_hurewicz(inverse_j(1, gamma))
    checks = [
        gen.coords in ((1,), (-1,)) and gen.group == AbelianGroup(1),
        hprime_cls.coords == gen.coords,
        double.coords == tuple(2 * c for c in gen.coords),
        inverse.coords == tuple(-c for c in gen.coords),
    ]
    return _result(
        6,
        "winding-loop class pipeline",
        all(checks),
        f"class {gen.coords}, h' {hprime_cls.coords}, double {double.coords}, inverse {inverse.coords}",
        t0,
    )


def _random_with_h1(rng: random.Random) -> Digraph:
    """The next random digraph with nonzero path H_1, so that degree-1
    squares run between nonzero groups."""
    while True:
        x = random_digraph(rng, max_vertices=5, max_arrows=6, min_vertices=2)
        if path_homology(x, 1) != AbelianGroup(0):
            return x


def criterion_07(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(seed + 7)
    failures = 0
    tested = 0
    for _ in range(5):
        x = _random_with_h1(rng)
        sx = suspension(x, "+a", "+b")
        for n in (0, 1):
            ec = cubical_suspension_map(x, n)
            ep = path_suspension_map(x, n)
            l_top = comparison_L(sx, n + 1)
            l_bot = comparison_L(x, n, reduced=(n == 0))
            if l_top.compose(ec) != ep.compose(l_bot):
                failures += 1
            tested += 1
    return _result(
        7,
        "comparison map commutes with suspension",
        failures == 0,
        f"{tested} squares checked, {failures} failures",
        t0,
    )


def criterion_08(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(seed + 8)
    failures = 0
    tested = 0
    for _ in range(10):
        x = random_digraph(rng, max_vertices=4, max_arrows=6, min_vertices=1)
        for ambient, sub in ((cone(x, "+a"), x), (suspension(x, "+a", "+b"), cone(x, "+b"))):
            path, cubical = build_omega_pair(ambient, sub, 4), build_cubical_pair(ambient, sub, 3)
            for pair, top in ((path, 3), (cubical, 2)):
                failures += not verify_exactness(pair.pair.les_maps(top))
                tested += 1
    return _result(
        8,
        "long exact sequences of cone and suspension pairs",
        failures == 0,
        f"{tested} sequences checked (path nodes <= 3, cubical nodes <= 2), {failures} failures",
        t0,
    )


def criterion_09(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    c4 = cycle_digraph(4)
    z = PathChain(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1})
    sz = suspension_cycle(z, c4)
    sx = suspension(c4, "+a", "+b")
    is_cycle = regular_boundary(sz).is_zero()
    in_lattice = build_omega_complex(sx, 2).lattice_coords(sz) is not None
    # the long-exact-sequence composite: it reads no suspension cycle
    emap = suspension_composite(
        build_omega_pair(cone(c4, "+a"), c4, 3),
        build_omega_pair(sx, cone(c4, "+b"), 3),
        1,
    )
    via_map = emap.matrix.apply(build_omega_complex(c4, 2).class_of(z).coords)
    direct = build_omega_complex(sx, 3).class_of(sz).coords
    ok = is_cycle and in_lattice and tuple(via_map) == tuple(direct)
    return _result(
        9,
        "explicit suspension representative matches the connecting composite",
        ok,
        f"cycle: {is_cycle}, class {direct} vs composite {tuple(via_map)}",
        t0,
    )


def _random_targets(rng, count=6):
    targets = []
    while len(targets) < count:
        g = random_digraph(rng, max_vertices=5, max_arrows=8, min_vertices=2)
        targets.append(g)
    return targets


def criterion_10(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(seed + 10)
    targets = _random_targets(rng)
    shapes = [(4,), (2, 2)]
    cert_failures = 0
    class_failures = 0
    for i in range(200):
        g = targets[i % len(targets)]
        shape = shapes[i % len(shapes)]
        f = random_grid_map(rng, g, 0, shape) or GridMap(
            tuple(standard_line(m) for m in shape),
            (0,) * _size_of(shape),
            g,
            "pair",
            0,
        )
        other, cert = random_certificate_chain(rng, f)
        if not verify_homotopy_certificate(f, other, cert):
            cert_failures += 1
            continue
        if glmy_hurewicz(f) != glmy_hurewicz(other):
            class_failures += 1
    sub_failures = 0
    for i in range(200):
        g = targets[i % len(targets)]
        shape = shapes[i % len(shapes)]
        f = random_grid_map(rng, g, 0, shape)
        if f is None:
            continue
        h = random_shrinking(rng, f.lengths)
        if hurewicz_class(f) != hurewicz_class(subdivide(f, h)):
            sub_failures += 1
    # nonzero classes: the winding loop, its square and its inverse keep both
    # classes along certificate chains drawn apart, long enough for a direct
    # move to follow a subdivision (these tight loops admit none before)
    gamma = winding_loop(cycle_digraph(4))
    known = {(1,): gamma, (2,): concat_mu(1, gamma, gamma), (-1,): inverse_j(1, gamma)}
    chain_rng = random.Random(seed + 110)
    chains = [
        (w, f, *random_certificate_chain(chain_rng, f, max_steps=8))
        for w, f in known.items()
        for _ in range(5)
    ]
    known_failures = sum(
        not verify_homotopy_certificate(f, other, cert)
        or any(
            hurewicz_class(m).coords != w or glmy_hurewicz(m).coords != w
            for m in [f, other] + [step.next_map for step in cert if step.next_map is not None]
        )
        for w, f, other, cert in chains
    )
    ok = cert_failures == class_failures == sub_failures == known_failures == 0
    return _result(
        10,
        "homotopy invariance and subdivision independence",
        ok,
        f"certificates: {cert_failures} bad, classes: {class_failures} changed, "
        f"subdivision: {sub_failures} changed, "
        f"known classes: {known_failures} of {len(chains)} chains changed",
        t0,
    )


def criterion_11(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    rng = random.Random(seed + 11)
    failures = 0
    for _ in range(50):
        g = random_digraph(rng, max_vertices=5, max_arrows=8)
        for build_complex in (build_omega_complex, build_cubical_complex):
            try:
                build_complex(g, 3).complex.check_square_zero()
            except Exception:
                failures += 1
    return _result(
        11, "boundary squared vanishes in both theories", failures == 0,
        f"50 digraphs, {failures} failures", t0,
    )


def criterion_12(seed: int = 0) -> CriterionResult:
    t0 = time.monotonic()
    # synthetic presentation with torsion Z/2 + Z/6 in degree 1
    synth = ChainComplex(
        {0: ["a"], 1: ["x", "y"], 2: ["u", "v"]},
        {0: [{}], 1: [{}, {}], 2: [{0: 2}, {1: 6}]},
    )
    group = homology_of(synth, 1)
    ok_group = group == AbelianGroup(0, (2, 6))
    rendered = str(group)
    ok_render = rendered == "Z/2 ⊕ Z/6"
    json_form = group.to_json()
    ok_json = json_form == {"rank": 0, "torsion": [2, 6]}
    ok = ok_group and ok_render and ok_json
    return _result(
        12,
        "torsion presentations survive the reporting pipeline",
        ok,
        f"H_1 = {rendered}, json {json_form}",
        t0,
    )


CRITERIA = [
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [fn(seed) for fn in CRITERIA]

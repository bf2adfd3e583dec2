"""Seeded random objects for the property suites.

Everything takes an explicit random.Random so runs are reproducible from
a single seed: digraphs, subdigraphs, grid maps with boundary conditions,
shrinking maps, direct-homotopy moves, and certificate chains.
"""

from __future__ import annotations

import random
from typing import Optional

from .digraphs import Digraph, build_digraph, standard_line
from .grids import (
    CertificateStep,
    GridMap,
    ShrinkingMap,
    _derived,
    _grid_tables,
    _size_of,
    _strides,
    grid_map_violation,
    shrink_by_pair_insertions,
    subdivide,
)


def random_digraph(
    rng: random.Random,
    max_vertices: int = 5,
    max_arrows: int = 8,
    arrow_prob: float = 0.35,
    min_vertices: int = 1,
) -> Digraph:
    nv = rng.randint(min_vertices, max_vertices)
    pairs = [(i, j) for i in range(nv) for j in range(nv) if i != j]
    rng.shuffle(pairs)
    arrows = []
    for p in pairs:
        if len(arrows) >= max_arrows:
            break
        if rng.random() < arrow_prob:
            arrows.append(p)
    arrows.sort()
    return build_digraph(range(nv), arrows)


def random_grid_map(
    rng: random.Random,
    target: Digraph,
    base,
    lengths: tuple[int, ...],
    mode: str = "pair",
    sub: Optional[Digraph] = None,
    tries: int = 200,
) -> Optional[GridMap]:
    """Backtracking fill of a standard grid with the mode's boundary
    conditions; returns None when no valid map is found in the budget."""
    axes = tuple(standard_line(m) for m in lengths)
    shape = [m + 1 for m in lengths]
    strides = _strides(shape)
    # per flat position, row-major: each earlier neighbour's position and
    # whether the arrow from it points forward
    earlier = []
    for p in range(_size_of(lengths)):
        coordinates = [p // s % m for s, m in zip(strides, shape)]
        earlier.append(
            [(p - s, ax.forward_at(i - 1)) for ax, s, i in zip(axes, strides, coordinates) if i]
        )
    # the values the mode allows on the boundary, which holds the collapsed part
    allowed = {}
    if mode in ("pair", "triple"):
        tables = _grid_tables(axes)
        allowed = dict.fromkeys(tables.boundary, {base} if mode == "pair" else set(sub.vertices))
        allowed.update(dict.fromkeys(tables.collapsed, {base}))
    succ = {v: (v,) + target.out_neighbors(v) for v in target.vertices}

    for _ in range(tries):
        values = []
        for p, neighbours in enumerate(earlier):
            cands = None
            for q, forward in neighbours:
                pv = values[q]
                if forward:
                    step = set(succ[pv])
                else:
                    step = {pv} | {w for w in target.vertices if target.has_arrow(w, pv)}
                cands = step if cands is None else cands & step
            if cands is None:
                cands = set(target.vertices)
            if p in allowed:
                cands = cands & allowed[p]
            if not cands:
                break
            values.append(rng.choice(sorted(cands, key=str)))
        else:
            candidate = GridMap(
                axes, tuple(values), target, mode, None if mode == "absolute" else base, sub
            )
            if grid_map_violation(candidate) is None:
                return candidate
    return None


def random_shrinking(
    rng: random.Random, lengths: tuple[int, ...], max_insertions: int = 2
) -> ShrinkingMap:
    insertions = []
    for m in lengths:
        k = rng.randint(0, max_insertions)
        insertions.append([rng.randint(0, m) for _ in range(k)])
    return shrink_by_pair_insertions(lengths, insertions)


def random_direct_move(rng: random.Random, f: GridMap, tries: int = 30) -> Optional[tuple]:
    """A valid grid map one direct-homotopy step away from the valid map
    f, with its direction; None if no move is found."""
    # the flat positions a move may change: all but the boundary that pair
    # and triple modes fix, in row-major order
    fixed = set() if f.mode == "absolute" else set(_grid_tables(f.axes).boundary)
    pool = [p for p in range(f.size) if p not in fixed]
    if not pool:
        return None
    t = f.target
    for _ in range(tries):
        p = pool[rng.randrange(len(pool))]
        cur = f.values[p]
        fwd = list(t.out_neighbors(cur))
        bwd = list(t.in_neighbors(cur))
        options = [(w, "fwd") for w in fwd] + [(w, "bwd") for w in bwd]
        if not options:
            continue
        w, direction = options[rng.randrange(len(options))]
        values = list(f.values)
        values[p] = w
        # w is an out- or in-neighbour of f(p), so the move is a direct
        # homotopy in `direction`; only the grid arrows at p change, and
        # none of them lies in the boundary that pair and triple modes fix
        if _arrows_hold_at(f, p, values):
            g = _derived(f, f.axes, tuple(values))
            if grid_map_violation(g) is None:
                return g, direction
    return None


def _arrows_hold_at(f: GridMap, p: int, values: list) -> bool:
    """True iff `values` send every grid arrow of f's grid at the flat
    position p to an arrow of f's target or collapse it."""
    t = f.target
    for ax, stride, size in zip(f.axes, f._strides, f._shape):
        i = p // stride % size
        for j in (i - 1, i):  # the arrows j -> j + 1 or back that touch i
            if 0 <= j < ax.length:
                low = p + (j - i) * stride
                a, b = values[low], values[low + stride]
                if not ax.forward_at(j):
                    a, b = b, a
                if a != b and not t.has_arrow(a, b):
                    return False
    return True


def random_certificate_chain(
    rng: random.Random, f: GridMap, max_steps: int = 3
) -> tuple[GridMap, list[CertificateStep]]:
    """A grid map F-homotopic to f together with a verifying certificate.

    Steps alternate randomly between pair-insertion subdivisions (the
    subdivided map is one-step homotopic to the original via the shrink)
    and vertexwise direct moves.
    """
    current = f
    steps: list[CertificateStep] = []
    n_steps = rng.randint(1, max_steps)
    for _ in range(n_steps):
        if rng.random() < 0.5:
            h = random_shrinking(rng, current.lengths)
            nxt = subdivide(current, h)
            steps.append(CertificateStep(h, None, "fwd", nxt))
            current = nxt
        else:
            move = random_direct_move(rng, current)
            if move is None:
                continue
            nxt, direction = move
            steps.append(CertificateStep(None, None, direction, nxt))
            current = nxt
    if not steps:
        h = random_shrinking(rng, current.lengths)
        nxt = subdivide(current, h)
        steps.append(CertificateStep(h, None, "fwd", nxt))
        current = nxt
    # the final step's target is implied by the certificate contract
    last = steps[-1]
    steps[-1] = CertificateStep(last.left, last.right, last.direction, None)
    return current, steps

"""Independent arithmetic for the benchmark's correctness checks.

Nothing here calls the program: determinants, lattice equality, kernels
and winding numbers are computed from scratch so that a
check never compares the program against itself or against a stored copy
of its own output.
"""

from __future__ import annotations


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def map_columns(m) -> list[tuple]:
    """Columns of a GroupMap's matrix: images of the source generators."""
    rows = m.matrix.data
    return [tuple(r[j] for r in rows) for j in range(m.source.n_generators)]


def reduce_mod(column, divisors) -> tuple:
    """Reduce coordinates of an element of Z/d1 + ... + Z^r (d = 0 free)."""
    return tuple(x % d if d else x for x, d in zip(column, divisors))


def group_divisors(group) -> list[int]:
    """Per-generator orders of an AbelianGroup: torsion first, then free."""
    return list(group.torsion) + [0] * group.rank


def apply(m, coords) -> tuple:
    """Image under a GroupMap of a vector of source coordinates, reduced in
    the target."""
    acc = [0] * m.target.n_generators
    for coeff, image in zip(coords, map_columns(m)):
        for i, x in enumerate(image):
            acc[i] += coeff * x
    return reduce_mod(acc, group_divisors(m.target))


def compose(g, f) -> list[tuple]:
    """Columns of g after f, reduced in the target of g."""
    return [apply(g, col) for col in map_columns(f)]


def composite_equal(g1, f1, g2, f2) -> bool:
    """g1 . f1 == g2 . f2 as homomorphisms between the same two groups."""
    if f1.source != f2.source or g1.target != g2.target:
        return False
    return compose(g1, f1) == compose(g2, f2)


def hermite_basis(vectors, dim: int) -> list[tuple]:
    """Row-style Hermite normal form of the lattice spanned by `vectors`
    in Z^dim: a canonical basis, so equal lattices give equal output."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    col = 0
    while rows and col < dim:
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            nxt = [piv]
            for r in live[1:]:
                q = r[col] // piv[col]
                r2 = [x - q * y for x, y in zip(r, piv)]
                (nxt if r2[col] != 0 else rest).append(r2)
            live = nxt
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rows = [r for r in rest if any(r)]
        col += 1
    for i, row in enumerate(basis):
        c = next(j for j, x in enumerate(row) if x)
        for k in range(i):
            q = basis[k][c] // row[c]
            basis[k] = [x - q * y for x, y in zip(basis[k], row)]
    return [tuple(r) for r in basis]


def integer_kernel(columns, nrows: int) -> list[tuple]:
    """Z-basis of {x : sum x_j columns[j] = 0}, by unimodular column
    operations tracked on an identity matrix."""
    k = len(columns)
    cols = [list(c) for c in columns]
    track = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    done = 0
    for row in range(nrows):
        while True:
            live = [j for j in range(done, k) if cols[j][row] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: abs(cols[j][row]))
            p = live[0]
            for j in live[1:]:
                q = cols[j][row] // cols[p][row]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[p])]
                track[j] = [x - q * y for x, y in zip(track[j], track[p])]
        if live:
            p = live[0]
            cols[done], cols[p] = cols[p], cols[done]
            track[done], track[p] = track[p], track[done]
            done += 1
    return [tuple(t) for t in track[done:]]


def _relations(divisors) -> list[tuple]:
    n = len(divisors)
    return [tuple(d if i == j else 0 for i in range(n)) for j, d in enumerate(divisors) if d]


def sequence_exact(maps) -> bool:
    """Every consecutive pair of GroupMaps f: A -> B, g: B -> C composes to
    zero and has im f = ker g, compared as lattices of generator
    coordinates in Z^B (with the relations of B added to both sides)."""
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            return False
        if any(any(col) for col in compose(g, f)):
            return False
        b_div = group_divisors(f.target)
        c_div = group_divisors(g.target)
        nb, nc = len(b_div), len(c_div)
        image = map_columns(f) + _relations(b_div)
        stacked = map_columns(g) + _relations(c_div)
        kernel = [t[:nb] for t in integer_kernel(stacked, nc)] + _relations(b_div)
        if hermite_basis(image, nb) != hermite_basis(kernel, nb):
            return False
    return True


def winding_number(values, m: int) -> int:
    """Signed number of turns of a closed walk on the directed m-cycle whose
    vertex i is labelled i: +1 for each step i -> i+1, -1 for each step
    back, 0 for a stay; forward turns count positively, as the loop
    0,1,1,2,2,3,3,0,0 has class (1,) in the README."""
    total = 0
    for u, v in zip(values, values[1:]):
        if v == (u + 1) % m:
            total += 1
        elif u == (v + 1) % m:
            total -= 1
        elif u != v:
            raise ValueError(f"{u} -> {v} is not a step of the {m}-cycle")
    if total % m:
        raise ValueError("walk is not closed")
    return total // m

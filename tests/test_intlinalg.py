import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_homology.intlinalg import (
    AbelianGroup,
    Cokernel,
    Echelon,
    IntMatrix,
    NotASublatticeError,
    _snf_full,
    kernel_echelon,
    xgcd,
)
from oracles import (
    Lattice,
    integer_solve,
    kernel_lattice,
    quotient_group,
    random_unimodular,
    smith_normal_form,
)

small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix(rows, cols=c))
    )
)


def is_unimodular(m):
    if m.rows != m.cols:
        return False
    det = _det(m)
    return det in (1, -1)


def _det(m):
    n = m.rows
    if n == 0:
        return 1
    rows = [list(r) for r in m.data]
    # fraction-free Bareiss elimination
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[-1][-1]


def test_xgcd_basics():
    for a, b in [(0, 0), (5, 0), (0, 7), (12, 18), (-12, 18), (35, -21)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


# --- Smith normal form --------------------------------------------------

def test_snf_diag_2_3():
    # gcd of entries is 1; product of divisors must be |det| = 6
    u, d, v = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert (d.data[0][0], d.data[1][1]) == (1, 6)
    assert u @ IntMatrix([[2, 0], [0, 3]]) @ v == d


def test_snf_zero_matrix():
    u, d, v = smith_normal_form(IntMatrix.zeros(3, 2))
    assert d.is_zero()
    assert u @ IntMatrix.zeros(3, 2) @ v == d


def test_snf_2468():
    # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8, so d2 = 4
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert (d.data[0][0], d.data[1][1]) == (2, 4)
    assert u @ m @ v == d


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_properties(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros only after the nonzero part
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_integer_solve_roundtrip(m, rng):
    x = [rng.randrange(-4, 5) for _ in range(m.cols)]
    v = m.apply(x)
    sol = integer_solve(m, v)
    assert sol is not None
    assert m.apply(sol) == tuple(v)


# --- kernels and lattices ------------------------------------------------

def test_kernel_examples():
    assert kernel_lattice(IntMatrix([[1, 1]])).basis.columns() in (
        [(1, -1)],
        [(-1, 1)],
    )
    assert kernel_lattice(IntMatrix.identity(3)).rank == 0
    k = kernel_lattice(IntMatrix([[2, -2]]))
    assert k.rank == 1
    col = k.basis.column(0)
    assert col in ((1, 1), (-1, -1))
    assert k.is_saturated()


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_kernel_is_saturated_and_annihilates(m):
    k = kernel_lattice(m)
    assert k.is_saturated()
    for j in range(k.rank):
        assert all(x == 0 for x in m.apply(k.basis.column(j)))
    # rank-nullity
    _, d, _ = smith_normal_form(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d.data[i][i])
    assert k.rank == m.cols - rank


def test_lattice_saturation():
    lat = Lattice(2, IntMatrix([[2], [2]]))
    assert not lat.is_saturated()
    sat = lat.saturation()
    assert sat.rank == 1
    assert sat.contains((1, 1))


def test_quotient_group_examples():
    z2 = Lattice(2, IntMatrix.identity(2))
    i = Lattice(2, IntMatrix([[2], [0]]))
    assert quotient_group(z2, i) == AbelianGroup(1, (2,))
    assert quotient_group(z2, z2) == AbelianGroup(0)
    k = Lattice(2, IntMatrix([[1, 0], [1, 3]]))
    i2 = Lattice(2, IntMatrix([[3], [3]]))
    assert quotient_group(k, i2) == AbelianGroup(1, (3,))


def test_quotient_group_rejects_non_sublattice():
    k = Lattice(2, IntMatrix([[2], [0]]))
    i = Lattice(2, IntMatrix([[1], [0]]))
    with pytest.raises(NotASublatticeError):
        quotient_group(k, i)


def test_abelian_group_rendering():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(3)) == "Z^3"
    assert str(AbelianGroup(1, (2, 6))) == "Z ⊕ Z/2 ⊕ Z/6"
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))


# --- sparse helpers -------------------------------------------------------

def _kernel_problems():
    """Random matrices, then edge shapes: no rows, no columns, zero columns."""
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randrange(0, 5)
        c = rng.randrange(0, 6)
        yield IntMatrix([[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)], cols=c)
    yield IntMatrix.zeros(0, 3)
    yield IntMatrix.zeros(3, 0)
    yield IntMatrix.zeros(0, 0)
    yield IntMatrix.zeros(2, 3)
    yield IntMatrix([[0, 2, 0, -2], [0, 1, 0, 3]])


def test_kernel_echelon_matches_dense():
    for m in _kernel_problems():
        r, c = m.shape
        cols = [{i: m.data[i][j] for i in range(r) if m.data[i][j]} for j in range(c)]
        ech = kernel_echelon(cols, r)
        basis = ech.basis_vectors()
        dense = kernel_lattice(m)
        assert len(basis) == dense.rank
        got = Lattice.from_vectors(c, [[v.get(i, 0) for i in range(c)] for v in basis])
        assert got.same_lattice(dense)
        # echelon: each vector's smallest index is its pivot, with a positive entry
        assert [min(v) for v in basis] == sorted(ech.pivots)
        assert all(ech.pivots[min(v)] is v and v[min(v)] > 0 for v in basis)
        assert all(0 <= min(v) and max(v) < c for v in basis)


def test_echelon_solve():
    e = Echelon()
    e.add({0: 2, 1: 1})
    e.add({1: 3})
    v = {0: 4, 1: 5}  # 2*(2,1,0...) + 1*(0,3)
    sol = e.solve(v)
    assert sol == {0: 2, 1: 1}  # sparse {basis position: coeff}
    basis = e.basis_vectors()
    rebuilt = {}
    for j, coef in sol.items():
        for i, val in basis[j].items():
            rebuilt[i] = rebuilt.get(i, 0) + coef * val
    assert {i: v for i, v in rebuilt.items() if v} == v
    assert e.solve({1: 3}) == {1: 1}  # zero coefficients are left out
    assert e.solve({0: 1}) is None


@settings(max_examples=200, deadline=None)
@given(small_matrices, st.lists(st.sampled_from((1, 1, 2, 3)), min_size=4, max_size=4))
def test_cokernel_matches_dense_smith_form(m, scales):
    # a column scaled by 2 or 3 has no unit entry and stays for the residual block
    cols = [[scales[j] * x for x in m.column(j)] for j in range(m.cols)]
    q = Cokernel(m.rows, [{i: x for i, x in enumerate(c) if x} for c in cols])
    divisors = _snf_full(IntMatrix.from_cols(cols, rows=m.rows)).divisors
    assert q.group == AbelianGroup(m.rows - len(divisors), tuple(d for d in divisors if d > 1))
    g = q.group.n_generators
    for j, gen in enumerate(q.generators):
        assert q.coords(gen) == tuple(int(i == j) for i in range(g))
    for c in cols:
        assert q.coords({i: x for i, x in enumerate(c) if x}) == (0,) * g


def test_cokernel_pivot_order():
    # relations are taken in order, each at its unit row held by the fewest
    # pivot vectors, then the smaller index: column 0 (no pivot vectors yet)
    # pivots at row 0; column 1 misses row 0, pivots at row 2 and clears it
    # from the first, which becomes {0: 1, 1: 1}; row 1 is the generator
    q = Cokernel(3, [{0: 1, 1: 1, 2: 1}, {2: -1}])
    assert q.group == AbelianGroup(1)
    assert q.generators == [{1: 1}]
    assert q.coords({0: 1}) == (-1,) and q.coords({2: 5}) == (0,)


def test_random_unimodular():
    rng = random.Random(3)
    for n in (1, 2, 4):
        m = random_unimodular(rng, n)
        assert is_unimodular(m)


def test_echelon_basis_list_follows_add():
    e = Echelon()
    e.add({1: 1})
    assert e.basis_vectors() == [{1: 1}]
    e.add({0: 2, 1: 1})
    assert e.basis_vectors() == [{0: 2, 1: 1}, {1: 1}]
    assert e.solve({0: 2, 1: 3}) == {0: 1, 1: 2}

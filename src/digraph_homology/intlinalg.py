"""Exact integer linear algebra.

Dense integer matrices, the dense Smith form with unimodular transforms
(`_snf_full`), and finitely generated abelian group presentations.
Everything runs on arbitrary-precision Python integers; no floating point
is used anywhere.

Vectors of the large matrices are sparse dicts.  `Echelon` is the one
elimination loop for lattices: it spans images, and the `extended_echelon`
of a column list gives kernels (`kernel_echelon`) and solutions
(`Echelon.preimage`).  `Cokernel` presents Z^k / (relations) by
eliminating unit pivots sparsely: homology groups and the quotients of
complex pairs.  `_snf_full` sees only the non-unit residual block a
`Cokernel` leaves.  The dense lattice references the tests check these
against (`Lattice`, `kernel_lattice`, `quotient_group`,
`smith_normal_form`, `integer_solve`) are in `tests/oracles.py`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Optional, Sequence


class NotASublatticeError(ValueError):
    """Raised when a claimed sublattice has a generator outside the ambient lattice."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y.

    >>> xgcd(12, 18)
    (6, -1, 1)
    >>> xgcd(0, 0)
    (0, 1, 0)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data: Iterable[Sequence[int]], cols: Optional[int] = None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols does not match row length")
        else:
            ncols = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows
        self._hash = None

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
            if any(len(c) != nrows for c in cols):
                raise ValueError("ragged columns")
        else:
            nrows = 0 if rows is None else rows
        return IntMatrix([[c[i] for c in cols] for i in range(nrows)], cols=len(cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.column(j) for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ot = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data],
            cols=other.cols,
        )

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.data))
        return self._hash

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r}, cols={self.cols})"


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: IntMatrix
    Uinv: IntMatrix
    D: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _snf_full(mat: IntMatrix) -> SmithDecomposition:
    r, c = mat.shape
    a = [list(row) for row in mat.data]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    uinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for k in range(r):
            uinv[k][i], uinv[k][j] = uinv[k][j], uinv[k][i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for k in range(r):
            uinv[k][i] = -uinv[k][i]

    def row_addmul(i, j, q):
        # row_i += q * row_j, i != j; inverse transform on uinv columns
        ai, aj = a[i], a[j]
        for k in range(c):
            ai[k] += q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(r):
            ui[k] += q * uj[k]
        for k in range(r):
            uinv[k][j] -= q * uinv[k][i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def row_combine(t, i):
        # rows (t, i) <- (x*rt + y*ri, -(b//g)*rt + (a//g)*ri) with a = A[t][pivot], b = A[i][pivot]
        aa, bb = a[t][t], a[i][t]
        g, x, y = xgcd(aa, bb)
        p, q = aa // g, bb // g
        rt, ri = a[t], a[i]
        a[t] = [x * s + y * w for s, w in zip(rt, ri)]
        a[i] = [-q * s + p * w for s, w in zip(rt, ri)]
        rt, ri = u[t], u[i]
        u[t] = [x * s + y * w for s, w in zip(rt, ri)]
        u[i] = [-q * s + p * w for s, w in zip(rt, ri)]
        # inverse of [[x, y], [-q, p]] is [[p, -y], [q, x]]
        for k in range(r):
            ct, ci = uinv[k][t], uinv[k][i]
            uinv[k][t] = p * ct + q * ci
            uinv[k][i] = -y * ct + x * ci

    def col_combine(t, j):
        aa, bb = a[t][t], a[t][j]
        g, x, y = xgcd(aa, bb)
        p, q = aa // g, bb // g
        for row in a:
            ct, cj = row[t], row[j]
            row[t] = x * ct + y * cj
            row[j] = -q * ct + p * cj
        for row in v:
            ct, cj = row[t], row[j]
            row[t] = x * ct + y * cj
            row[j] = -q * ct + p * cj

    t = 0
    limit = min(r, c)
    while t < limit:
        # pick the smallest-magnitude nonzero entry in the remaining block
        best = None
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                val = row[j]
                if val:
                    m = abs(val)
                    if best is None or m < best[0]:
                        best = (m, i, j)
                        if m == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            for i in range(t + 1, r):
                b = a[i][t]
                if b:
                    if b % a[t][t] == 0:
                        row_addmul(i, t, -(b // a[t][t]))
                    else:
                        row_combine(t, i)
            if any(a[t][j] for j in range(t + 1, c)):
                for j in range(t + 1, c):
                    b = a[t][j]
                    if b:
                        if b % a[t][t] == 0:
                            col_addmul(j, t, -(b // a[t][t]))
                        else:
                            col_combine(t, j)
                if any(a[i][t] for i in range(t + 1, r)):
                    continue
            # pivot must divide the rest of the block for the divisibility chain;
            # a unit divides everything
            d = a[t][t]
            if d in (1, -1):
                break
            bad = None
            for i in range(t + 1, r):
                row = a[i]
                for j in range(t + 1, c):
                    if row[j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_addmul(t, bad, 1)
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    divisors = tuple(a[i][i] for i in range(limit) if a[i][i])
    return SmithDecomposition(
        U=IntMatrix(u, cols=r),
        Uinv=IntMatrix(uinv, cols=r),
        D=IntMatrix(a, cols=c),
        V=IntMatrix(v, cols=c),
        divisors=divisors,
    )


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^rank + Z/d1 + ... with d1 | d2 | ...

    >>> print(AbelianGroup(1, (2, 4)))
    Z ⊕ Z/2 ⊕ Z/4
    >>> print(AbelianGroup(0))
    0
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")

    @property
    def n_generators(self) -> int:
        return self.rank + len(self.torsion)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


# ---------------------------------------------------------------------------
# Sparse helpers: vectors are dicts {index: nonzero int}.


def combination(vectors: Sequence[dict], coeffs: dict) -> dict:
    """sum of coeffs[j] * vectors[j], for sparse coeffs and vectors."""
    out: dict = {}
    for j, q in coeffs.items():
        vec_addmul(out, vectors[j], q)
    return out


def vec_addmul(target: dict, source: dict, q: int) -> None:
    """target += q * source, in place, dropping zeros."""
    if not q:
        return
    for i, val in source.items():
        new = target.get(i, 0) + q * val
        if new:
            target[i] = new
        else:
            target.pop(i, None)


def _gcd_combine(u: dict, v: dict, a: int, b: int) -> tuple[dict, dict]:
    """(x*u + y*v, (a/g)*v - (b/g)*u) for g = xgcd(a, b) = x*a + y*b, where a
    and b are the entries of u and v at a shared pivot row: the first has g
    there, the second 0, and together they span the lattice of u and v."""
    g, x, y = xgcd(a, b)
    new_u = {}
    for i in set(u) | set(v):
        s = x * u.get(i, 0) + y * v.get(i, 0)
        if s:
            new_u[i] = s
    new_v = {}
    for i in set(u) | set(v):
        s = (a // g) * v.get(i, 0) - (b // g) * u.get(i, 0)
        if s:
            new_v[i] = s
    return new_u, new_v


class Echelon:
    """Mutable column-echelon basis of an integer lattice.

    Vectors are sparse dicts.  Each basis vector has a distinct pivot
    (its smallest nonzero index); insertion keeps the span unchanged, so
    after adding a spanning set the basis generates the same lattice.
    Membership and coordinate solves are forced forward reductions.
    Basis positions follow the sorted pivots; the pivot -> position map
    and the basis list are cached until the next `add`.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}
        self._position: Optional[dict[int, int]] = None
        self._basis: Optional[list[dict]] = None

    def __len__(self):
        return len(self.pivots)

    def add(self, vec: dict) -> None:
        self._position = None
        self._basis = None
        v = dict(vec)
        while v:
            p = min(v)
            cur = self.pivots.get(p)
            if cur is None:
                if v[p] < 0:
                    v = {i: -x for i, x in v.items()}
                self.pivots[p] = v
                return
            a, b = cur[p], v[p]
            if b % a == 0:
                vec_addmul(v, cur, -(b // a))
            else:
                self.pivots[p], v = _gcd_combine(cur, v, a, b)

    def basis_vectors(self) -> list[dict]:
        """The basis in position order (a cached list: do not modify it)."""
        if self._basis is None:
            self._basis = [self.pivots[p] for p in self._positions()]
        return self._basis

    def _positions(self) -> dict[int, int]:
        if self._position is None:
            self._position = {p: j for j, p in enumerate(sorted(self.pivots))}
        return self._position

    def reduce(self, vec: dict) -> tuple[dict, dict]:
        """Forward-reduce vec; returns (coeffs keyed by pivot row, remainder)."""
        v = dict(vec)
        coeffs = {}
        while v:
            p = min(v)
            cur = self.pivots.get(p)
            if cur is None or v[p] % cur[p]:
                return coeffs, v
            q = v[p] // cur[p]
            coeffs[p] = q
            vec_addmul(v, cur, -q)
        return coeffs, v

    def contains(self, vec: dict) -> bool:
        _, rem = self.reduce(vec)
        return not rem

    def solve(self, vec: dict) -> Optional[dict]:
        """Coefficients of vec as a sparse dict {basis position: coeff}, or None."""
        coeffs, rem = self.reduce(vec)
        if rem:
            return None
        position = self._positions()
        return {position[p]: q for p, q in coeffs.items()}

    def preimage(self, vec: dict, nrows: int) -> Optional[dict]:
        """Some x with sum x_j * cols[j] == vec, or None, for the `extended_echelon`
        of cols: reducing vec leaves -x in the identity block."""
        _, rem = self.reduce(vec)
        if rem and min(rem) < nrows:
            return None
        return {i - nrows: -x for i, x in rem.items()}


def extended_echelon(cols: Sequence[dict], nrows: int) -> Echelon:
    """`Echelon` of the columns (sparse, rows < nrows), column j extended by a 1
    at row nrows + j; its eliminations are unimodular, so it spans every (A x, x)."""
    ech = Echelon()
    for j, col in enumerate(cols):
        ech.add({**col, nrows + j: 1})
    return ech


def kernel_echelon(cols: list[dict], nrows: int) -> Echelon:
    """Echelon basis of the integer kernel {x : sum x_j * cols[j] == 0}.

    The `extended_echelon` vectors with pivots at rows >= nrows span the (A x, x)
    with A x == 0; shifted down by nrows they are an echelon basis of the
    full (hence saturated) integer kernel."""
    ech = extended_echelon(cols, nrows)
    kernel = Echelon()
    for p, vec in ech.pivots.items():
        if p >= nrows:
            kernel.pivots[p - nrows] = {i - nrows: x for i, x in vec.items()}
    return kernel


class Cokernel:
    """Z^rows / span(relations), relations given as sparse dicts.

    Unit pivots are eliminated first, sparsely: the column with the fewest
    nonzeros that has a ±1 entry, in that column the ±1 row with the
    fewest nonzeros, ties broken by index, so nothing depends on set or
    hash order.  Column operations clear the pivot row from the other
    columns and are not recorded; each pivot then leaves the row
    operation `row_l -= c_l * u * row_i` (u = c_i = ±1), which kills
    coordinate i.  A unit alone in its row and its column is such a pivot
    at once, with nothing to clear.  Whatever block is left has no unit
    entry and goes to the dense `_snf_full`.

    Generators are ordered torsion first (divisors increasing), then free:
    the rows outside the pivots and the residual block, in index order,
    then the residual block's free part.  Only the two halves of the
    transform that are read are kept.  `generators` holds each
    generator's column of U^-1 as a vector of Z^rows; the row operations
    read only pivot coordinates, so this is a unit vector or a column of
    the residual's U^-1.  `sparse_coords` reads the rows of U that belong
    to generators, stored per coordinate and found by running the row
    operations backwards; `coords` is its dense form with torsion reduced.
    For distinct unit relations the generators are the other rows in index
    order, and `sparse_coords` projects onto them.
    """

    def __init__(self, rows: int, relations: Sequence[dict]):
        in_rows = Counter(chain.from_iterable(relations))
        cols: dict[int, dict] = {}
        row_cols: dict[int, set[int]] = {}
        pivot_rows = set()
        for j, rel in enumerate(relations):
            if len(rel) == 1:
                ((i, x),) = rel.items()
                if (x == 1 or x == -1) and in_rows[i] == 1:
                    pivot_rows.add(i)
                    continue
            if rel:
                cols[j] = dict(rel)
                for i in rel:
                    row_cols.setdefault(i, set()).add(j)
        heap = [(len(c), j) for j, c in cols.items()]
        heapify(heap)
        steps = []
        while heap:
            size, j = heappop(heap)
            c = cols.get(j)
            if c is None or len(c) != size:
                continue  # stale entry; the column was pushed again when it changed
            units = [i for i, x in c.items() if x == 1 or x == -1]
            if not units:
                continue  # pushed again if a later pivot changes it
            i = min(units, key=lambda r: (len(row_cols[r]), r))
            u = c[i]
            del cols[j]
            for r in c:
                row_cols[r].discard(j)
            # each update reads only the pivot column, so their order is free
            for jj in row_cols.pop(i):
                cc = cols[jj]
                q = -cc[i] * u
                for r, x in c.items():
                    new = cc.get(r, 0) + q * x
                    if new:
                        if r not in cc:
                            row_cols[r].add(jj)
                        cc[r] = new
                    else:
                        del cc[r]
                        if r != i:
                            row_cols[r].discard(jj)
                if cc:
                    heappush(heap, (len(cc), jj))
                else:
                    del cols[jj]
            pivot_rows.add(i)
            steps.append((i, u, c))

        res_rows = sorted({r for c in cols.values() for r in c})
        reached = pivot_rows.union(res_rows)
        # (generator as a vector of Z^rows, its row of U as {row: coeff})
        free = [({r: 1}, {r: 1}) for r in range(rows) if r not in reached]
        torsion, divisors = [], []
        if cols:
            where = {r: q for q, r in enumerate(res_rows)}
            res_cols = sorted(cols)
            block = [[0] * len(res_cols) for _ in res_rows]
            for jj, j in enumerate(res_cols):
                for r, x in cols[j].items():
                    block[where[r]][jj] = x
            snf = _snf_full(IntMatrix(block, cols=len(res_cols)))
            for p in range(len(res_rows)):
                d = snf.divisors[p] if p < snf.rank else 0
                if d == 1:
                    continue
                gen = {r: snf.Uinv.data[q][p] for q, r in enumerate(res_rows) if snf.Uinv.data[q][p]}
                urow = {r: x for r, x in zip(res_rows, snf.U.data[p]) if x}
                if d:
                    torsion.append((gen, urow))
                    divisors.append(d)
                else:
                    free.append((gen, urow))
        self.group = AbelianGroup(len(free), tuple(divisors))
        self._divisors = divisors + [0] * len(free)
        self.generators = [gen for gen, _ in torsion + free]
        self._class_cols: dict[int, dict] = {}
        for pos, (_, urow) in enumerate(torsion + free):
            for r, x in urow.items():
                self._class_cols.setdefault(r, {})[pos] = x
        # rows of U restricted to the generators, through the row operations backwards
        for i, u, c in reversed(steps):
            acc: dict = {}
            for r, x in c.items():
                below = self._class_cols.get(r)
                if below and r != i:
                    vec_addmul(acc, below, -u * x)
            if acc:
                self._class_cols[i] = acc

    def sparse_coords(self, vec: dict) -> dict:
        """Class of a vector of Z^rows as a sparse dict {generator
        position: coefficient}, torsion coordinates not reduced."""
        out: dict = {}
        for r, y in vec.items():
            col = self._class_cols.get(r)
            if col:
                for pos, x in col.items():
                    out[pos] = out.get(pos, 0) + y * x
        return out if all(out.values()) else {pos: x for pos, x in out.items() if x}

    def coords(self, vec: dict) -> tuple[int, ...]:
        """Class of a vector of Z^rows in generator coordinates, torsion
        coordinates reduced into [0, d)."""
        out = [0] * len(self.generators)
        for pos, x in self.sparse_coords(vec).items():
            out[pos] = x
        return tuple(w % d if d else w for w, d in zip(out, self._divisors))


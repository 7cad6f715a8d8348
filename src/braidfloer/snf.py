"""Exact integer matrices and Smith normal form with certificates.

All arithmetic is arbitrary-precision (plain Python int); nothing here
may silently overflow or round.  smith_normal_form returns the diagonal
form S together with unimodular transforms U, V satisfying U*M*V = S,
so every result can be re-verified by multiplication, and cokernels of
integer matrices come with canonical coordinates (reduce U*v modulo the
invariant factors).

The pivot search stops at the first unit entry, since nothing is
smaller, and a unit pivot skips the divisibility scan.  ``cokernel``
needs only the invariant factors, so it first eliminates unit pivots on
a sparse copy of the nonzeros and runs ``smith_normal_form`` on the
small core left; ``ClassSpace`` keeps the full form, whose U gives the
labels.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for r in self.entries:
            # one pass over the types; subclasses of int are looked at
            # one entry at a time, where bool is told apart
            if set(map(type, r)) - {int}:
                for x in r:
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise TypeError(f"integer entries required, got {x!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def det(self) -> int:
        """Fraction-free Bareiss elimination; exact for any size."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a matrix with determinant +-1."""
        n = self.rows
        if n != self.cols:
            raise ValueError("not square")
        a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
             for i, row in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        inv = [row[n:] for row in a]
        if any(x.denominator != 1 for row in inv for x in row):
            raise ValueError("matrix is not unimodular")
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in inv))


@dataclass(frozen=True)
class SnfResult:
    """Certified factorization U*M*V = S with S diagonal."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i, i] for i in range(min(self.s.rows, self.s.cols)))


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Diagonalize over Z.

    The returned diagonal is nonnegative and satisfies the divisibility
    chain d1 | d2 | ... ; U and V are products of elementary integer row
    and column operations, hence unimodular.
    """
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def row_addmul(i, k, q):
        # row_i += q * row_k
        a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        u[i] = [x + q * y for x, y in zip(u[i], u[k])]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def col_addmul(j, k, q):
        # col_j += q * col_k
        for r in a:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    def least():
        # the row-major first entry of least absolute value in the
        # trailing block; nothing is less than 1, so the first unit ends
        # the search with the pivot a full scan would pick
        best, size = None, 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x and (best is None or abs(x) < size):
                    best, size = (i, j), abs(x)
                    if size == 1:
                        return best
        return best

    t = 0
    while t < min(nr, nc):
        best = least()
        if best is None:
            break
        while True:
            i0, j0 = best
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if a[t][t] < 0:
                row_neg(t)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    row_addmul(i, t, -(a[i][t] // p))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    col_addmul(j, t, -(a[t][j] // p))
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                if p == 1:  # 1 divides every entry left
                    break
                bad = next(((i, j) for i in range(t + 1, nr)
                            for j in range(t + 1, nc) if a[i][j] % p != 0), None)
                if bad is None:
                    break
                row_addmul(t, bad[0], 1)
            best = least()
        t += 1

    return SnfResult(s=IntMatrix.from_rows(a),
                     u=IntMatrix.from_rows(u),
                     v=IntMatrix.from_rows(v))


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group: Z^free_rank + sum Z/torsion_i.

    Torsion factors are >= 2 and ascend along divisibility, as produced
    by Smith normal form.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for prev, cur in zip((None,) + self.torsion, self.torsion):
            if cur < 2:
                raise ValueError(f"torsion factor {cur} < 2")
            if prev is not None and cur % prev != 0:
                raise ValueError("torsion factors must ascend along divisibility")

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for f in self.torsion:
            out *= f
        return out

    def pretty(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{f}" for f in self.torsion]
        return " x ".join(parts) if parts else "0"


def cokernel(m: IntMatrix) -> AbelianGroup:
    """The group Z^rows / (column span of m).

    Only the invariant factors are wanted, and they do not depend on the
    elimination order, so the ±1 entries are eliminated first on a
    sparse copy of the nonzeros: a unit pivot at (r, c) clears its row
    and column by unimodular operations and leaves Z/1, so row r and
    column c are dropped and the rows that met column c take a multiple
    of row r.  Pivots come from the rows with the fewest nonzeros, and
    within a row from the column with the fewest.  Rows that run out of
    nonzeros are free summands, and ``smith_normal_form`` runs only on
    the core that is left, where no entry is a unit.  The cost follows
    the nonzeros and their fill-in, not the matrix size.
    """
    rows = {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(m.entries)}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    while heap:
        n, r = heapq.heappop(heap)
        pivot_row = rows.get(r)
        if pivot_row is None or len(pivot_row) != n:
            continue  # gone, or changed since this entry was pushed
        units = [j for j, x in pivot_row.items() if x in (1, -1)]
        if not units:
            continue  # pushed again if it ever changes
        c = min(units, key=lambda j: (len(cols[j]), j))
        p = pivot_row[c]  # a unit is its own inverse
        del rows[r]
        for j in pivot_row:
            cols[j].discard(r)
        for i in cols.pop(c):
            row = rows[i]
            q = row.pop(c) * p
            for j, x in pivot_row.items():
                if j == c:
                    continue
                y = row.get(j, 0) - q * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
            heapq.heappush(heap, (len(row), i))
    # zero rows are free summands and stay out of the core
    nonzero = [row for _, row in sorted(rows.items()) if row]
    live = sorted({j for row in nonzero for j in row})
    core = IntMatrix.from_rows(tuple(row.get(j, 0) for j in live)
                               for row in nonzero)
    diag = smith_normal_form(core).diagonal()
    torsion = tuple(x for x in diag if x not in (0, 1))
    free_rank = len(rows) - sum(1 for x in diag if x != 0)
    return AbelianGroup(free_rank=free_rank, torsion=torsion)


@dataclass(frozen=True)
class ClassSpace:
    """Z^n / (column span of a matrix), with canonical coordinates.

    A vector v is classified by reducing U*v modulo the diagonal factors;
    coordinates whose factor is 1 carry no information and are dropped
    from labels.  Labels are tuples of ints: entry in [0, f) where the
    factor f is finite, an unconstrained int where the factor is 0.

    Labels depend on the (deterministic) choice of U, so only invariant
    data (factor multiset, coefficient per class, element orders) should
    be compared across different matrices.
    """

    factors: tuple[int, ...]  # one per ambient coordinate; 0 means a Z summand
    u: IntMatrix

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "ClassSpace":
        res = smith_normal_form(m)
        diag = res.diagonal()
        factors = tuple(diag[i] if i < len(diag) else 0 for i in range(m.rows))
        return cls(factors=factors, u=res.u)

    @property
    def _kept(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f != 1)

    def invariant_factors(self) -> tuple[int, ...]:
        """The non-unit diagonal factors, in SNF order (0 = a Z summand)."""
        return tuple(self.factors[i] for i in self._kept)

    def group(self) -> AbelianGroup:
        facs = self.invariant_factors()
        return AbelianGroup(free_rank=sum(1 for f in facs if f == 0),
                            torsion=tuple(f for f in facs if f))

    def order(self) -> int | None:
        return self.group().order()

    def label_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(row of U, factor) per label coordinate: coordinate i of the
        label of v is row_i . v, reduced modulo factor_i unless it is 0."""
        return tuple((self.u.entries[i], self.factors[i]) for i in self._kept)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        y = self.u.mul_vec(vec)
        return tuple(y[i] % self.factors[i] if self.factors[i] else y[i]
                     for i in self._kept)

    def enumerate_labels(self) -> tuple[tuple[int, ...], ...]:
        """All labels, in lexicographic order.  Finite spaces only."""
        facs = self.invariant_factors()
        if any(f == 0 for f in facs):
            raise ValueError("cannot enumerate an infinite class space")
        return tuple(itertools.product(*(range(f) for f in facs)))

    def representative_vector(self, label: Sequence[int]) -> tuple[int, ...]:
        """An integer vector in the ambient Z^n projecting to the label."""
        kept = self._kept
        if len(label) != len(kept):
            raise ValueError("label length mismatch")
        y = [0] * len(self.factors)
        for value, i in zip(label, kept):
            y[i] = value
        return self._u_inverse.mul_vec(y)

    @cached_property
    def _u_inverse(self) -> IntMatrix:
        return self.u.inverse_unimodular()

    def element_order(self, label: Sequence[int]) -> int:
        """Order of the class in the group; 0 stands for infinite."""
        out = 1
        for value, i in zip(label, self._kept):
            f = self.factors[i]
            if f == 0:
                if value != 0:
                    return 0
            else:
                out = lcm(out, f // gcd(f, value % f))
        return out

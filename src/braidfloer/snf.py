"""Class spaces of integer matrices.

All arithmetic is arbitrary-precision (plain Python int); nothing here
may silently overflow or round.  A ``ClassSpace`` is the quotient
Z^rows / (column span of M) with canonical coordinates: a vector is
labelled by U*v reduced modulo the invariant factors, where U*M*V is
the Smith normal form.

There is one Smith elimination, ``_smith_eliminate``, on dense rows.
It carries U along and returns it; V is not kept.  Its pivot rule is
the one ``tests/_oracles.smith_normal_form(stop_at_units=True)``
certifies, so the factors and labels are that reference's.

The report uses nothing of this module.  The Nielsen classes of a
d-cycle braid have the space Z/d, labelled by the exponent sum
(``nielsen``), and the pi1 of its fiber sum abelianizes to Z x Z/d,
written from d (``fourmanifold``).  ``nielsen.class_space`` keeps the
general coker(I - A) as the reference the tests check the first reading
against; the second is checked against the invariant factors of a
presentation's class space in ``tests/_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence


def _smith_eliminate(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Diagonalize the dense rows ``a``, of ``ncols`` entries each, in
    place; return U, for U*M*V the diagonal left in ``a`` and V the
    product of the column operations, which is not kept.

    The pivot is the row-major first entry of least absolute value in
    the trailing block; the search ends at the first unit, since nothing
    is smaller.  It is moved to (t, t) and made positive; every other
    row and column then takes the floor multiple of it that leaves a
    remainder, and while a remainder is left the pivot is searched
    again.  When the row and column are clear, a pivot other than 1 that
    fails to divide an entry of the block takes that entry's row into
    its own.  The result satisfies d1 | d2 | ... .
    """
    nr = len(a)
    u = [[int(i == k) for k in range(nr)] for i in range(nr)]

    def row_addmul(i, k, q):
        # row_i += q * row_k
        a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        u[i] = [x + q * y for x, y in zip(u[i], u[k])]

    def least():
        best, size = None, 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, ncols):
                x = abs(row[j])
                if x and (best is None or x < size):
                    best, size = (i, j), x
                    if x == 1:
                        return best
        return best

    t = 0
    while t < min(nr, ncols):
        best = least()
        if best is None:
            break
        while True:
            i0, j0 = best
            a[t], a[i0] = a[i0], a[t]
            u[t], u[i0] = u[i0], u[t]
            for row in a:
                row[t], row[j0] = row[j0], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_addmul(i, t, -(a[i][t] // p))
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = -(a[t][j] // p)
                    for row in a:  # col_j += q * col_t
                        row[j] += q * row[t]
                    dirty = dirty or a[t][j] != 0
            if not dirty:
                if p == 1:  # 1 divides every entry left
                    break
                bad = next((i for i in range(t + 1, nr)
                            if any(x % p for x in a[i])), None)
                if bad is None:
                    break
                row_addmul(t, bad, 1)
            best = least()
        t += 1
    return u


@dataclass(frozen=True)
class ClassSpace:
    """Z^n / (column span of a matrix), with canonical coordinates.

    A vector v is classified by reducing U*v modulo the diagonal factors
    of the Smith form U*M*V = S; coordinates whose factor is 1 carry no
    information and are dropped from labels.  Labels are tuples of ints:
    entry in [0, f) where the factor f is finite, an unconstrained int
    where the factor is 0.

    Labels depend on the (deterministic) choice of U, so only invariant
    data (factor multiset, coefficient per class) should be compared
    across different matrices.
    """

    factors: tuple[int, ...]  # one per ambient coordinate; 0 means a Z summand
    u: tuple[tuple[int, ...], ...]  # the rows of U

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ClassSpace":
        """The class space of the matrix with the dense ``rows``, all of
        one length; the rows are not changed."""
        a = [list(row) for row in rows]
        ncols = len(a[0]) if a else 0
        u = _smith_eliminate(a, ncols)
        return cls(factors=tuple(row[i] if i < ncols else 0
                                 for i, row in enumerate(a)),
                   u=tuple(map(tuple, u)))

    def invariant_factors(self) -> tuple[int, ...]:
        """The non-unit diagonal factors, in SNF order (0 = a Z summand)."""
        return tuple(f for f in self.factors if f != 1)

    @property
    def _label_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(row of U, factor) per label coordinate: coordinate i of the
        label of v is row_i . v, reduced modulo factor_i unless it is 0."""
        return tuple((row, f) for row, f in zip(self.u, self.factors)
                     if f != 1)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != len(self.factors):
            raise ValueError("shape mismatch")
        out = []
        for row, f in self._label_rows:
            y = sum(map(mul, row, vec))
            out.append(y % f if f else y)
        return tuple(out)

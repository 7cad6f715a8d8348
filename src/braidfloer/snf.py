"""Class spaces of integer matrices and finitely generated abelian groups.

All arithmetic is arbitrary-precision (plain Python int); nothing here
may silently overflow or round.  A ``ClassSpace`` is the quotient
Z^rows / (column span of M) with canonical coordinates: a vector is
labelled by U*v reduced modulo the invariant factors, where U*M*V is
the Smith normal form, and ``group()`` is its ``AbelianGroup``.

There is one Smith elimination, ``_smith_eliminate``.  It runs on
sparse rows (column -> nonzero entry) with an index from each column to
the rows that hold it, so a row or column operation costs the nonzeros
it touches.  It logs its row operations instead of updating a dense U.
The pivot search stops at the first row holding a unit entry, since
nothing is smaller (ties are broken row-major, so this is the pivot a
full scan would pick), and a unit pivot skips the divisibility scan.
``ClassSpace`` keeps the row-operation log and replays the few rows of
U its labels need.

The report reaches no elimination.  The Nielsen classes of a d-cycle
braid have the space Z/d, labelled by the exponent sum (``nielsen``),
and the pi1 of its fiber sum abelianizes to Z x Z/d, read off d
(``fourmanifold.simplified_pi1``).  ``nielsen.class_space`` keeps the
general coker(I - A) as the reference the tests check the first reading
against; the second is checked against the abelianization of a
presentation in ``tests/_oracles.py``, which builds its group here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Sequence


def _smith_eliminate(rows: list[dict[int, int]], ncols: int) -> list[tuple]:
    """Diagonalize sparse rows in place; return the row operations, in
    the order they were made.

    ``rows[i]`` maps column to nonzero entry; a column index maps each
    column to the rows holding it, so an operation costs the nonzeros it
    touches.  The pivot is the row-major first entry of least absolute
    value in the trailing block, found row by row and ending at the
    first row that holds a unit.  It is moved to (t, t) and made
    positive; every other row and column then takes the floor multiple
    of it that leaves a remainder, and while a remainder is left the
    pivot is searched again.  When the row and column are clear, a pivot
    other than 1 that fails to divide an entry of the block takes that
    entry's row into its own.  The result satisfies d1 | d2 | ... .

    Row operations are logged as ``("swap", i, k)``, ``("add", i, k, q)``
    for row i += q * row k, and ``("neg", i)``.  U is their product, and
    U*M*V is the diagonal left in ``rows`` for the product V of the
    column operations, which are made but not logged.
    """
    nr = len(rows)
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    row_ops: list[tuple] = []

    def row_swap(i, k):
        for j in rows[i]:
            cols[j].discard(i)
        for j in rows[k]:
            cols[j].discard(k)
        rows[i], rows[k] = rows[k], rows[i]
        for j in rows[i]:
            cols[j].add(i)
        for j in rows[k]:
            cols[j].add(k)
        row_ops.append(("swap", i, k))

    def row_addmul(i, k, q):
        # row_i += q * row_k, with q != 0
        row = rows[i]
        for j, y in rows[k].items():
            x = row.get(j, 0) + q * y
            if x:
                if j not in row:
                    cols[j].add(i)
                row[j] = x
            else:
                del row[j]
                cols[j].discard(i)
        row_ops.append(("add", i, k, q))

    def row_neg(i):
        rows[i] = {j: -x for j, x in rows[i].items()}
        row_ops.append(("neg", i))

    def col_swap(j, k):
        for i in cols[j] | cols[k]:
            row = rows[i]
            x, y = row.pop(j, 0), row.pop(k, 0)
            if x:
                row[k] = x
            if y:
                row[j] = y
        cols[j], cols[k] = cols[k], cols[j]

    def col_addmul(j, k, q):
        # col_j += q * col_k, with q != 0
        col = cols[j]
        for i in cols[k]:
            row = rows[i]
            x = row.get(j, 0) + q * row[k]
            if x:
                if j not in row:
                    col.add(i)
                row[j] = x
            else:
                del row[j]
                col.discard(i)

    def least():
        # rows >= t hold no entry left of column t, so their nonzeros
        # are the trailing block; nothing is less than 1, so the first
        # row with a unit ends the search with the pivot a full scan
        # would pick
        best, size = None, 0
        for i in range(t, nr):
            row = rows[i]
            if not row:
                continue
            units = [j for j, x in row.items() if x == 1 or x == -1]
            if units:
                return i, min(units)
            j = min(row, key=lambda j: (abs(row[j]), j))
            if best is None or abs(row[j]) < size:
                best, size = (i, j), abs(row[j])
        return best

    t = 0
    while t < min(nr, ncols):
        best = least()
        if best is None:
            break
        while True:
            i0, j0 = best
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if rows[t][t] < 0:
                row_neg(t)
            p = rows[t][t]
            dirty = False
            for i in sorted(cols[t]):
                if i > t:
                    q = -(rows[i][t] // p)
                    if q:
                        row_addmul(i, t, q)
                    if t in rows[i]:
                        dirty = True
            pivot_row = rows[t]
            for j in sorted(pivot_row):
                if j > t:
                    q = -(pivot_row[j] // p)
                    if q:
                        col_addmul(j, t, q)
                    if j in pivot_row:
                        dirty = True
            if not dirty:
                if p == 1:  # 1 divides every entry left
                    break
                bad = next((i for i in range(t + 1, nr)
                            if any(x % p for x in rows[i].values())), None)
                if bad is None:
                    break
                row_addmul(t, bad, 1)
            best = least()
        t += 1
    return row_ops


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


@dataclass(frozen=True)
class ClassSpace:
    """Z^n / (column span of a matrix), with canonical coordinates.

    A vector v is classified by reducing U*v modulo the diagonal factors
    of the Smith form U*M*V = S; coordinates whose factor is 1 carry no
    information and are dropped from labels.  Labels are tuples of ints:
    entry in [0, f) where the factor f is finite, an unconstrained int
    where the factor is 0.

    U is kept as the log of the elimination's row operations, not as a
    matrix: row i of U is e_i times U, read by applying the operations
    to e_i from the right, last first, at a cost of O(#ops).

    Labels depend on the (deterministic) choice of U, so only invariant
    data (factor multiset, coefficient per class) should be compared
    across different matrices.
    """

    factors: tuple[int, ...]  # one per ambient coordinate; 0 means a Z summand
    row_ops: tuple[tuple, ...]  # U as its row operations, in order

    @classmethod
    def from_rows(cls, rows: Sequence[dict[int, int]],
                  ncols: int) -> "ClassSpace":
        """The class space of the matrix whose rows map column to
        nonzero entry; the rows are not changed."""
        rows = [dict(row) for row in rows]
        row_ops = _smith_eliminate(rows, ncols)
        return cls(factors=tuple(row.get(i, 0) for i, row in enumerate(rows)),
                   row_ops=tuple(row_ops))

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

    @cached_property
    def _label_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(row of U, factor) per label coordinate: coordinate i of the
        label of v is row_i . v, reduced modulo factor_i unless it is 0."""
        out = []
        for i in self._kept:
            # e_i U = e_i E_m ... E_1 for U = E_m ... E_1
            r = [0] * len(self.factors)
            r[i] = 1
            for op in reversed(self.row_ops):
                if op[0] == "add":  # E = I + q e_a e_b^T
                    _, a, b, q = op
                    r[b] += q * r[a]
                elif op[0] == "swap":
                    _, a, b = op
                    r[a], r[b] = r[b], r[a]
                else:
                    r[op[1]] = -r[op[1]]
            out.append((tuple(r), self.factors[i]))
        return tuple(out)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != len(self.factors):
            raise ValueError("shape mismatch")
        out = []
        for row, f in self._label_rows:
            y = sum(map(mul, row, vec))
            out.append(y % f if f else y)
        return tuple(out)

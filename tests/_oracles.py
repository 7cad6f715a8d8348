"""Reference implementations that the package's faster paths are tested
against.  Each is a straightforward version of an algorithm the package
runs with more bookkeeping; both must give identical results."""

from __future__ import annotations

from dataclasses import dataclass

from braidfloer.fourmanifold import (PresentedGroup, _cyclic_key,
                                     _substitute_generator)
from braidfloer.freegroup import FreeWord, _cyclic_reduce, _inverse
from braidfloer.snf import IntMatrix, SnfResult


def tietze_simplify(g: PresentedGroup) -> PresentedGroup:
    """Generator elimination that rescans every relator after every
    move: the candidate search counts the letters of all relators, the
    move substitutes into all of them, and normalization keys them all
    again, keeping the first of each set of duplicates."""
    relators = [r.letters for r in g.relators]
    alive = list(range(1, len(g.generators) + 1))

    def normalize() -> None:
        seen: set[tuple[int, ...]] = set()
        out = []
        for letters in relators:
            letters = _cyclic_reduce(letters)
            if not letters:
                continue
            key = _cyclic_key(letters)
            if key in seen:
                continue
            seen.add(key)
            out.append(letters)
        relators[:] = out

    normalize()
    while True:
        candidates = []
        for ri, letters in enumerate(relators):
            counts: dict[int, int] = {}
            for x in letters:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for gen, cnt in counts.items():
                if cnt == 1:
                    candidates.append((len(letters), gen, ri))
        if not candidates:
            break
        _, gen, ri = min(candidates)
        letters = relators.pop(ri)
        pos = next(i for i, x in enumerate(letters) if abs(x) == gen)
        rest = letters[pos + 1:] + letters[:pos]
        value = rest if letters[pos] < 0 else _inverse(rest)
        relators[:] = [_substitute_generator(r, gen, value) for r in relators]
        alive.remove(gen)
        normalize()
    index: dict[int, int] = {}
    for i, gen in enumerate(alive, start=1):
        index[gen], index[-gen] = i, -i
    return PresentedGroup(
        tuple(g.generators[gen - 1] for gen in alive),
        tuple(FreeWord(len(alive), tuple(index[x] for x in r))
              for r in relators))


def smith_normal_form(m: IntMatrix, stop_at_units: bool = False
                      ) -> SnfResult:
    """Smith normal form on dense rows, with a full scan of the trailing
    block for every pivot search and a full divisibility scan after
    every pivot.  With ``stop_at_units`` the search ends at the first
    unit (row-major, so at the same pivot) and a unit pivot skips the
    divisibility scan, which makes large sparse matrices affordable."""
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def row_addmul(i, k, q):
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
        for r in a:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    def least():
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
                    if stop_at_units and abs(a[i][j]) == 1:
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
                if stop_at_units and p == 1:
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
class ClassSpace:
    """coker(M) labelled by the rows of the dense U of a dense Smith
    normal form, kept as a matrix."""

    factors: tuple[int, ...]
    u: IntMatrix

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "ClassSpace":
        res = smith_normal_form(m, stop_at_units=True)
        diag = res.diagonal()
        return cls(factors=tuple(diag[i] if i < len(diag) else 0
                                 for i in range(m.rows)),
                   u=res.u)

    @classmethod
    def of_action(cls, a: IntMatrix) -> "ClassSpace":
        """coker(I - A), with I - A built as a dense matrix."""
        return cls.from_matrix(IntMatrix.identity(a.rows).sub(a))

    def label_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple((self.u.entries[i], f)
                     for i, f in enumerate(self.factors) if f != 1)

    def project(self, vec) -> tuple[int, ...]:
        out = []
        for row, f in self.label_rows():
            y = sum(a * b for a, b in zip(row, vec))
            out.append(y % f if f else y)
        return tuple(out)


def assert_same_class_space(cs, oracle: ClassSpace, vectors) -> None:
    """``cs`` has the oracle's factors, label rows and projections, and
    the representative of each projected label projects back to it."""
    assert cs.factors == oracle.factors
    assert cs.label_rows() == oracle.label_rows()
    for v in vectors:
        label = cs.project(v)
        assert label == oracle.project(v)
        assert cs.project(cs.representative_vector(label)) == label

"""Reference implementations that the package's faster paths are tested
against.  Each is a straightforward version of an algorithm the package
runs with more bookkeeping; both must give identical results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from braidfloer.fourmanifold import (PresentedGroup, _cyclic_key,
                                     _substitute_generator)
from braidfloer.freegroup import (FreeGroupEndo, FreeWord, _cyclic_reduce,
                                  _inverse)


@dataclass(frozen=True)
class IntMatrix:
    """A dense integer matrix, for the reference eliminations and the
    matrix identities that check them."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for r in self.entries:
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

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def sparse_rows(self) -> list[dict[int, int]]:
        """The nonzeros of each row, keyed by column: the input of
        ``braidfloer.snf.ClassSpace.from_rows``."""
        return [{j: x for j, x in enumerate(row) if x} for row in self.entries]


@dataclass(frozen=True)
class SnfResult:
    """A factorization U*M*V = S with S diagonal."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i, i] for i in range(min(self.s.rows, self.s.cols)))


def substitute(word: FreeWord, images) -> FreeWord:
    """Replace each letter +-j by images[j-1]^{+-1}, then reduce the
    whole word."""
    letters: list[int] = []
    for x in word.letters:
        image = images[abs(x) - 1].letters
        letters += image if x > 0 else _inverse(image)
    return FreeWord.from_letters(images[0].rank if images else 0, letters)


def compose(f: FreeGroupEndo, g: FreeGroupEndo) -> FreeGroupEndo:
    """f after g: compose(f, g)(w) = f(g(w))."""
    return FreeGroupEndo(f.rank, tuple(substitute(w, f.images)
                                       for w in g.images))


# Elements of the group ring Z[F] are dicts from FreeWord to nonzero
# coefficient.

def ring_add(*elements: dict) -> dict:
    out: dict[FreeWord, int] = {}
    for element in elements:
        for w, c in element.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def ring_mul(a: dict, b: dict) -> dict:
    return ring_add(*({w1 * w2: c1 * c2} for w1, c1 in a.items()
                      for w2, c2 in b.items()))


def fox_derivative(word: FreeWord, j: int) -> dict:
    """d(word)/dxj from the rules d(xj)/dxj = 1, d(xi)/dxj = 0 for
    i != j and d(uv) = du + u dv, so that d(xj^-1)/dxj = -xj^-1: the
    sum over the letters x of p * dx/dxj, p the product before x."""
    if not 1 <= j <= word.rank:
        raise IndexError(f"generator index {j} out of range for rank {word.rank}")
    out: dict[FreeWord, int] = {}
    prefix = FreeWord.identity(word.rank)
    for x in word.letters:
        letter = FreeWord(word.rank, (x,))
        if x == j:
            out = ring_add(out, {prefix: 1})
        elif x == -j:
            out = ring_add(out, ring_mul({prefix: 1}, {letter: -1}))
        prefix = prefix * letter
    return out


def reidemeister_trace_raw(e: FreeGroupEndo) -> dict:
    """[1] - sum_j d(e(xj))/dxj, by Fox derivatives."""
    return ring_add({FreeWord.identity(e.rank): 1},
                    *({w: -c for w, c in fox_derivative(image, j).items()}
                      for j, image in enumerate(e.images, start=1)))


def abelianization_matrix(e: FreeGroupEndo) -> IntMatrix:
    """A dense A: column j is the exponent vector of the image of xj."""
    return IntMatrix.from_rows(zip(*(w.exponent_vector()
                                     for w in e.images)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(tuple(zip(*m.entries)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return IntMatrix(tuple(
        tuple(sum(x * y for x, y in zip(row, col))
              for col in transpose(b).entries)
        for row in a.entries))


def det(m: IntMatrix) -> int:
    """Fraction-free Bareiss elimination; exact for any size."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    """``cs`` has the oracle's factors, label rows and projections."""
    assert cs.factors == oracle.factors
    assert cs._label_rows == oracle.label_rows()
    for v in vectors:
        assert cs.project(v) == oracle.project(v)

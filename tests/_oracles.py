"""Reference implementations that the package's faster paths and
read-off results are tested against.  Each is a straightforward version
of an algorithm the package runs with more bookkeeping, or skips because
its result can be read off; both must give identical results.  The
presentations of pi1 are built here as checked words (``PresentedGroup``),
which the report renders as text straight from d and the images."""

from __future__ import annotations

import copy
import pickle
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from braidfloer import snf
from braidfloer.braids import (_HEADER, MAX_STRANDS, BraidIndexError,
                               BraidSyntaxError, BraidWord, _integer, _reduce,
                               _shown, _shown_repr, induced_permutation)
from braidfloer.fourmanifold import (CONFIG_KEYS, KNOWN_KINDS, PIECE_KEYS,
                                     ConfigurationError, _is_integer,
                                     _known_keys, _misshapen, _no_key,
                                     _not_integer, _pairing, _text)
from braidfloer.fourmanifold import _integer as _config_integer
from braidfloer.freegroup import FreeGroupEndo, FreeWord, _concat, _inverse


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


@dataclass(frozen=True)
class SnfResult:
    """A factorization U*M*V = S with S diagonal."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i, i] for i in range(min(self.s.rows, self.s.cols)))


# each run of non-space characters, then the whole run as one token
_RUNS = re.compile(r"\S+", re.ASCII)
_TOKEN = re.compile(r"([st])([0-9]+)(\^-1)?\Z")


def parse_braid_by_runs(text: str) -> BraidWord:
    """``parse_braid`` as two scans: find each run of non-space
    characters, then match the run against the token pattern.  A token
    s<i> or t<k> is the letter i or MAX_STRANDS + k, negated by ^-1."""
    m = _HEADER.match(text)
    if m is None:
        raise BraidSyntaxError("expected header of the form 'd=<int>;'", 0)
    digits = m.group(1)
    d = _integer(digits, m.start(1))
    if not 2 <= d <= MAX_STRANDS:
        raise BraidIndexError(f"d must lie in 2..{MAX_STRANDS}", "d=" + digits,
                              m.start(1))
    letters = []
    for tok in _RUNS.finditer(text, m.end()):
        pos = tok.start()
        t = _TOKEN.match(tok.group())
        if t is None:
            raise BraidSyntaxError(f"bad token {_shown(tok.group())!r}", pos)
        kind, index, inv = t.group(1), _integer(t.group(2), pos), t.group(3)
        limit = d - 1 if kind == "s" else d
        if not 1 <= index <= limit:
            what = "Artin generator" if kind == "s" else "framing twist"
            raise BraidIndexError(
                f"{what} index must lie in 1..{limit} for d={d}", tok.group(), pos)
        offset = {"s": 0, "t": MAX_STRANDS}[kind]
        letters.append((-1 if inv else 1) * (offset + index))
    return BraidWord(d, _reduce(letters))


def substitute(word: FreeWord, images) -> FreeWord:
    """Replace each letter +-j by images[j-1]^{+-1}, then reduce the
    whole word."""
    letters: list[int] = []
    for x in word.letters:
        image = images[abs(x) - 1].letters
        letters += image if x > 0 else _inverse(image)
    return FreeWord.from_letters(images[0].rank if images else 0, letters)


def W(rank: int, *letters: int) -> FreeWord:
    """The checked, reduced word of these letters."""
    return FreeWord.from_letters(rank, letters)


def braid_inverse(b: BraidWord) -> BraidWord:
    """The inverse word: the letters reversed, each sign flipped."""
    return BraidWord(b.d, _inverse(b.letters))


def braid_product(*words: BraidWord) -> BraidWord:
    """The words in turn, reduced: the last acts first."""
    return BraidWord.from_letters(words[0].d, sum((w.letters for w in words), ()))


def identity_endo(rank: int) -> FreeGroupEndo:
    return FreeGroupEndo(rank, tuple(FreeWord(rank, (j,))
                                     for j in range(1, rank + 1)))


def compose(f: FreeGroupEndo, g: FreeGroupEndo) -> FreeGroupEndo:
    """f after g: compose(f, g)(w) = f(g(w))."""
    return FreeGroupEndo(f.rank, tuple(substitute(w, f.images)
                                       for w in g.images))


def artin_by_substitution(b: BraidWord) -> FreeGroupEndo:
    """The action of b on the rank d punctured-disc group, as each Artin
    letter's automorphism composed by substitution, the rightmost letter
    acting first: s_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to
    x_i, and s_i^-1 sends x_i to x_{i+1} and x_{i+1} to
    x_{i+1}^-1 x_i x_{i+1}; twists, the letters past MAX_STRANDS, act
    trivially."""
    d = b.d
    identity = [(j,) for j in range(1, d + 1)]
    e = identity_endo(d)
    for x in b.letters:
        if abs(x) > MAX_STRANDS:
            continue
        i, images = abs(x), list(identity)
        if x > 0:
            images[i - 1:i + 1] = (i, i + 1, -i), (i,)
        else:
            images[i - 1:i + 1] = (i + 1,), (-i - 1, i, i + 1)
        letter = FreeGroupEndo(
            d, tuple(FreeWord.from_letters(d, w) for w in images))
        e = compose(e, letter)
    return e


# Elements of the group ring Z[F] are dicts from FreeWord to nonzero
# coefficient.

def ring_add(*elements: dict) -> dict:
    out: dict[FreeWord, int] = {}
    for element in elements:
        for w, c in element.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def ring_mul(a: dict, b: dict) -> dict:
    return ring_add(*({FreeWord(u.rank, _concat(u.letters, v.letters)): c * e}
                      for u, c in a.items() for v, e in b.items()))


def fox_derivative(word: FreeWord, j: int) -> dict:
    """d(word)/dxj from the rules d(xj)/dxj = 1, d(xi)/dxj = 0 for
    i != j and d(uv) = du + u dv, so that d(xj^-1)/dxj = -xj^-1: the
    sum over the letters x of p * dx/dxj, p the product before x."""
    if not 1 <= j <= word.rank:
        raise IndexError(f"generator index {j} out of range for rank {word.rank}")
    out: dict[FreeWord, int] = {}
    prefix = W(word.rank)
    for x in word.letters:
        letter = FreeWord(word.rank, (x,))
        if x == j:
            out = ring_add(out, {prefix: 1})
        elif x == -j:
            out = ring_add(out, ring_mul({prefix: 1}, {letter: -1}))
        prefix = FreeWord(word.rank, _concat(prefix.letters, (x,)))
    return out


def reidemeister_trace_raw(e: FreeGroupEndo) -> dict:
    """[1] - sum_j d(e(xj))/dxj, by Fox derivatives."""
    return ring_add({W(e.rank): 1},
                    *({w: -c for w, c in fox_derivative(image, j).items()}
                      for j, image in enumerate(e.images, start=1)))


def abelianization_matrix(e: FreeGroupEndo) -> IntMatrix:
    """A dense A: column j is the exponent vector of the image of xj."""
    return IntMatrix.from_rows(zip(*(w.exponent_vector()
                                     for w in e.images)))


def lefschetz_number(e: FreeGroupEndo) -> int:
    """1 - trace(A), for A the dense abelianized action."""
    return 1 - abelianization_matrix(e).trace()


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


def _cyclic_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Strip the letters that cancel cyclically from a reduced word."""
    i = 0
    while i * 2 < len(letters) - 1 and letters[i] == -letters[-1 - i]:
        i += 1
    return letters[i:len(letters) - i]


@dataclass(frozen=True)
class PresentedGroup:
    """Generators by name, relators as words over them (freely and
    cyclically reduced)."""

    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for r in self.relators:
            if r.rank != len(self.generators):
                raise ValueError("relator rank does not match generator count")
            if not r.letters or _cyclic_reduce(r.letters) != r.letters:
                raise ValueError("relators must be cyclically reduced and nonempty")

    def relator_texts(self) -> tuple[str, ...]:
        table = {}
        for j, name in enumerate(self.generators, start=1):
            table[j], table[-j] = name, name + "^-1"
        return tuple(" ".join(map(table.__getitem__, r.letters))
                     for r in self.relators)

    def to_dict(self) -> dict:
        return {"generators": list(self.generators),
                "relators": list(self.relator_texts())}


def _commutator(rank: int, i: int, j: int) -> FreeWord:
    """[xi, xj] for generators 1 <= i != j <= rank."""
    return FreeWord(rank, (i, j, -i, -j))


def mapping_torus_presentation(b: BraidWord, e: FreeGroupEndo
                               ) -> PresentedGroup:
    """pi1 of (circle) x (mapping torus of the braid action), minus the
    surgered torus, as words; ``e`` is the braid's action
    ``artin_endo(b)``.  The reference the report's ``mapping_torus``
    text is checked against.  Rejects, with ValueError, a braid that is
    not the standard cycle: the construction surgers a single closed
    orbit of the marked points; and an ``e`` with a trivial image,
    which no braid induces."""
    if not induced_permutation(b).is_standard_cycle():
        raise ValueError(
            f"braid {b.to_text()!r} does not induce the standard cycle")
    d = b.d
    if e.rank != d - 1:
        raise ValueError(f"endomorphism of rank {e.rank} given for d={d}")
    n = d + 1  # l1, l2, x1..x<d-1>
    gens = ("l1", "l2") + tuple(f"x{i}" for i in range(1, d))
    relators = [_commutator(n, 1, 2)]
    for i in range(1, d):
        relators.append(_commutator(n, 1, 2 + i))
    for i in range(1, d):
        # l2 xi l2^-1 phi(xi)^-1, with the x letters of the image
        # renumbered past l1, l2
        image = e.images[i - 1].letters
        if not image:
            raise ValueError(f"the image of x{i} is trivial")
        shifted = tuple(y + 2 if y > 0 else y - 2 for y in image)
        relators.append(FreeWord(n, (2, 2 + i, -2) + _inverse(shifted)))
    return PresentedGroup(gens, tuple(relators))


def assemble_pi1(mapping_torus: PresentedGroup) -> PresentedGroup:
    """Kill the meridian (x1) and the second longitude (l2^d) of the
    surgered torus in ``mapping_torus_presentation``'s group, whose d+1
    generators are l1, l2, x1..x<d-1>.  The reference the report's
    ``assembled`` text is checked against.  Rejects a group of fewer
    than three generators."""
    n = len(mapping_torus.generators)
    if n < 3:
        raise ValueError(f"need the d+1 >= 3 generators of a mapping torus "
                         f"group, got {n}")
    return PresentedGroup(mapping_torus.generators, mapping_torus.relators + (
        FreeWord(n, (3,)),            # meridian: x1
        FreeWord(n, (2,) * (n - 1))))  # second longitude: l2^d


def presented_group(generators: Iterable[str],
                    relators: Iterable[FreeWord]) -> PresentedGroup:
    """The group with these generators and relators, each relator
    cyclically reduced and the empty ones dropped."""
    cleaned = (FreeWord(r.rank, _cyclic_reduce(r.letters)) for r in relators)
    return PresentedGroup(tuple(generators),
                          tuple(w for w in cleaned if w.letters))


def _least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation, in linear time.

    Two candidate starts i < j are compared letter by letter; at the
    first difference after k equal letters, no start in the losing
    candidate's window of k + 1 letters can be least (Booth, "Lexico-
    graphically least circular substrings", Inf. Proc. Lett. 10, 1980,
    gives the failure-function form of the same bound)."""
    n = len(letters)
    doubled = letters + letters
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return doubled[i:i + n]


def _cyclic_key(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form of a cyclic word up to rotation and inversion: the
    least rotation of the word or of its inverse."""
    return min(_least_rotation(letters), _least_rotation(_inverse(letters)))


def _substitute_generator(letters: tuple[int, ...], g: int,
                          value: tuple[int, ...]) -> tuple[int, ...]:
    inverse = _inverse(value)
    out: list[int] = []
    for x in letters:
        if x != g and x != -g:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
            continue
        for y in value if x > 0 else inverse:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def tietze_simplify(g: PresentedGroup) -> PresentedGroup:
    """Deterministic presentation shrinking by generator elimination.

    While some generator occurs exactly once in some relator, the move
    takes the shortest such relator (then the lowest generator index,
    then the first relator), solves it for that generator and
    substitutes the solution into the other relators.  Free and cyclic
    reduction and duplicate removal (up to rotation and inversion)
    follow every move.  Every move removes a generator and preserves
    the group, in particular its abelianization.

    Every relator is rescanned after every move: the candidate search
    counts the letters of all relators, the move substitutes into all
    of them, and normalization keys them all again, keeping the first
    of each set of duplicates."""
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


def standard_form_order(g: PresentedGroup) -> int | None:
    """If g is syntactically < u, v | [u,v], v^k > (up to generator order,
    rotation and inversion of relators), return k; else None."""
    if len(g.generators) != 2 or len(g.relators) != 2:
        return None
    comm = _cyclic_key((1, 2, -1, -2))
    keys = [_cyclic_key(r.letters) for r in g.relators]
    for i in (0, 1):
        if keys[i] != comm:
            continue
        other = g.relators[1 - i].letters
        gens = {abs(x) for x in other}
        signs = {x > 0 for x in other}
        if len(gens) == 1 and len(signs) == 1:
            return len(other)
    return None


def abelianization(g: PresentedGroup) -> dict:
    """Z^generators modulo the relator exponent vectors, in the form of
    the report's ``pi1.abelianization``, read off the invariant factors
    of the package's class space: row i holds, per relator, the
    exponent sum of generator i in it."""
    rows = [[0] * len(g.relators) for _ in g.generators]
    for c, r in enumerate(g.relators):
        for x, count in Counter(r.letters).items():
            rows[abs(x) - 1][c] += count if x > 0 else -count
    factors = snf.ClassSpace.from_rows(rows).invariant_factors()
    free_rank, torsion = factors.count(0), [f for f in factors if f]
    parts = ["Z"] * free_rank + [f"Z/{f}" for f in torsion]
    return {"free_rank": free_rank, "torsion": torsion,
            "pretty": " x ".join(parts) or "0"}


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


def assert_value_record(x, twin, fields: tuple[str, ...], others) -> None:
    """``x`` is a frozen value record: equal to, and hashed like, its
    ``twin`` built apart from the same values; unequal to the tuple of
    its ``fields`` and to each of ``others``; no field or other attribute
    can be assigned or deleted; copy, deepcopy and pickle give an equal
    record of its class."""
    assert x is not twin and x == twin and not x != twin
    assert hash(x) == hash(twin)
    values = tuple(getattr(x, f) for f in fields)
    for other in (values, *others):
        assert x != other and not x == other, other
    for name in (*fields, "extra"):
        for change in (lambda: setattr(x, name, None),
                       lambda: delattr(x, name)):
            try:
                change()
            except AttributeError:
                continue
            raise AssertionError(f"{name} of {type(x).__name__} changed")
    assert tuple(getattr(x, f) for f in fields) == values
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)


def _one_pass_piece(n: int, p, d: int) -> dict:
    """Piece n (from 1) of a configuration, checked and copied, with the
    volume token "d" resolved to d."""
    if not isinstance(p, dict):
        raise _misshapen(p, f"piece {n}", dict)
    _known_keys(p, PIECE_KEYS, "piece")
    try:
        name, chi, sigma = p["name"], p["chi"], p["sigma"]
    except KeyError as exc:
        raise _no_key(f"piece {n}", exc) from None
    name = _text(name, "piece name")
    kind = _text(p.get("kind", "custom"), "piece kind")
    chi, sigma = _config_integer(chi, "chi"), _config_integer(sigma, "sigma")
    tori = p.get("tori", {})
    if not isinstance(tori, dict):
        raise ConfigurationError(
            f"tori must be an object, got {_shown_repr(tori)}")
    volumes = {}
    for t, v in tori.items():
        _text(t, "torus name")
        if v == "d":
            v = d
        elif not _is_integer(v, 1):
            raise _not_integer(v, f"volume of torus {_shown_repr(t)}", 1)
        volumes[t] = v
    expected = KNOWN_KINDS.get(kind)
    if expected is not None and (chi, sigma) != expected:
        raise ConfigurationError(
            f"piece {_shown_repr(name)} of kind {_shown_repr(kind)} must have "
            f"(chi, sigma) = {expected}, "
            f"got ({_shown_repr(chi)}, {_shown_repr(sigma)})")
    return dict(name=name, kind=kind, chi=chi, sigma=sigma, tori=volumes)


def configuration_in_one_pass(data: dict, d: int) -> dict:
    """``fourmanifold.configuration_from_dict`` as one pass that resolves
    the volume token "d" to d as it reads each piece, and makes every
    check in order with d known."""
    if not isinstance(data, dict):
        raise _misshapen(data, "configuration", dict)
    _known_keys(data, CONFIG_KEYS, "configuration")
    try:
        pieces, pairings = data["pieces"], data["pairings"]
    except KeyError as exc:
        raise _no_key("configuration", exc) from None
    if not isinstance(pieces, (list, tuple)):
        raise _misshapen(pieces, "pieces", list)
    pieces = [_one_pass_piece(n, p, d) for n, p in enumerate(pieces, start=1)]
    if not isinstance(pairings, (list, tuple)):
        raise _misshapen(pairings, "pairings", list)
    pairings = [_pairing(x) for x in pairings]
    volumes: dict[str, int] = {}
    for t, v in (item for p in pieces for item in p["tori"].items()):
        if t in volumes:
            raise ConfigurationError(
                f"torus {_shown_repr(t)} appears on two pieces")
        volumes[t] = v
    unpaired = set(volumes)
    for a, b in pairings:
        for t in (a, b):
            if t not in volumes:
                raise ConfigurationError(
                    f"pairing references unknown torus {_shown_repr(t)}")
            if t not in unpaired:
                raise ConfigurationError(
                    f"torus {_shown_repr(t)} used in two pairings")
            unpaired.remove(t)
        if volumes[a] != volumes[b]:
            raise ConfigurationError(
                f"volume mismatch in pairing "
                f"({_shown_repr(a)}, {_shown_repr(b)}): "
                f"{_shown_repr(volumes[a])} != {_shown_repr(volumes[b])}")
    if unpaired:
        raise ConfigurationError(
            f"unpaired tori: {_shown(', '.join(sorted(unpaired)))}")
    return {"pieces": pieces, "pairings": pairings}

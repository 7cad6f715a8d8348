"""Framed spherical braid words.

A braid word on d marked points of the sphere is written in the grammar

    input := "d=" INT ";" token*
    token := ("s" | "t") INT ("^-1")?

where INT is a run of ASCII digits 0-9, the header and the tokens are
separated by ASCII whitespace only (space, tab, newline, carriage
return, form feed, vertical tab), ``s<i>`` is the Artin
half-twist exchanging the marked points i and i+1 (valid for
1 <= i <= d-1) and ``t<k>`` is the framing twist of the disc around
marked point k (valid for 1 <= k <= d).  Words are kept in
free reduction normal form: a letter never sits next to its own inverse.
No other braid relations are applied, so two BraidWord values compare
equal exactly when their reduced words coincide, not when they present
the same group element.

``BraidLetter`` and ``BraidWord`` check their fields when a library
caller builds them: kind, sign and index range, and free reduction.
``parse_braid`` checks the text instead, where it enters the program:
the header bounds d, and each token's kind, sign and index are read off
the grammar and range-checked against d.  Its letters are therefore
valid and its word is reduced once, so it builds both with ``_trusted``,
which skips the checks.  ``freegroup`` and ``nielsen`` build the words
of a report the same way, each site saying why its values are valid by
construction.

Composition convention, used consistently by everything this word
induces (permutations, free group endomorphisms): a word composes like
functions written left to right, so in ``a.compose(b)`` (the word "a b")
the right factor b acts first and a acts on its output.  Under this
convention the word ``s1 s2 ... s<d-1>`` induces the standard cycle
(1 2 ... d), which is what the strict transitivity test checks for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

ARTIN = "s"
TWIST = "t"
MAX_STRANDS = 1000  # largest d parse_braid accepts: bounds every d-sized object


def _shown(text: str) -> str:
    """``text`` as an error message echoes it: as is up to 12 characters,
    else its first 8 and '...', so that no input makes a long message."""
    return text if len(text) <= 12 else text[:8] + "..."


class BraidError(ValueError):
    """Base class for braid input problems."""


class BraidSyntaxError(BraidError):
    """Malformed braid text.  ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BraidIndexError(BraidError):
    """A letter index outside the valid range for the given d."""

    def __init__(self, message: str, token: str, position: int):
        super().__init__(
            f"{message}: token {_shown(token)!r} (at position {position})")
        self.token = token
        self.position = position


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with these fields,
    made without running its ``__post_init__`` checks.  Only for values
    the package built valid by construction; it equals, and hashes as,
    the instance the checked constructor makes."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class BraidLetter:
    kind: str   # ARTIN ("s") or TWIST ("t")
    index: int  # 1-based; Artin: 1..d-1, twist: 1..d
    sign: int   # +1 or -1

    def __post_init__(self) -> None:
        if self.kind not in (ARTIN, TWIST):
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {self.sign}")
        if self.index < 1:
            raise ValueError(f"letter index must be positive, got {self.index}")

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.kind, self.index, -self.sign)

    def token(self) -> str:
        return f"{self.kind}{self.index}" + ("^-1" if self.sign < 0 else "")


def _free_reduce(letters: Iterable[BraidLetter]) -> tuple[BraidLetter, ...]:
    out: list[BraidLetter] = []
    for x in letters:
        if out and out[-1].kind == x.kind and out[-1].index == x.index \
                and out[-1].sign == -x.sign:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced word in Artin generators and framing twists."""

    d: int
    letters: tuple[BraidLetter, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need at least two marked points, got d={self.d}")
        for x in self.letters:
            limit = self.d - 1 if x.kind == ARTIN else self.d
            if x.index > limit:
                raise ValueError(f"letter {x.token()} out of range for d={self.d}")
        if self.letters != _free_reduce(self.letters):
            raise ValueError("letters are not freely reduced; use from_letters")

    @classmethod
    def from_letters(cls, d: int, letters: Iterable[BraidLetter]) -> "BraidWord":
        return cls(d, _free_reduce(letters))

    @classmethod
    def identity(cls, d: int) -> "BraidWord":
        return cls(d, ())

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[BraidLetter]:
        return iter(self.letters)

    def compose(self, other: "BraidWord") -> "BraidWord":
        """Concatenate; in the result the right factor acts first."""
        if self.d != other.d:
            raise ValueError(f"strand count mismatch: d={self.d} vs d={other.d}")
        return BraidWord.from_letters(self.d, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.d, tuple(x.inverse() for x in reversed(self.letters)))

    def to_text(self) -> str:
        head = f"d={self.d};"
        if not self.letters:
            return head
        return head + " " + " ".join(x.token() for x in self.letters)

    def __str__(self) -> str:
        return self.to_text()


# [0-9], not \d, which would also match (and int() read) any Unicode
# digit; re.ASCII keeps \s and \S to ASCII whitespace, so that a Unicode
# space (U+3000, U+00A0, NEL) is a syntax error, not a separator
_HEADER = re.compile(r"\s*d=([0-9]+);", re.ASCII)
_TOKENS = re.compile(r"\S+", re.ASCII)
_TOKEN = re.compile(r"([st])([0-9]+)(\^-1)?\Z")


def _integer(digits: str, position: int) -> int:
    """int(digits), or a syntax error for a number longer than the
    interpreter converts (Python's int-digit limit)."""
    try:
        return int(digits)
    except ValueError:
        raise BraidSyntaxError(
            f"integer of {len(digits)} digits is too long", position) from None


def parse_braid(text: str) -> BraidWord:
    """Parse the ``d=<INT>; token*`` grammar, with offsets in errors.

    The text is checked here, so the letters and the reduced word are
    built with ``_trusted``."""
    m = _HEADER.match(text)
    if m is None:
        raise BraidSyntaxError("expected header of the form 'd=<int>;'", 0)
    digits = m.group(1)
    d = _integer(digits, m.start(1))
    if not 2 <= d <= MAX_STRANDS:
        raise BraidIndexError(f"d must lie in 2..{MAX_STRANDS}", "d=" + digits,
                              m.start(1))
    letters = []
    for tok in _TOKENS.finditer(text, m.end()):
        pos = tok.start()
        t = _TOKEN.match(tok.group())
        if t is None:
            raise BraidSyntaxError(f"bad token {_shown(tok.group())!r}", pos)
        kind, index, inv = t.group(1), _integer(t.group(2), pos), t.group(3)
        limit = d - 1 if kind == ARTIN else d
        if not 1 <= index <= limit:
            what = "Artin generator" if kind == ARTIN else "framing twist"
            raise BraidIndexError(
                f"{what} index must lie in 1..{limit} for d={d}", tok.group(), pos)
        letters.append(_trusted(BraidLetter, kind=kind, index=index,
                                sign=-1 if inv else 1))
    return _trusted(BraidWord, d=d, letters=_free_reduce(letters))


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., d} stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.images)
        if sorted(self.images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other (other acts first)."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self(other(k)) for k in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for k, v in enumerate(self.images, start=1):
            images[v - 1] = k
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    def fixed_point_count(self) -> int:
        return sum(1 for k, v in enumerate(self.images, start=1) if v == k)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each rotated to start at its minimum, sorted."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self(start)
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self(k)
            out.append(tuple(cyc))
        return tuple(sorted(out))

    def is_standard_cycle(self) -> bool:
        """True iff this is the cycle (1 2 ... d) on the nose."""
        d = self.degree
        return self.images == tuple(range(2, d + 1)) + (1,)


def induced_permutation(b: BraidWord) -> Permutation:
    """Permutation of the marked points induced by the braid.

    Each Artin letter contributes the transposition (i, i+1) regardless of
    sign; framing twists contribute nothing.  Letters combine under the
    composition convention of this module, which amounts to swapping the
    entries i, i+1 of the image tuple as the word is scanned left to right.
    """
    images = list(range(1, b.d + 1))
    for x in b.letters:
        if x.kind == ARTIN:
            i = x.index - 1
            images[i], images[i + 1] = images[i + 1], images[i]
    return Permutation(tuple(images))


def is_transitive(b: BraidWord) -> bool:
    """True iff the induced permutation equals (1 2 ... d) exactly."""
    return induced_permutation(b).is_standard_cycle()

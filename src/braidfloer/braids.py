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

``BraidLetter`` and ``BraidWord`` are plain records that check
nothing.  Letters enter the package checked in one of two places:
``parse_braid`` reads the text off the grammar and range-checks d and
each index, and ``BraidWord.from_letters`` checks that each letter is a
``BraidLetter`` with int index and sign, then d and the kind, sign and
index of each letter after free reduction.  Every other word is
built from valid words with the record constructor.

Composition convention, used consistently by everything this word
induces (permutations, free group endomorphisms): a word composes like
functions written left to right, so in the word "a b" the right factor
b acts first and a acts on its output.  Under this
convention the word ``s1 s2 ... s<d-1>`` induces the standard cycle
(1 2 ... d), which is what the strict transitivity test checks for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NamedTuple

ARTIN = "s"
TWIST = "t"
MAX_STRANDS = 1000  # largest d of a checked word: bounds every d-sized object


def _shown(text: str) -> str:
    """``text`` as an error message echoes it: as is up to 12 characters,
    else its first 8 and '...', so that no input makes a long message."""
    return text if len(text) <= 12 else text[:8] + "..."


def _is_int(x) -> bool:
    """x is an int and not a bool, which isinstance counts as an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _shown_repr(x, depth: int = 0) -> str:
    """``x`` as a message echoes it: a string cut by ``_shown``, then
    quoted; any other value ``_shown(repr(x))``, reading only what that
    shows: an int's leading digits (the interpreter converts at most
    4300) and the first five items of a tuple, list or dict, each echoed
    by this rule; none at ``depth`` 8, whose 8 brackets fill the cut."""
    if isinstance(x, str):
        return repr(_shown(x))
    if type(x) in (tuple, list, dict):
        items = islice(x.items() if type(x) is dict else zip(x),
                       5 if depth < 8 else 0)
        text = ", ".join(": ".join(_shown_repr(y, depth + 1) for y in item)
                         for item in items)
        if type(x) is tuple and len(x) == 1:
            text += ","
        left, right = repr(type(x)())
        return _shown(left + text + right)
    if not _is_int(x):
        return _shown(repr(x))
    m = abs(x)
    # m has more than L = (bit length - 1) * 0.301029 digits, so for
    # k = L - 12 > 0 the quotient keeps 13 or more and _shown cuts it
    k = max(0, (m.bit_length() - 1) * 301029 // 10**6 - 12)
    return _shown(("-" if x < 0 else "") + str(m // 10**k))


def _check_int(x, what: str) -> None:
    """ValueError unless x is an int (a bool is not)."""
    if not _is_int(x):
        raise ValueError(f"{what} must be an int, got {_shown_repr(x)}")


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
            f"{message}: token {_shown_repr(token)} (at position {position})")
        self.token = token
        self.position = position


class BraidLetter(NamedTuple):
    kind: str   # ARTIN ("s") or TWIST ("t")
    index: int  # 1-based; Artin: 1..d-1, twist: 1..d
    sign: int   # +1 or -1

    def token(self) -> str:
        return f"{self.kind}{self.index}" + ("^-1" if self.sign < 0 else "")


def _free_reduce(letters: Iterable[BraidLetter]) -> tuple[BraidLetter, ...]:
    out: list[BraidLetter] = []
    for x in letters:
        if out and out[-1] == (x.kind, x.index, -x.sign):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced word in Artin generators and framing twists."""

    d: int
    letters: tuple[BraidLetter, ...]

    @classmethod
    def from_letters(cls, d: int, letters: Iterable[BraidLetter]) -> "BraidWord":
        """The reduced word; ValueError for a d that is not an int in
        2..MAX_STRANDS or a bad letter.  Each letter must be a
        BraidLetter with int index and sign (a bool is not), checked
        first, in the letters' order; d and the kind, sign and index of
        each letter are checked after free reduction."""
        letters = tuple(letters)
        for x in letters:
            if not isinstance(x, BraidLetter):
                raise ValueError(f"not a braid letter: {_shown_repr(x)}")
            _check_int(x.index, "letter index")
            _check_int(x.sign, "letter sign")
        reduced = _free_reduce(letters)
        _check_int(d, "d")
        if d < 2:
            raise ValueError(
                f"need at least two marked points, got d={_shown_repr(d)}")
        if d > MAX_STRANDS:
            raise ValueError(f"need at most {MAX_STRANDS} marked points, "
                             f"got d={_shown_repr(d)}")
        for x in reduced:
            if x.kind not in (ARTIN, TWIST):
                raise ValueError(f"unknown letter kind {_shown_repr(x.kind)}")
            if x.sign not in (1, -1):
                raise ValueError(
                    f"letter sign must be +-1, got {_shown_repr(x.sign)}")
            if x.index < 1:
                raise ValueError(
                    f"letter index must be positive, got {_shown_repr(x.index)}")
            if x.index > (d - 1 if x.kind == ARTIN else d):
                inv = "^-1" if x.sign < 0 else ""
                raise ValueError(f"letter {x.kind}{_shown_repr(x.index)}{inv} "
                                 f"out of range for d={d}")
        return cls(d, reduced)

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        head = f"d={self.d};"
        if not self.letters:
            return head
        return head + " " + " ".join(x.token() for x in self.letters)


# [0-9], not \d, which would also match (and int() read) any Unicode
# digit; re.ASCII keeps \s and \S to ASCII whitespace, so that a Unicode
# space (U+3000, U+00A0, NEL) is a syntax error, not a separator.  One
# scan finds each run of non-space characters: a token when the run is
# all of one, else a run with no groups, which is a bad token
_HEADER = re.compile(r"\s*d=([0-9]+);", re.ASCII)
_TOKENS = re.compile(r"([st])([0-9]+)(\^-1)?(?!\S)|\S+", re.ASCII)


def _integer(digits: str, position: int) -> int:
    """int(digits), or a syntax error for a number longer than the
    interpreter converts (Python's int-digit limit)."""
    try:
        return int(digits)
    except ValueError:
        raise BraidSyntaxError(
            f"integer of {len(digits)} digits is too long", position) from None


def parse_braid(text: str) -> BraidWord:
    """Parse the ``d=<INT>; token*`` grammar, with offsets in errors."""
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
        kind, digits, inv = tok.groups()
        if kind is None:
            raise BraidSyntaxError(f"bad token {_shown_repr(tok.group())}", pos)
        index = _integer(digits, pos)
        limit = d - 1 if kind == ARTIN else d
        if not 1 <= index <= limit:
            what = "Artin generator" if kind == ARTIN else "framing twist"
            raise BraidIndexError(
                f"{what} index must lie in 1..{limit} for d={d}", tok.group(), pos)
        letters.append(BraidLetter(kind, index, -1 if inv else 1))
    return BraidWord(d, _free_reduce(letters))


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., d} stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.images)
        if (not all(map(_is_int, self.images))
                or sorted(self.images) != list(range(1, d + 1))):
            raise ValueError(f"not a permutation of 1..{d}: "
                             f"{_shown_repr(self.images)}")

    def fixed_point_count(self) -> int:
        return sum(1 for k, v in enumerate(self.images, start=1) if v == k)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each rotated to start at its minimum, sorted."""
        seen: set[int] = set()
        out = []
        for start in range(1, len(self.images) + 1):
            cyc = []
            k = start
            while k not in seen:
                cyc.append(k)
                seen.add(k)
                k = self.images[k - 1]
            if cyc:
                out.append(tuple(cyc))
        return tuple(sorted(out))

    def is_standard_cycle(self) -> bool:
        """True iff this is the cycle (1 2 ... d) on the nose."""
        return self.images == (*range(2, len(self.images) + 1), 1)


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

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

A letter is a nonzero int, as in a free-group word: ``s<i>^+-1`` is
``+-i`` and ``t<k>^+-1`` is ``+-(TWIST + k)``, the same for every d;
``_free_reduce`` reduces words of both kinds, and ``_reduce`` checks
each letter before it.  ``BraidWord`` and
``Permutation``, like the records of ``freegroup``, are frozen classes
on ``_Record``, each with its own ``__init__``, and not dataclasses:
``dataclasses`` imports ``inspect``, which would cost every CLI process
more at startup than it spends on one report.  ``BraidWord`` checks
nothing.  Letters enter the package checked in one of two places:
``parse_braid`` reads the text off the grammar, range-checks d and
checks each distinct token once by ``_letter``, whose letters it
reduces unchecked, and ``BraidWord.from_letters`` checks that each
letter is a nonzero int, then d (``_check_strands``), then that each
letter of the reduced word names a generator for d strands.  Every
other word is built from valid words with the record constructor.

Composition convention, used consistently by everything this word
induces (permutations, free group endomorphisms): a word composes like
functions written left to right, so in the word "a b" the right factor
b acts first and a acts on its output.  Under this
convention the word ``s1 s2 ... s<d-1>`` induces the standard cycle
(1 2 ... d), which is what the strict transitivity test checks for.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from itertools import islice
from operator import attrgetter

MAX_STRANDS = 1000  # largest d of a checked word: bounds every d-sized object
TWIST = MAX_STRANDS  # t<k> is the letter TWIST + k, past every s<i>


def _shown(text: str) -> str:
    """``text`` as an error message echoes it: as is up to 12 characters,
    else its first 8 and '...', so that no input makes a long message."""
    return text if len(text) <= 12 else text[:8] + "..."


def _is_int(x) -> bool:
    """x is an int and not a bool, which isinstance counts as an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _shown_repr(x, depth: int = 0) -> str:
    """``x`` as a message echoes it: a string cut by ``_shown``, then
    quoted; None, a bool, an int, a float, a tuple, a list or a dict
    ``_shown(repr(x))``, reading only what that shows: an int's leading
    digits (the interpreter converts at most 4300) and the first five
    items of a tuple, list or dict, each echoed by this rule; none at
    ``depth`` 8, whose 8 brackets fill the cut.  A value of any other
    type (a set, a range, a record) is shown by its type's name, as
    ``<set>``: its repr could be long, fail, or follow the hash seed."""
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
    if x is None or type(x) in (bool, float):
        return _shown(repr(x))
    if not _is_int(x):
        return _shown(f"<{type(x).__name__}>")
    m = abs(x)
    # m has more than L = (bit length - 1) * 0.301029 digits, so for
    # k = L - 12 > 0 the quotient keeps 13 or more and _shown cuts it
    k = max(0, (m.bit_length() - 1) * 301029 // 10**6 - 12)
    return _shown(("-" if x < 0 else "") + str(m // 10**k))


def _check_int(x, what: str) -> None:
    """ValueError unless x is an int (a bool is not)."""
    if not _is_int(x):
        raise ValueError(f"{what} must be an int, got {_shown_repr(x)}")


def _check_strands(d) -> None:
    """ValueError unless d is an int (a bool is not) in 2..MAX_STRANDS."""
    _check_int(d, "d")
    if d < 2:
        raise ValueError(
            f"need at least two marked points, got d={_shown_repr(d)}")
    if d > MAX_STRANDS:
        raise ValueError(f"need at most {MAX_STRANDS} marked points, "
                         f"got d={_shown_repr(d)}")


_set = object.__setattr__  # how a record's __init__ sets its fields


class _Record:
    """A frozen record of the fields its class lists in ``__slots__``,
    which its ``__init__`` sets with ``_set``.  Records are equal, and
    hash alike, when they are of one class and their fields are equal;
    a record equals no tuple.  Assigning or deleting an attribute raises
    AttributeError; copy and pickle rebuild a record through its
    constructor, so a checked record is checked again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign {_shown_repr(name)} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(
            f"cannot delete {_shown_repr(name)} of a frozen record")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        # the constructor form; the fields of the package's records are
        # ints and tuples, whose str is their repr
        return (f"{type(self).__name__}"
                f"({', '.join(map(str, self.__reduce__()[1]))})")


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


def _free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """The freely reduced tuple of the letters, which are nonzero ints."""
    out = [0]  # 0 is the inverse of no letter, so nothing cancels it
    for x in letters:
        if out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out[1:])


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """The freely reduced tuple of the letters; ValueError for a letter
    that is not a nonzero int (a bool is not), checked in order."""
    letters = tuple(letters)
    for x in letters:
        if not _is_int(x) or x == 0:
            raise ValueError(f"{_shown_repr(x)} is not a letter")
    return _free_reduce(letters)


def _token(x: int) -> str:
    """The text of letter x: ``s<i>`` or ``t<k>``, then ``^-1`` if x < 0."""
    m = abs(x)
    text = f"s{m}" if m < TWIST else f"t{m - TWIST}"
    return text + "^-1" if x < 0 else text


class BraidWord(_Record):
    """A freely reduced word in Artin generators and framing twists."""

    __slots__ = ("d", "letters")
    d: int
    letters: tuple[int, ...]

    def __init__(self, d: int, letters: tuple[int, ...]) -> None:
        _set(self, "d", d)
        _set(self, "letters", letters)

    @classmethod
    def from_letters(cls, d: int, letters: Iterable[int]) -> "BraidWord":
        """The reduced word; ValueError for a letter that is not a
        nonzero int (a bool is not), checked first, in the letters'
        order, then for a d that is not an int in 2..MAX_STRANDS, then
        for a letter of the reduced word that names no generator for d
        strands: neither 0 < |x| < d nor TWIST < |x| <= TWIST + d."""
        reduced = _reduce(letters)
        _check_strands(d)
        for x in reduced:
            if not (0 < abs(x) < d or TWIST < abs(x) <= TWIST + d):
                raise ValueError(
                    f"letter {_shown_repr(x)} out of range for d={d}")
        return cls(d, reduced)

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        head = f"d={self.d};"
        if not self.letters:
            return head
        table = {x: _token(x) for x in set(self.letters)}
        return head + " " + " ".join(map(table.__getitem__, self.letters))


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


def _letter(token: tuple, d: int, position: int, text: str) -> int:
    """The letter of a token (kind, digits, "^-1"), as ``_TOKENS``
    splits the run ``text`` at ``position``, for d strands; the run's
    BraidSyntaxError or BraidIndexError if it names no letter."""
    kind, digits, inv = token
    if not kind:
        raise BraidSyntaxError(f"bad token {_shown_repr(text)}", position)
    index = _integer(digits, position)
    if kind == "s":
        what, limit, x = "Artin generator", d - 1, index
    else:
        what, limit, x = "framing twist", d, TWIST + index
    if not 1 <= index <= limit:
        raise BraidIndexError(
            f"{what} index must lie in 1..{limit} for d={d}", text, position)
    return -x if inv else x


def parse_braid(text: str) -> BraidWord:
    """Parse the ``d=<INT>; token*`` grammar, with offsets in errors.
    Each distinct token is classified once; a text with a bad one is
    scanned again, token by token, for the first."""
    m = _HEADER.match(text)
    if m is None:
        raise BraidSyntaxError("expected header of the form 'd=<int>;'", 0)
    digits = m.group(1)
    d = _integer(digits, m.start(1))
    if not 2 <= d <= MAX_STRANDS:
        raise BraidIndexError(f"d must lie in 2..{MAX_STRANDS}", "d=" + digits,
                              m.start(1))
    tokens = _TOKENS.findall(text, m.end())
    try:
        letter = {t: _letter(t, d, 0, "") for t in set(tokens)}
    except BraidError:
        letter = None
    if letter is None:
        # a set's order follows the hash seed, so the first bad token
        # in text order raises, at its offset
        for tok in _TOKENS.finditer(text, m.end()):
            _letter(tok.groups(), d, tok.start(), tok.group())
    return BraidWord(d, _free_reduce(map(letter.__getitem__, tokens)))


class Permutation(_Record):
    """A bijection of {1, ..., d} stored as its tuple of images."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]) -> None:
        if not isinstance(images, tuple):
            raise ValueError(
                f"images must be a tuple, got {_shown_repr(images)}")
        d = len(images)
        if (not all(map(_is_int, images))
                or sorted(images) != list(range(1, d + 1))):
            raise ValueError(f"not a permutation of 1..{d}: "
                             f"{_shown_repr(images)}")
        _set(self, "images", images)

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
        i = abs(x)
        if i < TWIST:
            images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))

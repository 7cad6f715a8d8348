"""Free group words and braid-induced endomorphisms.

Words in the free group of rank n on x1..xn are stored as tuples of
nonzero signed indices (+j for xj, -j for xj^-1) in free reduction
normal form, which the one reducer, ``braids._free_reduce``, makes for
them and for braid words.  The fundamental group of the d-punctured
sphere is the quotient of the rank d free group by x1 x2 ... xd = 1;
eliminating xd via xd = (x1 ... x<d-1>)^-1 identifies it with the free
group of rank d-1, and that is where braid-induced endomorphisms live.

The Artin half-twist s_i acts on the punctured-disc group by

    x_i |-> x_i x_{i+1} x_i^-1,   x_{i+1} |-> x_i,   others fixed,

framing twists act trivially (they are invisible to the fundamental
group; every invariant computed downstream is framing-blind, and reports
say so), so ``_act`` skips the letters past ``braids.TWIST``.  Words of
letters act under the package-wide composition convention: the
rightmost letter is applied first.

The sphere action is computed directly in the rank d-1 group: the same
rules act on the images of x1 .. xd, which start as x1 .. x<d-1> and
(x1 ... x<d-1>)^-1.  The images stay reduced, so each rule cancels
only at the junctions of the reduced words it joins (``_concat``).  The
disc images of pseudo-Anosov braids grow exponentially in the braid
length even where the sphere images stay short, so the rank d disc
action (``artin_disc_endo``) is a library function and a test oracle.
Both actions run the rules in one loop, ``_act``, from their own
starting images.

``FreeWord`` is a plain record (a ``braids._Record``, as is
``FreeGroupEndo``); ``FreeWord.from_letters`` reduces and
checks letters and an int rank, and ``FreeGroupEndo`` checks that its
rank is an int >= 0 and that its images are a tuple of one
``FreeWord`` of that rank per generator.  Products and inverses are
``_concat`` and ``_inverse`` on letter tuples.  The Artin actions
build their images as records: their starting images are reduced words
in range, and ``_act`` only inverts reduced words and joins them with
``_concat``, which keep both properties.
``nielsen.reidemeister_trace_raw`` builds its terms the same way, since
a prefix of a reduced word is reduced.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import neg

from .braids import (TWIST, BraidWord, _check_int, _Record, _reduce, _set,
                     _shown_repr)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(letters)))


def _concat(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of reduced words u and v: only letters at the
    junction can cancel, so the cost is the cancelled length plus one
    copy of each word."""
    k, m = 0, min(len(u), len(v))
    while k < m and u[-1 - k] == -v[k]:
        k += 1
    return u[:len(u) - k] + v[k:]


class FreeWord(_Record):
    """A freely reduced word; letters are signed 1-based generator indices."""

    __slots__ = ("rank", "letters")
    rank: int
    letters: tuple[int, ...]

    def __init__(self, rank: int, letters: tuple[int, ...]) -> None:
        _set(self, "rank", rank)
        _set(self, "letters", letters)

    @classmethod
    def from_letters(cls, rank: int, letters: Iterable[int]) -> "FreeWord":
        """The reduced word; ValueError for a rank that is not an int >= 0,
        or a letter that is not a nonzero int (a bool is not) or is out
        of range."""
        reduced = _reduce(letters)
        _check_int(rank, "rank")
        if rank < 0:
            raise ValueError("negative rank")
        for x in reduced:
            if abs(x) > rank:
                raise ValueError(
                    f"letter {_shown_repr(x)} out of range for rank {rank}")
        return cls(rank, reduced)

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_vector(self) -> tuple[int, ...]:
        out = [0] * self.rank
        for x in self.letters:
            out[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(out)

    def to_text(self) -> str:
        """Print like ``x1 x2^-1``; the identity prints as ``1``."""
        if not self.letters:
            return "1"
        table = {x: f"x{abs(x)}" + ("^-1" if x < 0 else "")
                 for x in set(self.letters)}
        return " ".join(map(table.__getitem__, self.letters))


class FreeGroupEndo(_Record):
    """An endomorphism of a free group, given by generator images."""

    __slots__ = ("rank", "images")
    rank: int
    images: tuple[FreeWord, ...]

    def __init__(self, rank: int, images: tuple[FreeWord, ...]) -> None:
        _check_int(rank, "rank")
        if rank < 0:
            raise ValueError("negative rank")
        if (not isinstance(images, tuple)
                or not all(isinstance(w, FreeWord) for w in images)):
            raise ValueError("images must be a tuple of FreeWord records")
        if len(images) != rank:
            raise ValueError("need one image per generator")
        for w in images:
            if w.rank != rank:
                raise ValueError("image rank mismatch")
        _set(self, "rank", rank)
        _set(self, "images", images)


def _act(imgs: list[tuple[int, ...]], b: BraidWord) -> list[tuple[int, ...]]:
    """imgs, reduced, after the Artin rules of b's letters, in place.
    Scanning left to right and precomposing keeps the package convention
    (rightmost letter acts first): after g1 .. gk the images describe
    phi_g1 o ... o phi_gk."""
    for x in b.letters:
        i = abs(x)
        if i >= TWIST:
            continue
        u, v = imgs[i - 1], imgs[i]
        if x > 0:
            imgs[i - 1], imgs[i] = _concat(_concat(u, v), _inverse(u)), u
        else:
            imgs[i - 1], imgs[i] = v, _concat(_concat(_inverse(v), u), v)
    return imgs


def artin_disc_endo(b: BraidWord) -> FreeGroupEndo:
    """Action on the rank d punctured-disc group, before the sphere
    relation: ``_act`` on the images x1 .. xd."""
    imgs = _act([(j,) for j in range(1, b.d + 1)], b)
    return FreeGroupEndo(b.d, tuple(FreeWord(b.d, w) for w in imgs))


def artin_endo(b: BraidWord) -> FreeGroupEndo:
    """Braid action on the punctured-sphere group, rank d-1: ``_act`` on
    the images of x1 .. xd written in that group, where
    xd = (x1 ... x<d-1>)^-1 (the Artin action fixes the product
    x1 ... xd, so the relation is preserved exactly).  Reduced words are
    unique, so the result equals the disc action followed by that
    substitution, without ever building the disc images."""
    d = b.d
    imgs = _act([(j,) for j in range(1, d)] + [tuple(range(1 - d, 0))], b)
    return FreeGroupEndo(d - 1, tuple(FreeWord(d - 1, w) for w in imgs[:-1]))

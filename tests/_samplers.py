"""Seeded random generators shared across the test suite."""

from __future__ import annotations

import random

from braidfloer.braids import (ARTIN, TWIST, BraidLetter, BraidWord,
                               induced_permutation)
from braidfloer.freegroup import FreeWord

from _oracles import W, IntMatrix


def random_letter(rng: random.Random, d: int,
                  allow_twists: bool = True) -> BraidLetter:
    if allow_twists and rng.random() < 0.25:
        return BraidLetter(TWIST, rng.randint(1, d), rng.choice((1, -1)))
    return BraidLetter(ARTIN, rng.randint(1, d - 1), rng.choice((1, -1)))


def random_braid_word(rng: random.Random, d: int | None = None,
                      max_len: int = 10,
                      allow_twists: bool = True) -> BraidWord:
    if d is None:
        d = rng.randint(2, 6)
    n = rng.randint(0, max_len)
    return BraidWord.from_letters(
        d, (random_letter(rng, d, allow_twists) for _ in range(n)))


def _corrector(images: list[int], rng: random.Random) -> list[BraidLetter]:
    """Artin letters whose appended swaps turn ``images`` into the
    standard cycle image tuple (2, 3, ..., d, 1)."""
    d = len(images)
    target = list(range(2, d + 1)) + [1]
    images = list(images)
    out = []
    for pos in range(d):
        j = images.index(target[pos], pos)
        while j > pos:
            images[j - 1], images[j] = images[j], images[j - 1]
            out.append(BraidLetter(ARTIN, j, rng.choice((1, -1))))
            j -= 1
    return out


def random_transitive_braid(rng: random.Random, d: int, max_len: int = 12,
                            allow_twists: bool = True) -> BraidWord:
    """A random word of bounded length inducing the standard cycle:
    random prefix, then bubble-sort completion (signs randomized, since
    the induced permutation ignores them)."""
    for _ in range(500):
        prefix = [random_letter(rng, d, allow_twists)
                  for _ in range(rng.randint(0, 4))]
        images = list(range(1, d + 1))
        for x in prefix:
            if x.kind == ARTIN:
                i = x.index - 1
                images[i], images[i + 1] = images[i + 1], images[i]
        letters = prefix + _corrector(images, rng)
        if len(letters) > max_len:
            continue
        b = BraidWord.from_letters(d, letters)
        if b.letters and len(b) <= max_len:
            assert induced_permutation(b).is_standard_cycle()
            return b
    raise RuntimeError("failed to sample a transitive braid")


def sampled_transitive_braids():
    """600 short random words inducing the standard cycle, d = 2..8."""
    rng = random.Random(167)
    for _ in range(600):
        d = rng.randint(2, 8)
        yield random_transitive_braid(rng, d,
                                      max_len=rng.choice((2 * d, 3 * d)))


def random_free_word(rng: random.Random, rank: int,
                     max_len: int = 8) -> FreeWord:
    if rank == 0:
        return W(0)
    letters = [rng.choice((1, -1)) * rng.randint(1, rank)
               for _ in range(rng.randint(0, max_len))]
    return FreeWord.from_letters(rank, letters)


def random_matrix(rng: random.Random, max_dim: int = 4,
                  max_entry: int = 9) -> IntMatrix:
    r = rng.randint(0, max_dim)
    c = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        tuple(rng.randint(-max_entry, max_entry) for _ in range(c))
        for _ in range(r))

"""The braid group as an oracle: words for one braid give one report.

The Artin action is a homomorphism from the braid group to Aut(F_d)
(Artin 1925; Birman, *Braids, Links, and Mapping Class Groups*, 1974,
ch. 1 and 3), and a report reads the braid only through its permutation
and the reduced images of that action.  So rewriting a word by the braid
relations

    s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}   (any common sign),
    s_i s_j = s_j s_i                        (|i - j| >= 2),

or inserting the full twist Delta^2 = (s1 ... s<d-1>)^d or its inverse
anywhere (Delta^2 is central, and acts on the sphere group as
conjugation by x1 ... xd = 1), changes no field of the report but its
``input``.  This checks what reads the braid word: the parser, the
Artin action and the induced permutation."""

import random

import pytest

from braidfloer.braids import TWIST, BraidWord, induced_permutation
from braidfloer.report import build_report, render_text

from _samplers import _corrector

WORDS = 300
MOVES = 6


def artin(x: int) -> bool:
    return abs(x) < TWIST


def related_moves(letters: list[int]):
    """Each rewrite of ``letters`` by one braid relation or far
    commutation, as (position, length, replacement)."""
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        if artin(a) and artin(b) and abs(abs(a) - abs(b)) >= 2:
            yield p, 2, [b, a]
        if (p + 2 < len(letters) and letters[p + 2] == a and artin(a)
                and artin(b) and a * b > 0 and abs(abs(a) - abs(b)) == 1):
            yield p, 3, [b, a, b]


def full_twist(d: int, sign: int) -> list[int]:
    """Delta^2 for sign 1, its inverse for sign -1."""
    letters = list(range(1, d)) * d
    return letters if sign > 0 else [-x for x in reversed(letters)]


def moved(rng: random.Random, letters: list[int], d: int) -> list[int]:
    """letters after up to MOVES random relations, far commutations and
    full twists; a relation is taken where one applies, else a twist."""
    letters = list(letters)
    for _ in range(rng.randint(1, MOVES)):
        moves = list(related_moves(letters))
        if moves and rng.random() < 0.75:
            p, n, replacement = rng.choice(moves)
            letters[p:p + n] = replacement
        else:
            p = rng.randint(0, len(letters))
            letters[p:p] = full_twist(d, rng.choice((1, -1)))
    return letters


def pattern_word(rng: random.Random, d: int) -> list[int]:
    """A word of at most 20 letters built from single letters, twists and
    triples s_i s_j s_i of one sign with |i - j| = 1, where the braid
    relation applies; completed to the standard cycle most times."""
    while True:
        letters: list[int] = []
        for _ in range(rng.randint(1, 5)):
            i, sign = rng.randint(1, d - 1), rng.choice((1, -1))
            roll = rng.random()
            if roll < 0.4:
                up = i < d - 1 and (i == 1 or rng.random() < 0.5)
                j = i + 1 if up else i - 1
                letters += [sign * i, sign * j, sign * i]
            elif roll < 0.5:
                letters.append(sign * (TWIST + rng.randint(1, d)))
            else:
                letters.append(sign * i)
        if rng.random() < 0.8:
            sigma = induced_permutation(BraidWord(d, tuple(letters)))
            letters += _corrector(list(sigma.images), rng)
        if len(letters) <= 20:
            return letters


def related_pairs():
    """WORDS pairs of texts for one braid, d = 3..8."""
    rng = random.Random(13)
    for k in range(WORDS):
        d = 3 + k % 6
        letters = pattern_word(rng, d)
        yield (BraidWord(d, tuple(letters)).to_text(),
               BraidWord(d, tuple(moved(rng, letters, d))).to_text())


@pytest.mark.parametrize("depth", [0, 3])
def test_related_words_give_equal_reports(depth):
    # the texts are written unreduced, so the parser's free reduction
    # is read too; the json reports agree but for input, and the text
    # reports but for its line; a few pairs reduce to one word
    transitive = changed = 0
    for word, other in related_pairs():
        a, b = build_report(word, depth), build_report(other, depth)
        text_a, text_b = render_text(a), render_text(b)
        changed += a.pop("input") != b.pop("input")
        assert a == b, (word, other)
        lines = [(x, y) for x, y in zip(text_a.splitlines(),
                                        text_b.splitlines()) if x != y]
        assert len(text_a.splitlines()) == len(text_b.splitlines())
        assert all(x.startswith("input: ") and y.startswith("input: ")
                   for x, y in lines), (word, other)
        transitive += a["transitive"]
    assert changed >= WORDS * 9 // 10 and transitive >= WORDS // 2

"""Seeded braid-word corpus for the benchmark workloads.

Each workload is a list of braid words in the ``d=<int>; token*``
grammar, written one per line as a ``--batch`` file.  The words depend
only on the workload name, the seed and the size constants below, so
the same seed gives the same bytes.  Nothing here imports the package
under test: the permutation a word induces is simulated by the swap
rule the grammar defines (``s<i>`` swaps entries i, i+1 of the image
tuple), and the Artin images and raw trace terms that size the words
are computed here from their definitions.

Usage: python3 perfbench/corpus.py --workload NAME --seed N --out PATH
"""

from __future__ import annotations

import argparse
import itertools
import math
import operator
import random
from pathlib import Path

WORKLOADS = ("disc_growth", "long_images", "many_strands", "refine_short")

# Words per workload; many_strands also has MANY_STRANDS_HEAVY words with
# d >= 102 among its MANY_STRANDS_WORDS.
DISC_GROWTH_WORDS = 300
LONG_IMAGES_WORDS = 300
MANY_STRANDS_WORDS = 120
MANY_STRANDS_HEAVY = 6
REFINE_SHORT_WORDS = 280

# How a Penner-sign word is grown to a size target: the accepted band
# around the target (as a ratio), the draws tried, the letters per draw.
GROW_TOLERANCE = 0.05
GROW_ATTEMPTS = 40
GROW_MAX_LETTERS = 400


def penner_sign(i: int) -> int:
    """Penner's sign rule: s_i positive for odd i, negative for even i.

    A word in which every s_i carries this sign (and every generator
    appears) is pseudo-Anosov on the punctured disc."""
    return 1 if i % 2 else -1


def swap_images(d: int, letters: list[tuple[int, int]]) -> list[int]:
    """Image tuple of the permutation induced by Artin letters (i, sign)."""
    images = list(range(1, d + 1))
    for i, _ in letters:
        images[i - 1], images[i] = images[i], images[i - 1]
    return images


def standard_cycle(d: int) -> list[int]:
    """Images of the cycle (1 2 ... d) in the report's convention."""
    return list(range(2, d + 1)) + [1]


def complete_to_cycle(d: int, letters: list[tuple[int, int]],
                      sign) -> list[tuple[int, int]]:
    """Append bubble-sort swaps so the word induces the standard cycle.

    ``sign(i)`` gives the sign of each appended s_i, so a completion
    keeps the family's sign rule."""
    images = swap_images(d, letters)
    target = standard_cycle(d)
    out = list(letters)
    for pos in range(d):
        j = images.index(target[pos], pos)
        while j > pos:
            images[j - 1], images[j] = images[j], images[j - 1]
            out.append((j, sign(j)))
            j -= 1
    return out


def free_reduce(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for i, s in letters:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return out


def to_text(d: int, letters: list[tuple[int, int]]) -> str:
    tokens = [f"s{i}" + ("" if s > 0 else "^-1") for i, s in letters]
    return " ".join([f"d={d};"] + tokens)


def _concat(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two freely reduced words, cancelling at the seam."""
    last, n = len(u) - 1, min(len(u), len(v))
    k = 0
    while k < n and u[last - k] == -v[k]:
        k += 1
    return u[:last + 1 - k] + v[k:]


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.neg, reversed(w)))


def disc_images(d: int, letters: list[tuple[int, int]],
                images: list[tuple[int, ...]] | None = None
                ) -> list[tuple[int, ...]]:
    """Images of x1..xd under the Artin action of the word on the
    punctured-disc group, the rightmost letter acting first:
    s_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i.  Scanning
    left to right precomposes, so ``images`` (the images of a prefix)
    can be extended letter by letter."""
    imgs = list(images) if images else [(j,) for j in range(1, d + 1)]
    for i, s in letters:
        a, b = imgs[i - 1], imgs[i]
        if s > 0:
            imgs[i - 1], imgs[i] = _concat(_concat(a, b), _inverse(a)), a
        else:
            imgs[i - 1], imgs[i] = b, _concat(_concat(_inverse(b), a), b)
    return imgs


def sphere_images(d: int, letters: list[tuple[int, int]],
                  images: list[tuple[int, ...]] | None = None
                  ) -> list[tuple[int, ...]]:
    """The same action on the punctured-sphere group, free on x1..x<d-1>,
    where xd = (x1 ... x<d-1>)^-1: applied letter by letter, so the
    images stay reduced in rank d-1 and never pass through the (longer)
    disc images."""
    imgs = list(images) if images else [(j,) for j in range(1, d)]
    for i, s in letters:
        a = imgs[i - 1]
        if i < d - 1:
            b = imgs[i]
        else:
            b = ()
            for img in imgs:
                b = _concat(b, img)
            b = _inverse(b)
        if s > 0:
            imgs[i - 1] = _concat(_concat(a, b), _inverse(a))
            if i < d - 1:
                imgs[i] = a
        else:
            imgs[i - 1] = b
            if i < d - 1:
                imgs[i] = _concat(_concat(_inverse(b), a), b)
    return imgs


def fox_trace_terms(images: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Words with a nonzero coefficient in [1] - sum_j d(phi(xj))/dxj,
    given the sphere images phi(x1), ..., phi(x<d-1>).

    The Fox derivative of a reduced word w by xj has a term +prefix at
    each xj and -prefix xj^-1 at each xj^-1."""
    terms: dict[tuple[int, ...], int] = {(): 1}
    for j, img in enumerate(images, start=1):
        for p, x in enumerate(img):
            if x == j:
                key, c = img[:p], -1
            elif x == -j:
                key, c = img[:p + 1], 1
            else:
                continue
            terms[key] = terms.get(key, 0) + c
    return [word for word, c in terms.items() if c]


def same_class_pairs(d: int, images: list[tuple[int, ...]]) -> int:
    """Pairs of raw trace terms in one twisted-conjugacy class of a
    transitive braid, the pairs refinement searches.

    For the standard cycle, coker(I - A) on H1 of the punctured sphere
    is Z/d, reached by the exponent sum mod d."""
    sizes: dict[int, int] = {}
    for word in fox_trace_terms(images):
        label = sum(1 if x > 0 else -1 for x in word) % d
        sizes[label] = sizes.get(label, 0) + 1
    return sum(m * (m - 1) // 2 for m in sizes.values())


def _spread(n: int, lo: float, hi: float, power: float = 1.0) -> list[int]:
    """n sizes from lo to hi at the quantiles u^power, u evenly spaced."""
    return [round(lo + (hi - lo) * (k / (n - 1)) ** power) for k in range(n)]


def _geometric(n: int, lo: float, hi: float) -> list[int]:
    """n sizes from lo to hi, evenly spaced on a log scale."""
    return [round(lo * (hi / lo) ** (k / (n - 1))) for k in range(n)]


def _stratified(values: list) -> list:
    """A fixed order of an ascending schedule in which every prefix
    spreads over the whole range (golden-ratio sequence of quantiles).

    The sizes and their order do not depend on the seed, so the cost of
    a corpus, and of any prefix of it a timed run gets through, varies
    little from seed to seed; the seed only draws the letters."""
    n = len(values)
    order = sorted(range(n), key=lambda k: (k * 0.6180339887498949) % 1.0)
    return [values[k] for k in order]


def _grow_penner_word(rng: random.Random, d: int, transitive: bool,
                      action, size, target: int,
                      cumulative: bool = False) -> str:
    """A Penner-sign word whose Artin images have ``size`` within
    ``GROW_TOLERANCE`` of ``target`` (on a log scale).

    Letters are drawn one at a time; after each, the word is completed to
    the standard cycle (when ``transitive``) and ``size(images)`` read off
    ``action`` (``disc_images`` or ``sphere_images``), or with
    ``cumulative`` summed over the images after every letter of the word.
    The first word in the band is kept; a draw that jumps past the band
    starts over, and after ``GROW_ATTEMPTS`` draws the closest word seen is
    kept.  The target is a generator parameter: the generator measures
    the images itself and never looks at the package's output.  A
    non-transitive word is left as drawn (one more swap is appended in
    the rare case the draw is already the cycle)."""
    band = math.log1p(GROW_TOLERANCE)
    best = (math.inf, "")
    for _ in range(GROW_ATTEMPTS):
        letters: list[tuple[int, int]] = []
        images = None
        done = 0  # size summed over the prefix, when cumulative
        while len(letters) < GROW_MAX_LETTERS:
            i = rng.randint(1, d - 1)
            letters.append((i, penner_sign(i)))
            images = action(d, letters[-1:], images)
            done += size(images) if cumulative else 0
            if transitive:
                tail = complete_to_cycle(d, letters, penner_sign)[len(letters):]
            elif swap_images(d, letters) == standard_cycle(d):
                tail = [(1, penner_sign(1))]
            else:
                tail = []
            value, tail_images = done, images
            for letter in tail:
                tail_images = action(d, [letter], tail_images)
                value += size(tail_images) if cumulative else 0
            if not cumulative:
                value = size(tail_images)
            distance = abs(math.log(max(value, 1) / target))
            if distance < best[0]:
                best = (distance, to_text(d, letters + tail))
            if distance <= band:
                return best[1]
            if value > target:
                break
    return best[1]


def _total_letters(images: list[tuple[int, ...]]) -> int:
    return sum(len(img) for img in images)


def _squares(images: list[tuple[int, ...]]) -> int:
    return sum(len(img) ** 2 for img in images)


def _is_flat(k: int, every: int) -> bool:
    """Every ``every``-th word of a stratified schedule is left
    non-transitive, so flat words spread over all sizes."""
    return k % every == every - 1


def disc_growth(rng: random.Random) -> list[str]:
    """d=3 words over {s1, s2^-1}, sized by the letters of their rank-3
    disc images summed over every prefix of the word (4e3 to 8e4,
    log-uniform), which is the work of building them; the sphere images
    stay short.  One word in five is left non-transitive."""
    return [_grow_penner_word(rng, 3, not _is_flat(k, 5), disc_images,
                              _total_letters, t, cumulative=True)
            for k, t in enumerate(_stratified(
                _geometric(DISC_GROWTH_WORDS, 4e3, 8e4)))]


def long_images(rng: random.Random) -> list[str]:
    """d=4..6 Penner-sign words, sized by the sum of the squared lengths
    of their sphere images (2e4 to 1.2e6, log-uniform: longest images of
    about 100 to 1000 letters).  The Fox trace, the projection of its
    terms and the rotations Tietze compares all grow with the square of
    image length.  One word in five is left non-transitive."""
    plan = _stratified(_geometric(LONG_IMAGES_WORDS, 2e4, 1.2e6))
    return [_grow_penner_word(rng, 4 + k % 3, not _is_flat(k, 5),
                              sphere_images, _squares, t)
            for k, t in enumerate(plan)]


def many_strands(rng: random.Random) -> list[str]:
    """The standard word s1 ... s<d-1> with random signs and about 5%
    inserted squares s_j^{+-2}.  A square induces no swap, so every word
    keeps the standard cycle.  Most words have d from 16 to 60;
    MANY_STRANDS_HEAVY words have d from 102 to 112, where pi1 simplification is
    known to stop short of the standard form.  The heavy words sit above
    the 90th percentile of the cost, so that percentile falls inside the
    smooth part of the schedule."""
    heavy = MANY_STRANDS_HEAVY
    sizes = (_spread(MANY_STRANDS_WORDS - heavy, 16, 60, 1.5)
             + _spread(heavy, 102, 112))
    out = []
    for d in _stratified(sizes):
        letters = [(i, rng.choice((1, -1))) for i in range(1, d)]
        for _ in range(max(1, round(0.05 * (d - 1)))):
            j = rng.randint(1, d - 1)
            s = rng.choice((1, -1))
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = [(j, s), (j, s)]
        out.append(to_text(d, free_reduce(letters)))
    return out


# (d, same-class pairs) of the transitive refine_short words, in equal
# numbers; search work grows with pairs * (2(d-1))^3, from about 1 ms to
# 0.1 s per braid.
REFINE_PLAN = ((4, 0), (4, 2), (4, 4), (4, 6), (5, 0), (5, 3), (5, 4), (5, 6),
               (6, 0), (6, 2), (6, 3), (6, 4), (7, 0), (7, 3), (7, 4))


def refine_short(rng: random.Random) -> list[str]:
    """Short words (at most 14 letters) with random signs, run at
    refinement depth 3.  Refinement searches every pair of raw trace
    terms in one class, so each transitive word is drawn until its own
    count of such pairs meets ``REFINE_PLAN``.  One word in seven is
    left non-transitive (d=4..7), which skips refinement."""
    out = []
    plan = itertools.cycle(REFINE_PLAN)
    for k in range(REFINE_SHORT_WORDS):
        flat = _is_flat(k, 7)
        d, pairs = (4 + k % 4, None) if flat else next(plan)
        for _ in range(100000):
            prefix = [(rng.randint(1, d - 1), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 4))]
            if flat:
                letters = free_reduce(prefix + [(rng.randint(1, d - 1),
                                                 rng.choice((1, -1)))])
                if letters and swap_images(d, letters) != standard_cycle(d):
                    break
                continue
            letters = free_reduce(complete_to_cycle(
                d, prefix, lambda i: rng.choice((1, -1))))
            if (len(letters) <= 14 and same_class_pairs(
                    d, sphere_images(d, letters)) == pairs):
                break
        else:
            raise RuntimeError(f"no word with {pairs} class pairs at d={d}")
        out.append(to_text(d, letters))
    return out


GENERATORS = {"disc_growth": disc_growth, "long_images": long_images,
              "many_strands": many_strands, "refine_short": refine_short}
REFINE_DEPTH = {"refine_short": 3}


def corpus(workload: str, seed: int) -> list[str]:
    """The braid words of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)


def batch_text(words: list[str]) -> str:
    return "".join(w + "\n" for w in words)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    args.out.write_text(batch_text(corpus(args.workload, args.seed)))


if __name__ == "__main__":
    main()

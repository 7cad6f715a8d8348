"""Reidemeister traces, homological Nielsen class indices, and the fixed
point lower bound.

Calibration values are frozen from the two rotation models: the degree-2
monodromy is the half-turn of the sphere (two fixed points of index +1 in
distinct classes), the standard degree-3 monodromy is the one-third turn
(two index +1 classes and one empty class)."""

import random
import re
from collections import Counter
from math import gcd

import pytest

from braidfloer import nielsen
from braidfloer.braids import (BraidWord, Permutation, _reduce,
                               induced_permutation, parse_braid)
from braidfloer.freegroup import (FreeGroupEndo, FreeWord, _concat, _inverse,
                                  _middle, artin_endo)
from braidfloer.nielsen import (BALL_LETTERS_PER_ELEMENT, ENUMERATION_CAP,
                                ORBIT_BALL_CAP, RefinementLimitError,
                                _orbit_ball, _seam_index, _seam_partners,
                                _twist_steps, _twists, class_space,
                                nielsen_decomposition, refine_decomposition,
                                reidemeister_trace_raw)
from braidfloer.report import build_report

import _oracles
from _oracles import W, braid_inverse, braid_product, lefschetz_number
from _samplers import (random_braid_word, random_free_word,
                       random_transitive_braid, sampled_transitive_braids,
                       transitive_golden_braids)


# the Lefschetz number of a braid whose permutation is one d-cycle
LEFSCHETZ = 2


def decompose(b):
    """The decomposition of braid b, which must induce one d-cycle."""
    return nielsen_decomposition(artin_endo(b), induced_permutation(b))


def entries(nd):
    """The (label, index) pairs of a decomposition, in its order, as
    ``projected_entries`` lists them."""
    return tuple((tuple(c["label"]), c["index"]) for c in nd["classes"])


def indices(nd):
    return [c["index"] for c in nd["classes"]]


def standard_cycle(d):
    """The permutation (1 2 ... d), for refining an endomorphism that
    no braid word was given for."""
    return Permutation((*range(2, d + 1), 1))


def exponent_class(letters, d):
    """The homological class of a word, for the action of a braid whose
    permutation is one d-cycle: its exponent sum mod d."""
    return sum(1 if x > 0 else -1 for x in letters) % d


def order_index_multiset(nd):
    """Sorted (element order, index) pairs; invariant under conjugation.

    Zero indices are dropped so the multiset does not depend on whether
    enumeration was possible.
    """
    return tuple(sorted((c["element_order"], c["index"])
                        for c in nd["classes"] if c["index"] != 0))


def search_steps(e):
    """(s, e(s)^-1) for each letter s, built from the images here rather
    than by ``_twist_steps``, which the references check."""
    return [(s, _inverse(image.letters) if s > 0 else image.letters)
            for j, image in enumerate(e.images, start=1) for s in (j, -j)]


def pairwise_search(e, g, h, depth):
    """Reference: breadth first from g alone, out to the full depth, until
    h turns up; the letter tuple of a conjugator, or None."""
    g, h = g.letters, h.letters
    if g == h:
        return ()
    steps = search_steps(e)
    seen = {g: ()}
    frontier = [g]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            u = seen[t]
            for s, image_inv in steps:
                t2 = _reduce((s,) + t + image_inv)
                if t2 in seen:
                    continue
                seen[t2] = (s,) + u
                if t2 == h:
                    return seen[t2]
                nxt.append(t2)
        frontier = nxt
    return None


def meet_in_the_middle(e, g, h, depth):
    """Refinement's test of one pair: the radius (depth + 1) // 2 orbit
    ball of g meets the radius depth // 2 ball of h.  A conjugator
    u = a b with h = u g e(u)^-1, read off a common element
    b g e(b)^-1 = a^-1 h e(a^-1)^-1, or None."""
    steps = _twist_steps(e)
    near_g, _ = _orbit_ball(g.letters, steps, (depth + 1) // 2,
                            ORBIT_BALL_CAP)
    near_h, _ = _orbit_ball(h.letters, steps, depth // 2, ORBIT_BALL_CAP)
    for t, a_inv in near_h.items():
        b = near_g.get(t)
        if b is not None:
            return FreeWord.from_letters(e.rank, _inverse(a_inv) + b)
    return None


def twisted_conjugate(e, u, g):
    """u g e(u)^-1."""
    image = _oracles.substitute(u, e.images).letters
    return FreeWord.from_letters(e.rank, u.letters + g.letters + _inverse(image))


def pairwise_clusters(e, depth, search=None):
    """Reference refinement: project every term of the Fox-derivative
    trace, then test each pair of terms of a class not yet joined, with
    one ``search`` per pair, or by default by looking the later term up
    in the earlier one's full-depth ball (``reduce_ball``, breadth first
    and with whole-word reduction, as ``pairwise_search`` finds it);
    (label, clusters) per class."""
    cs = class_space(e)
    steps = search_steps(e)
    by_label = {}
    for word, coeff in _oracles.reidemeister_trace_raw(e).items():
        label = cs.project(word.exponent_vector())
        by_label.setdefault(label, []).append((word, coeff))
    out = []
    for label in sorted(by_label):
        members = sorted(by_label[label],
                         key=lambda t: (len(t[0]), t[0].letters))
        parent = list(range(len(members)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, (g, _) in enumerate(members):
            ball = None
            for j in range(i + 1, len(members)):
                if find(i) == find(j):
                    continue
                h = members[j][0]
                if search is not None:
                    joined = search(e, g, h, depth) is not None
                else:
                    if ball is None:
                        ball = reduce_ball(g.letters, steps, depth)
                    joined = h.letters in ball
                if joined:
                    parent[find(j)] = find(i)
        groups = {}
        for i in range(len(members)):
            groups.setdefault(find(i), []).append(i)
        clusters = tuple(sorted(
            ((tuple(members[i][0] for i in idxs),
              sum(members[i][1] for i in idxs)) for idxs in groups.values()),
            key=lambda cl: tuple((len(w), w.letters) for w in cl[0])))
        out.append((label, clusters))
    return tuple(out)


def projected_entries(e):
    """Reference decomposition for the action e of a d-cycle braid:
    project every term of the Fox-derivative trace through the
    image-based class space coker(I - A) = Z/d, sum per label, then list
    every class if d <= ENUMERATION_CAP or else the nonzero ones."""
    cs = class_space(e)
    totals = {}
    for word, coeff in _oracles.reidemeister_trace_raw(e).items():
        label = cs.project(word.exponent_vector())
        totals[label] = totals.get(label, 0) + coeff
    order, = cs.invariant_factors()
    if order <= ENUMERATION_CAP:
        for k in range(order):
            totals.setdefault((k,), 0)
    else:
        totals = {label: c for label, c in totals.items() if c}
    return tuple(sorted(totals.items()))


def fox_class_totals(e, d):
    """The Fox-derivative trace of e summed per exponent sum mod d, the
    reference for ``_class_indices``."""
    totals = [0] * d
    for word, coeff in _oracles.reidemeister_trace_raw(e).items():
        totals[sum(word.exponent_vector()) % d] += coeff
    return totals


def conjugate_form_image(rng, n, j, kind):
    """A reduced image of xj, rank n >= 2, for the half scan's edge cases:
    u xc u^-1 with c = j ("same"), 0 < c != j ("other") or c < 0
    ("negative"), "other" with one mirrored pair broken ("broken"), or a
    word of even length ("even")."""
    while True:
        if kind == "even":
            w = random_free_word(rng, n, max_len=12).letters
            if w and len(w) % 2 == 0:
                return w
            continue
        if kind == "same":
            c = j
        elif kind == "negative":
            c = -rng.randint(1, n)
        else:
            c = rng.choice([i for i in range(1, n + 1) if i != j])
        u = random_free_word(rng, n, max_len=6).letters
        if not u or u[-1] in (c, -c):
            continue
        w = u + (c,) + _inverse(u)
        if kind == "broken":
            i = rng.randrange(len(u))
            z = rng.choice([x for x in (*range(-n, 0), *range(1, n + 1))
                            if x != -w[i]])
            w = w[:len(w) - 1 - i] + (z,) + w[len(w) - i:]
            if W(n, *w).letters != w:
                continue
        return w


def squares_braid(rng, d, max_len=6):
    """A word of squared Artin letters: a pure braid, whose class space
    coker(I - A) = coker(0) is infinite."""
    letters = []
    for _ in range(rng.randint(1, max_len)):
        x = rng.randint(1, d - 1) * rng.choice((1, -1))
        letters += [x, x]
    return BraidWord.from_letters(d, letters)


def mixed_words():
    """540 words, d = 2..8: transitive, random, and pure (squares_braid)
    in turn."""
    rng = random.Random(389)
    for k in range(540):
        d = 2 + k % 7
        if k % 3 == 0:
            yield random_transitive_braid(rng, d, max_len=14)
        elif k % 3 == 1:
            yield random_braid_word(rng, d, max_len=14)
        else:
            yield squares_braid(rng, d)


def probed_shell_count(e, depth):
    """What the largest class counted against ORBIT_BALL_CAP when an odd
    depth probed every twist of each boundary element of every ball but
    the first: its ball sizes plus 1 + letters // 32 per probe."""
    steps = _twist_steps(e)
    radius = depth // 2
    classes = {}
    for w in reidemeister_trace_raw(e):
        classes.setdefault(exponent_class(w.letters, e.rank + 1), []).append(w)
    counts = [0]
    for words in classes.values():
        if len(words) < 2:
            continue
        words.sort(key=lambda w: (len(w), w.letters))
        count = 0
        for i, w in enumerate(words):
            ball, size = _orbit_ball(w.letters, steps, radius, ORBIT_BALL_CAP)
            count += size
            if i:
                count += sum(1 + len(t2) // BALL_LETTERS_PER_ELEMENT
                             for t, u in ball.items() if len(u) == radius
                             for _, t2 in _twists(t, steps))
        counts.append(count)
    return max(counts)


def reduce_ball(g, steps, radius):
    """Reference orbit ball: reduce the whole of s t e(s)^-1 per step."""
    ball = {g: ()}
    frontier = [g]
    for _ in range(radius):
        nxt = []
        for t in frontier:
            for s, image_inv in steps:
                t2 = _reduce((s,) + t + image_inv)
                if t2 not in ball:
                    ball[t2] = (s,) + ball[t]
                    nxt.append(t2)
        frontier = nxt
    return ball


class TestCalibrations:
    def test_two_strand_half_turn(self):
        b = parse_braid("d=2; s1")
        e = artin_endo(b)
        assert lefschetz_number(e) == 2
        cs = class_space(e)
        assert cs.invariant_factors() == (2,)
        nd = nielsen_decomposition(e, induced_permutation(b))
        assert nd["complete"]
        assert entries(nd) == (((0,), 1), ((1,), 1))
        assert nd["bound"] == 2
        assert reidemeister_trace_raw(e) == {W(1): 1, W(1, -1): 1}

    def test_three_strand_third_turn(self):
        b = parse_braid("d=3; s1 s2")
        e = artin_endo(b)
        assert lefschetz_number(e) == 2
        cs = class_space(e)
        assert cs.invariant_factors() == (3,)
        nd = nielsen_decomposition(e, induced_permutation(b))
        assert nd["complete"]
        assert sorted(indices(nd)) == [0, 1, 1]
        assert nd["bound"] == 2
        assert reidemeister_trace_raw(e) == {W(2, 1, 2, -1): 1, W(2, 1, -2): 1}

    def test_identity_endomorphism_family(self):
        for n in range(1, 8):
            e = _oracles.identity_endo(n)
            assert lefschetz_number(e) == 1 - n
            # zero coefficients are dropped: at n = 1 the trace is 0
            assert reidemeister_trace_raw(e) == ({W(n): 1 - n} if n > 1
                                                 else {})


class TestDecomposition:
    def test_indices_sum_to_lefschetz(self):
        rng = random.Random(83)
        for _ in range(200):
            d = rng.randint(2, 6)
            b = random_transitive_braid(rng, d)
            nd = decompose(b)
            assert (sum(indices(nd)) == lefschetz_number(artin_endo(b))
                    == LEFSCHETZ)

    def test_lefschetz_agrees_with_fixed_point_count(self):
        rng = random.Random(89)
        for _ in range(200):
            d = rng.randint(2, 6)
            b = random_braid_word(rng, d)
            sigma = induced_permutation(b)
            lefschetz = lefschetz_number(artin_endo(b))
            assert lefschetz == 2 - sigma.fixed_point_count()
            assert build_report(b.to_text())["lefschetz"] == lefschetz

    def test_transitive_braids_have_cyclic_class_space(self):
        rng = random.Random(97)
        for _ in range(100):
            d = rng.randint(2, 6)
            b = random_transitive_braid(rng, d)
            assert class_space(artin_endo(b)).invariant_factors() == (d,)

    def test_bound_dominates_lefschetz_with_matching_parity(self):
        rng = random.Random(101)
        for _ in range(200):
            d = rng.randint(2, 6)
            nd = decompose(random_transitive_braid(rng, d))
            assert nd["bound"] >= abs(LEFSCHETZ)
            assert (nd["bound"] - LEFSCHETZ) % 2 == 0

    def test_conjugation_invariance(self):
        rng = random.Random(103)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            g = random_braid_word(rng, d, max_len=6)
            nd = decompose(b)
            nd_c = decompose(braid_product(g, b, braid_inverse(g)))
            assert nd["bound"] == nd_c["bound"]
            assert order_index_multiset(nd) == order_index_multiset(nd_c)

    def test_inversion_symmetry(self):
        rng = random.Random(107)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            nd = decompose(b)
            nd_i = decompose(braid_inverse(b))
            assert nd["bound"] == nd_i["bound"]

    def test_entries_are_sorted_and_complete_when_small(self):
        nd = decompose(parse_braid("d=4; s1 s2 s3"))
        labels = [c["label"] for c in nd["classes"]]
        assert labels == sorted(labels)
        assert len(labels) == 4
        assert nd["complete"]

    def test_prefix_scan_matches_the_projected_raw_trace(self):
        # on the standard cycle the exponent sum is the label the Smith
        # elimination of the image-based I - A gives; a conjugated
        # d-cycle may label its classes by another generator of Z/d, so
        # there only the (element order, index) pairs must agree
        rng = random.Random(397)
        standard = conjugated = 0
        for b in mixed_words():
            if not induced_permutation(b).is_standard_cycle():
                continue
            e = artin_endo(b)
            nd = decompose(b)
            assert entries(nd) == projected_entries(e), b.to_text()
            assert sum(indices(nd)) == lefschetz_number(e)
            standard += 1
            g = random_braid_word(rng, b.d, max_len=6)
            conj = braid_product(g, b, braid_inverse(g))
            if induced_permutation(conj).is_standard_cycle():
                continue
            e = artin_endo(conj)
            projected = projected_entries(e)
            assert sum(c for _, c in projected) == lefschetz_number(e)
            reference = tuple(sorted((b.d // gcd(b.d, k), c)
                                     for (k,), c in projected if c != 0))
            assert (order_index_multiset(decompose(conj))
                    == reference), conj.to_text()
            conjugated += 1
        assert standard >= 180 and conjugated >= 100

    def test_half_image_scan_matches_the_fox_trace(self):
        # _class_indices reads only u of an image u y u^-1 with y > 0,
        # y != xj, and the whole of any other image; the sums must be the
        # Fox trace's on standard-cycle braids, conjugated d-cycles and
        # images made for each side of that rule
        rng = random.Random(409)
        cases = [(artin_endo(b), b.d) for b in mixed_words()
                 if induced_permutation(b).is_standard_cycle()]
        # a pseudo-Anosov word with images of 267 to 603 letters
        cases.append((artin_endo(parse_braid(
            "d=4; " + "s1 s2^-1 s3 " * 4 + "s1 s2 s3")), 4))
        for b, _ in zip(sampled_transitive_braids(), range(100)):
            g = random_braid_word(rng, b.d, max_len=6)
            conj = braid_product(g, b, braid_inverse(g))
            if not induced_permutation(conj).is_standard_cycle():
                cases.append((artin_endo(conj), b.d))
        kinds = ("same", "other", "negative", "broken", "even")
        for k in range(300):
            n = 2 + k % 4
            e = FreeGroupEndo(n, tuple(
                W(n, *conjugate_form_image(rng, n, j, rng.choice(kinds)))
                for j in range(1, n + 1)))
            cases += [(e, n + 1), (e, 2 + k % 7)]
        half = whole = 0
        for e, d in cases:
            assert nielsen._class_indices(e, d) == fox_class_totals(e, d), e
            for j, w in enumerate(e.images, start=1):
                m = _middle(w.letters)
                if m >= 0 and 0 < w.letters[m] != j:
                    half += 1
                else:
                    whole += 1
        assert len(cases) > 800 and half > 1000 and whole > 1500

    def test_precondition_is_one_cycle_of_degree_rank_plus_one(self):
        e = artin_endo(parse_braid("d=4; s1 s2 s3"))
        for sigma in (Permutation((1, 2, 3, 4)), Permutation((2, 1, 4, 3)),
                      Permutation((2, 3, 1)), Permutation((2, 3, 4, 5, 1))):
            with pytest.raises(ValueError):
                nielsen_decomposition(e, sigma)
        with pytest.raises(ValueError):
            nielsen_decomposition(FreeGroupEndo(0, ()), Permutation((1,)))
        # the message shows the images by their first characters
        with pytest.raises(ValueError, match=r"permutation \(2, 3, 4\.\.\.$"):
            nielsen_decomposition(e, Permutation(tuple(range(2, 20002)) + (1,)))
        # any 4-cycle will do, not only the standard one
        assert nielsen_decomposition(
            e, Permutation((3, 4, 2, 1)))["class_space"]["order"] == 4

    def test_past_the_enumeration_cap_only_nonzero_classes(self):
        d = ENUMERATION_CAP + 1
        for signs in ((1,) * (d - 1), (1, -1) * (d // 2)):
            b = BraidWord.from_letters(
                d, (i * s for i, s in enumerate(signs, start=1)))
            e = artin_endo(b)
            nd = decompose(b)
            assert not nd["complete"]
            assert all(c != 0 for c in indices(nd))
            assert entries(nd) == projected_entries(e)
            assert sum(indices(nd)) == LEFSCHETZ == 2

    def test_raw_trace_matches_the_fox_derivatives(self):
        for b in mixed_words():
            e = artin_endo(b)
            raw = reidemeister_trace_raw(e)
            assert raw == _oracles.reidemeister_trace_raw(e), b.to_text()

    def test_decomposition_validates_its_sum(self, monkeypatch):
        # indices summing to 1 instead of the Lefschetz number 2
        b = parse_braid("d=2; s1")
        monkeypatch.setattr(nielsen, "_class_indices", lambda e, d: [1, 0])
        with pytest.raises(ValueError, match="Lefschetz"):
            decompose(b)


class TestClassSpaceAgainstDense:
    """I - A read off the image letters, and the package's elimination
    of it, label classes as the dense I - A and the dense U of
    ``_oracles`` do."""

    def assert_same(self, e, rng):
        vectors = [w.exponent_vector() for w in e.images] + [
            tuple(rng.randint(-9, 9) for _ in range(e.rank))
            for _ in range(5)]
        _oracles.assert_same_class_space(
            class_space(e),
            _oracles.ClassSpace.of_action(_oracles.abelianization_matrix(e)),
            vectors)

    def test_mixed_words(self):
        rng = random.Random(401)
        for b in mixed_words():
            self.assert_same(artin_endo(b), rng)

    def test_standard_and_random_sign_words(self):
        rng = random.Random(409)
        for d in range(2, 151):
            for signs in ((1,) * (d - 1),
                          tuple(rng.choice((1, -1)) for _ in range(d - 1))):
                b = BraidWord.from_letters(
                    d, (i * s for i, s in enumerate(signs, start=1)))
                self.assert_same(artin_endo(b), rng)


class TestTwistedConjugacy:
    """Orbit balls that meet in the middle, as refinement tests each pair
    of terms, against explicit conjugators and the pairwise search."""

    def test_finds_explicit_conjugators(self):
        rng = random.Random(113)
        found = 0
        for _ in range(60):
            d = rng.randint(2, 4)
            e = artin_endo(random_braid_word(rng, d, max_len=6))
            g = random_free_word(rng, d - 1, 4)
            s = random_free_word(rng, d - 1, 2)
            h = twisted_conjugate(e, s, g)
            witness = meet_in_the_middle(e, g, h, depth=3)
            if witness is None:
                continue  # shallow search may miss long conjugators
            assert twisted_conjugate(e, witness, g) == h
            found += 1
        assert found >= 30

    def test_distinct_homological_classes_never_merge(self):
        e = artin_endo(parse_braid("d=3; s1 s2"))
        g = W(2, 1, 2, -1)   # class of label 1
        h = W(2, 1, -2)      # class of label 0
        assert meet_in_the_middle(e, g, h, depth=3) is None

    def test_witness_equation_at_each_depth(self):
        # meeting in the middle is exact: a conjugator of length <= depth
        # always turns up, and the witness is no longer than depth
        rng = random.Random(117)
        for depth in (1, 2, 3, 4):
            for _ in range(40):
                d = rng.randint(2, 6)
                e = artin_endo(random_braid_word(rng, d, max_len=8))
                g = random_free_word(rng, d - 1, 6)
                u = random_free_word(rng, d - 1, depth)
                h = twisted_conjugate(e, u, g)
                witness = meet_in_the_middle(e, g, h, depth)
                assert witness is not None and len(witness) <= depth
                assert twisted_conjugate(e, witness, g) == h

    def test_agrees_with_the_pairwise_search(self):
        rng = random.Random(119)
        hits = 0
        for k in range(200):
            d = rng.randint(2, 5)
            e = artin_endo(random_braid_word(rng, d, max_len=8))
            g = random_free_word(rng, d - 1, 5)
            u = random_free_word(rng, d - 1, 6)  # often longer than depth
            h = twisted_conjugate(e, u, g)
            depth = k % 5
            found = meet_in_the_middle(e, g, h, depth)
            assert (found is None) == (pairwise_search(e, g, h, depth) is None)
            hits += found is not None
        assert 40 <= hits <= 160

    def test_reflexive(self):
        e = artin_endo(parse_braid("d=3; s1 s2"))
        g = W(2, 1, 2, -1)
        witness = meet_in_the_middle(e, g, g, depth=1)
        assert witness is not None
        assert twisted_conjugate(e, witness, g) == g


class TestRefinement:
    def test_partition_respects_homology_and_indices(self):
        rng = random.Random(127)
        for _ in range(40):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            e = artin_endo(b)
            cs = class_space(e)
            raw = _oracles.reidemeister_trace_raw(e)
            for depth in (0, 2):
                refined = refine_decomposition(e, induced_permutation(b), depth)
                seen = {}
                for label, clusters in refined:
                    for words, coeff in clusters:
                        assert words
                        for w in words:
                            assert cs.project(w.exponent_vector()) == label
                        seen[label] = seen.get(label, 0) + coeff
                totals = {}
                for w, c in raw.items():
                    label = cs.project(w.exponent_vector())
                    totals[label] = totals.get(label, 0) + c
                assert seen == totals

    def test_refinement_needs_one_cycle_of_degree_rank_plus_one(self):
        # off a d-cycle the exponent sum mod d is not the homological
        # class: without the check, the first word's depth 1 refinement
        # labelled (2,) a cluster of class (2,) and one of class (-2,) in
        # coker(I - A) = Z, and the second word put terms of the classes
        # (1,) and (-2,) of Z under one label (1,)
        for word in ("d=4; s2^-1 s1 s2^-1 s1", "d=3; t2^-1 s1 s2^-1 s1 t3",
                     "d=4; s1^-1 s3^-1 s2 t2 s2^-1"):
            b = parse_braid(word)
            e, sigma = artin_endo(b), induced_permutation(b)
            assert len(sigma.cycles()) == 2
            for depth in (0, 1):
                with pytest.raises(ValueError, match="one cycle of degree"):
                    refine_decomposition(e, sigma, depth)
        # the same rule as the decomposition's: any d-cycle of degree
        # rank + 1 will do, and nothing else
        b = parse_braid("d=4; s1 s2 s3")
        e = artin_endo(b)
        assert (refine_decomposition(e, Permutation((3, 4, 2, 1)), 1)
                == refine_decomposition(e, induced_permutation(b), 1))
        for sigma in (Permutation((2, 3, 1)), Permutation((2, 3, 4, 5, 1))):
            with pytest.raises(ValueError, match="one cycle of degree"):
                refine_decomposition(e, sigma, 1)

    def test_same_clusters_as_the_pairwise_search(self):
        rng = random.Random(131)
        merged = 0
        for k in range(500):
            d = rng.randint(2, 7)
            b = random_transitive_braid(rng, d, max_len=14)
            e = artin_endo(b)
            depth = k % 5
            refined = refine_decomposition(e, induced_permutation(b), depth)
            assert refined == pairwise_clusters(e, depth)
            merged += any(len(words) > 1
                          for _, clusters in refined for words, _ in clusters)
        assert merged >= 20  # the merges themselves are compared, too

    def test_same_clusters_as_pairwise_meetings_at_odd_depths(self):
        # only an odd depth looks past the stored balls, at the
        # neighbours of their boundary elements; the reference meets
        # each pair of terms in the middle, since one full-depth search
        # per pair would take minutes at depth 7.  The two fixed words
        # first merge terms at depth 5, so those lookups find the merges
        rng = random.Random(137)
        braids = [random_transitive_braid(rng, rng.randint(2, 4), max_len=14)
                  for _ in range(38)]
        fixed = [parse_braid("d=4; s2^-1 t3 s2^-1 s1^-1 s2^-1 s3^-1"),
                 parse_braid("d=3; t3^-1 t1 s2 s1^-1 s2 s1^-1")]
        for b in braids + fixed:
            e, sigma = artin_endo(b), induced_permutation(b)
            for depth in (5, 7):
                assert (refine_decomposition(e, sigma, depth)
                        == pairwise_clusters(e, depth, meet_in_the_middle))
        for b in fixed:
            e, sigma = artin_endo(b), induced_permutation(b)
            assert (refine_decomposition(e, sigma, 5)
                    != refine_decomposition(e, sigma, 4))

    def test_one_term_classes_build_no_ball(self, monkeypatch):
        # each class of this braid holds one term, which has nothing to
        # merge with, at any depth
        b = parse_braid("d=7; s1 s2 s3 s4 s5 s6")
        e = artin_endo(b)
        labels = [exponent_class(w.letters, 7)
                  for w in reidemeister_trace_raw(e)]
        assert len(labels) == len(set(labels)) > 1
        calls = []
        monkeypatch.setattr(nielsen, "_orbit_ball",
                            lambda *args: calls.append(args))
        refined = refine_decomposition(e, induced_permutation(b), 16)
        assert calls == []
        assert all(len(clusters) == 1 for _, clusters in refined)

    def test_each_term_of_a_larger_class_builds_one_small_ball(
            self, monkeypatch):
        # classes of 4, 6, 5 and 3 terms: one ball of radius depth // 2
        # per term, the last term's included, at even and odd depths
        b = parse_braid("d=4; s2 s2 s1^-1 s2 s3")
        e = artin_endo(b)
        sizes = Counter(exponent_class(w.letters, 4)
                        for w in reidemeister_trace_raw(e))
        assert sorted(sizes.values()) == [3, 4, 5, 6]
        orbit_ball = nielsen._orbit_ball
        for depth in (1, 2, 3, 4):
            calls = Counter()

            def counted(g, steps, radius, room):
                calls[exponent_class(g, 4), radius] += 1
                return orbit_ball(g, steps, radius, room)

            monkeypatch.setattr(nielsen, "_orbit_ball", counted)
            refine_decomposition(e, induced_permutation(b), depth)
            assert calls == {(label, depth // 2): m
                             for label, m in sizes.items()}

    def test_generator_images_are_read_once(self, monkeypatch):
        # six raw terms in classes of one, three and two; the
        # twisted-conjugation steps are read off the images once for
        # all of them
        b = parse_braid("d=4; s1 s2^-1 s3 s1 s2")
        e = artin_endo(b)
        calls = []
        twist_steps = nielsen._twist_steps
        monkeypatch.setattr(nielsen, "_twist_steps",
                            lambda e: calls.append(e) or twist_steps(e))
        refine_decomposition(e, induced_permutation(b), 3)
        assert len(reidemeister_trace_raw(e)) == 6
        assert len(calls) == 1

    def test_orbit_balls_match_whole_word_reduction(self):
        rng = random.Random(401)
        for k in range(200):
            d = rng.randint(2, 6)
            e = artin_endo(random_braid_word(rng, d, max_len=10))
            steps = _twist_steps(e)
            g = random_free_word(rng, d - 1, 6).letters
            radius = k % 4
            ball, _ = _orbit_ball(g, steps, radius, ORBIT_BALL_CAP)
            assert ball == reduce_ball(g, steps, radius)

    def test_each_twist_is_one_of_three_kinds(self):
        # the lemma odd depths rest on: a neighbour t' = s t e(s)^-1 of a
        # reduced t is (a) L(t), the twist that cancels t's first letter,
        # (b) a t' whose L is t, or (c) a partner the seam index yields;
        # and every partner is a neighbour.  The endos are random, and
        # besides random t and t = () the suffixes after each letter s
        # of e(s) are tried, where (c) partners live
        rng = random.Random(157)
        kinds = Counter()
        for _ in range(300):
            n = rng.randint(1, 5)
            e = FreeGroupEndo(n, tuple(random_free_word(rng, n, 6)
                                       for _ in range(n)))
            steps = _twist_steps(e)
            seams = _seam_index(steps)
            image = {-s: image_inv for s, image_inv in steps}
            ts = {(), random_free_word(rng, n, 6).letters}
            ts.update(w[p + 1:] for s, w in image.items()
                      for p, x in enumerate(w) if x == s)
            for t in ts:
                twists = dict(_twists(t, steps))
                partners = set(_seam_partners(t, seams))
                assert partners <= set(twists.values())
                for t2 in twists.values():
                    a = bool(t) and t2 == twists[-t[0]]
                    b = bool(t2) and dict(_twists(t2, steps))[-t2[0]] == t
                    c = t2 in partners
                    assert a or b or c, (e.images, t, t2)
                    kinds[a, b, c] += 1
        assert kinds[False, False, True] > 100

    def test_l_of_a_twist_by_the_conjugators_first_letter(self):
        # the lemma that lets odd depths skip L(t): in an orbit ball, an
        # element t whose conjugator u begins with t's first letter has
        # as its L(t) the element whose conjugator is u[1:]
        rng = random.Random(163)
        skipped = 0
        for k in range(60):
            d = rng.randint(3, 6)
            e = artin_endo(random_transitive_braid(rng, d, max_len=10))
            steps = _twist_steps(e)
            step_inv = dict(steps)
            g = rng.choice(sorted(reidemeister_trace_raw(e),
                                  key=lambda w: w.letters)).letters
            ball, _ = _orbit_ball(g, steps, 2 + k % 2, ORBIT_BALL_CAP)
            for t, u in ball.items():
                if u and t and t[0] == u[0]:
                    assert ball[_concat(t[1:], step_inv[-t[0]])] == u[1:]
                    skipped += 1
        assert skipped > 1000

    def test_a_seam_only_neighbour(self):
        # e(x1) = x2^-1 x1 x3: the twist by x1^-1 takes x2 to x3 by
        # cancelling all of x1^-1 x2, and no other kind of twist joins
        # them, so refinement merges the raw trace terms x2 and x3 at
        # depth 1 through the seam index alone
        e = FreeGroupEndo(3, (W(3, -2, 1, 3), W(3, 2, 2), W(3, 3, 3)))
        steps = _twist_steps(e)
        seams = _seam_index(steps)
        g, h = W(3, 2), W(3, 3)
        from_g = dict(_twists(g.letters, steps))
        from_h = dict(_twists(h.letters, steps))
        assert from_g[-1] == h.letters
        assert from_g[-2] != h.letters and from_h[-3] != g.letters  # L
        assert h.letters in _seam_partners(g.letters, seams)
        assert g.letters in _seam_partners(h.letters, seams)
        assert pairwise_search(e, g, h, 1) == (-1,)
        merged = dict(refine_decomposition(e, standard_cycle(4), 1))
        assert merged[(1,)] == (((g, h), -2),)
        apart = dict(refine_decomposition(e, standard_cycle(4), 0))
        assert apart[(1,)] == (((g,), -1), ((h,), -1))

    def test_every_term_with_a_shared_l_is_kept(self):
        # e(x1) = e(x2) = x2 x1 x2^-1, so L(x1) = L(x2) = that word, the
        # third raw trace term of the class; x1 and x2 are two steps
        # apart, and the third term joins both only through the map of
        # L(t), which must keep both earlier terms under one key
        e = FreeGroupEndo(3, (W(3, 2, 1, -2), W(3, 2, 1, -2), W(3, 1, 3, -1)))
        a, b, c = W(3, 1), W(3, 2), W(3, 2, 1, -2)
        assert reidemeister_trace_raw(e) == {a: -1, b: -1, c: 1}
        assert pairwise_search(e, a, c, 1) == (-1,)
        assert pairwise_search(e, b, c, 1) == (-2,)
        assert pairwise_search(e, a, b, 1) is None
        assert (refine_decomposition(e, standard_cycle(4), 1)
                == (((1,), (((a, b, c), -1),)),))

    def test_orbit_ball_cap_raises(self, monkeypatch):
        # classes of three, two and one terms
        b = parse_braid("d=5; s1 s2^-1 s3 s4")
        e = artin_endo(b)
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", 1000)
        sigma = induced_permutation(b)
        with pytest.raises(RefinementLimitError, match="ORBIT_BALL_CAP = 1000"):
            refine_decomposition(e, sigma, 8)
        refine_decomposition(e, sigma, 2)  # far below the cap

    def test_odd_depths_count_one_twist_per_boundary_element(
            self, monkeypatch):
        # at depth 5 probing the 2n twists of each boundary element would
        # count past a cap of 1000; at most one L(t) per element stays
        # below it, and the clusters are exact
        b = parse_braid("d=5; s1 s2^-1 s3 s4")
        e = artin_endo(b)
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", 1000)
        assert probed_shell_count(e, 5) > 1000
        assert (refine_decomposition(e, induced_permutation(b), 5)
                == pairwise_clusters(e, 5, meet_in_the_middle))

    def test_orbit_ball_cap_counts_each_class_apart(self, monkeypatch):
        # each word has two classes of two or more terms (two and three
        # terms, then two and two): a cap that holds the larger class's
        # balls holds each class, though not both together
        orbit_ball = nielsen._orbit_ball
        for word, classes in (("d=3; s1 s1 s1 s2", 3),
                              ("d=4; s1 s2^-1 s3 s3 s3", 4)):
            b = parse_braid(word)
            e, sigma = artin_endo(b), induced_permutation(b)
            sizes = Counter()

            def counted(g, *args):
                ball, size = orbit_ball(g, *args)
                sizes[exponent_class(g, b.d)] += size
                return ball, size

            monkeypatch.setattr(nielsen, "_orbit_ball", counted)
            monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", ORBIT_BALL_CAP)
            expected = refine_decomposition(e, sigma, 2)
            cap = max(sizes.values())
            assert len(expected) == classes and len(sizes) == 2
            assert cap < sum(sizes.values())
            monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", cap)
            assert refine_decomposition(e, sigma, 2) == expected
        assert cap == 18
        # depth 3 builds the same radius 1 balls, and the L(t) computed
        # for their boundary elements count too
        with pytest.raises(RefinementLimitError, match="ball radius 2"):
            refine_decomposition(e, sigma, 3)

    def test_the_cap_counts_no_l_a_ball_holds(self, monkeypatch):
        # a boundary element whose first letter is its conjugator's has
        # the element before it as its L(t) and counts nothing more: at
        # depth 3 this word needs a cap of 22, not the 31 that counting
        # every boundary element's L(t) would take, and the capped
        # clusters are the uncapped ones
        b = parse_braid("d=3; s1 s1 s1 s2")
        e, sigma = artin_endo(b), induced_permutation(b)
        expected = refine_decomposition(e, sigma, 3)
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", 22)
        assert refine_decomposition(e, sigma, 3) == expected
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", 21)
        with pytest.raises(RefinementLimitError, match="ball radius 2"):
            refine_decomposition(e, sigma, 3)

    def test_depth_zero_keeps_terms_separate(self):
        b = parse_braid("d=3; s1 s2")
        refined = refine_decomposition(artin_endo(b), induced_permutation(b), 0)
        assert len(refined) == 2
        assert all(len(clusters) == 1 for _, clusters in refined)

    def test_depth_zero_lists_the_word_level_trace_by_exponent_sum(self):
        # refinement sums the scan's terms itself; at depth 0 it must list
        # each nonzero term of reidemeister_trace_raw alone, under its
        # exponent sum mod d, in (length, letters) order, so a label whose
        # terms all cancel is absent
        rng = random.Random(419)
        braids = [*transitive_golden_braids("golden_words.txt",
                                            "golden_words_depth3.txt")]
        for b in sampled_transitive_braids():
            braids.append(b)
            g = random_braid_word(rng, b.d, max_len=6)
            conj = braid_product(g, b, braid_inverse(g))
            if not induced_permutation(conj).is_standard_cycle():
                braids.append(conj)
        cancelled = 0
        for b in braids:
            e, sigma = artin_endo(b), induced_permutation(b)
            labels = {}
            for w, c in sorted(reidemeister_trace_raw(e).items(),
                               key=lambda t: (len(t[0]), t[0].letters)):
                labels.setdefault((exponent_class(w.letters, b.d),),
                                  []).append(((w,), c))
            assert (refine_decomposition(e, sigma, 0)
                    == tuple(sorted((k, tuple(v)) for k, v in labels.items()))
                    ), b.to_text()
            cancelled += len(labels) < len(
                {s % b.d for *_, s in nielsen._trace_terms(e)})
        assert len(braids) > 1000 and cancelled >= 50

    def test_negative_depth_rejected(self):
        # only a non-bool int >= 0 is a depth; True would print as a
        # depth of true, which the report schema rejects
        b = parse_braid("d=3; s1 s2")
        # a depth past the interpreter's limit on the digits it converts
        # to text is shown by its leading digits
        for depth, shown in ((-1, "-1"), (True, "True"), (2.0, "2.0"),
                             ("2", "'2'"), (None, "None"),
                             (-10**5000, "-1000000...")):
            match = re.escape(f"refine depth must be an int >= 0, got {shown}")
            with pytest.raises(ValueError, match=match + "$"):
                refine_decomposition(artin_endo(b), induced_permutation(b),
                                     depth)
            for word in ("d=3; s1 s2", "d=3; s1"):
                with pytest.raises(ValueError, match=match + "$"):
                    build_report(word, refine_depth=depth)

"""Reidemeister traces, homological Nielsen class indices, and the fixed
point lower bound.

Calibration values are frozen from the two rotation models: the degree-2
monodromy is the half-turn of the sphere (two fixed points of index +1 in
distinct classes), the standard degree-3 monodromy is the one-third turn
(two index +1 classes and one empty class)."""

import random

import pytest

from braidfloer import nielsen
from braidfloer.braids import (ARTIN, BraidLetter, BraidWord, Permutation,
                               induced_permutation, parse_braid)
from braidfloer.freegroup import (FreeGroupEndo, FreeWord, _inverse, _reduce,
                                  artin_endo)
from braidfloer.nielsen import (ENUMERATION_CAP, ORBIT_BALL_CAP,
                                NielsenDecomposition,
                                RefinementLimitError, _orbit_ball,
                                _twist_steps, class_space, lefschetz_number,
                                nielsen_decomposition, refine_decomposition,
                                reidemeister_trace_raw)
from braidfloer.report import build_report
from braidfloer.snf import AbelianGroup

import _oracles
from _samplers import random_braid_word, random_free_word, random_transitive_braid


def W(rank, *letters):
    return FreeWord.from_letters(rank, letters)


def decompose(b):
    """The decomposition of braid b, which must induce one d-cycle."""
    return nielsen_decomposition(artin_endo(b), induced_permutation(b))


def order_index_multiset(nd):
    """Sorted (element order, index) pairs; invariant under conjugation.

    Zero indices are dropped so the multiset does not depend on whether
    enumeration was possible.
    """
    return tuple(sorted((nd.element_order(label), c)
                        for label, c in nd.entries if c != 0))


def pairwise_search(e, g, h, depth):
    """Reference: breadth first from g alone, out to the full depth, until
    h turns up; the letter tuple of a conjugator, or None."""
    g, h = g.letters, h.letters
    if g == h:
        return ()
    steps = [(s, _inverse(image.letters) if s > 0 else image.letters)
             for j, image in enumerate(e.images, start=1) for s in (j, -j)]
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
    return u * g * _oracles.substitute(u, e.images).inverse()


def pairwise_clusters(e, depth):
    """Reference refinement: project every term of the Fox-derivative
    trace, then one full-depth search per pair of terms of a class;
    (label, clusters) per class."""
    cs = class_space(e)
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

        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if find(i) != find(j) and pairwise_search(
                        e, members[i][0], members[j][0], depth) is not None:
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
    order = cs.group().order()
    if order <= ENUMERATION_CAP:
        for k in range(order):
            totals.setdefault((k,), 0)
    else:
        totals = {label: c for label, c in totals.items() if c}
    return tuple(sorted(totals.items()))


def squares_braid(rng, d, max_len=6):
    """A word of squared Artin letters: a pure braid, whose class space
    coker(I - A) = coker(0) is infinite."""
    letters = []
    for _ in range(rng.randint(1, max_len)):
        x = BraidLetter(ARTIN, rng.randint(1, d - 1), rng.choice((1, -1)))
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
        assert cs.group() == AbelianGroup(0, (2,))
        nd = nielsen_decomposition(e, induced_permutation(b))
        assert nd.complete
        assert nd.entries == (((0,), 1), ((1,), 1))
        assert nd.bound() == 2
        assert reidemeister_trace_raw(e) == {W(1): 1, W(1, -1): 1}

    def test_three_strand_third_turn(self):
        b = parse_braid("d=3; s1 s2")
        e = artin_endo(b)
        assert lefschetz_number(e) == 2
        cs = class_space(e)
        assert cs.group() == AbelianGroup(0, (3,))
        nd = nielsen_decomposition(e, induced_permutation(b))
        assert nd.complete
        assert sorted(index for _, index in nd.entries) == [0, 1, 1]
        assert nd.bound() == 2
        assert reidemeister_trace_raw(e) == {W(2, 1, 2, -1): 1, W(2, 1, -2): 1}

    def test_identity_endomorphism_family(self):
        for n in range(1, 8):
            e = FreeGroupEndo.identity(n)
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
            assert (sum(nd.indices().values()) == nd.lefschetz
                    == lefschetz_number(artin_endo(b)) == 2)

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
            assert class_space(artin_endo(b)).group() == AbelianGroup(0, (d,))

    def test_bound_dominates_lefschetz_with_matching_parity(self):
        rng = random.Random(101)
        for _ in range(200):
            d = rng.randint(2, 6)
            nd = decompose(random_transitive_braid(rng, d))
            assert nd.bound() >= abs(nd.lefschetz)
            assert (nd.bound() - nd.lefschetz) % 2 == 0

    def test_conjugation_invariance(self):
        rng = random.Random(103)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            g = random_braid_word(rng, d, max_len=6)
            nd = decompose(b)
            nd_c = decompose(g.compose(b.compose(g.inverse())))
            assert nd.lefschetz == nd_c.lefschetz
            assert nd.bound() == nd_c.bound()
            assert order_index_multiset(nd) == order_index_multiset(nd_c)

    def test_inversion_symmetry(self):
        rng = random.Random(107)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            nd = decompose(b)
            nd_i = decompose(b.inverse())
            assert nd.lefschetz == nd_i.lefschetz
            assert nd.bound() == nd_i.bound()

    def test_entries_are_sorted_and_complete_when_small(self):
        nd = decompose(parse_braid("d=4; s1 s2 s3"))
        labels = [label for label, _ in nd.entries]
        assert labels == sorted(labels)
        assert len(labels) == 4
        assert nd.complete

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
            assert nd.entries == projected_entries(e), b.to_text()
            assert nd.lefschetz == lefschetz_number(e)
            standard += 1
            g = random_braid_word(rng, b.d, max_len=6)
            conj = g.compose(b.compose(g.inverse()))
            if induced_permutation(conj).is_standard_cycle():
                continue
            e = artin_endo(conj)
            reference = NielsenDecomposition(
                d=b.d, entries=projected_entries(e),
                lefschetz=lefschetz_number(e), complete=True)
            assert (order_index_multiset(decompose(conj))
                    == order_index_multiset(reference)), conj.to_text()
            conjugated += 1
        assert standard >= 180 and conjugated >= 100

    def test_precondition_is_one_cycle_of_degree_rank_plus_one(self):
        e = artin_endo(parse_braid("d=4; s1 s2 s3"))
        for sigma in (Permutation((1, 2, 3, 4)), Permutation((2, 1, 4, 3)),
                      Permutation((2, 3, 1)), Permutation((2, 3, 4, 5, 1))):
            with pytest.raises(ValueError):
                nielsen_decomposition(e, sigma)
        with pytest.raises(ValueError):
            nielsen_decomposition(FreeGroupEndo.identity(0), Permutation((1,)))
        # any 4-cycle will do, not only the standard one
        assert nielsen_decomposition(e, Permutation((3, 4, 2, 1))).d == 4

    def test_past_the_enumeration_cap_only_nonzero_classes(self):
        d = ENUMERATION_CAP + 1
        for signs in ((1,) * (d - 1), (1, -1) * (d // 2)):
            b = BraidWord.from_letters(
                d, (BraidLetter(ARTIN, i, s)
                    for i, s in enumerate(signs, start=1)))
            e = artin_endo(b)
            nd = decompose(b)
            assert not nd.complete
            assert all(c != 0 for _, c in nd.entries)
            assert nd.entries == projected_entries(e)
            assert sum(nd.indices().values()) == nd.lefschetz == 2

    def test_raw_trace_matches_the_fox_derivatives(self):
        for b in mixed_words():
            e = artin_endo(b)
            assert (reidemeister_trace_raw(e)
                    == _oracles.reidemeister_trace_raw(e)), b.to_text()

    def test_decomposition_validates_its_sum(self):
        with pytest.raises(ValueError):
            NielsenDecomposition(d=2, entries=(((0,), 1),),
                                 lefschetz=2, complete=True)


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
                    d, (BraidLetter(ARTIN, i, s)
                        for i, s in enumerate(signs, start=1)))
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
                refined = refine_decomposition(e, decompose(b), depth)
                seen = {}
                for rc in refined:
                    for words, coeff in rc.clusters:
                        assert words
                        for w in words:
                            assert cs.project(w.exponent_vector()) == rc.label
                        seen[rc.label] = seen.get(rc.label, 0) + coeff
                totals = {}
                for w, c in raw.items():
                    label = cs.project(w.exponent_vector())
                    totals[label] = totals.get(label, 0) + c
                assert seen == totals

    def test_same_clusters_as_the_pairwise_search(self):
        rng = random.Random(131)
        merged = 0
        for k in range(500):
            d = rng.randint(2, 7)
            b = random_transitive_braid(rng, d, max_len=14)
            e = artin_endo(b)
            depth = k % 5
            refined = refine_decomposition(e, decompose(b), depth)
            clusters = tuple((rc.label, rc.clusters) for rc in refined)
            assert clusters == pairwise_clusters(e, depth)
            merged += any(len(words) > 1
                          for rc in refined for words, _ in rc.clusters)
        assert merged >= 20  # the merges themselves are compared, too

    def test_generator_images_are_read_once(self, monkeypatch):
        # six raw terms, and one ball per term; the twisted-conjugation
        # steps are read off the images once for all of them
        b = parse_braid("d=4; s1 s2^-1 s3 s1 s2")
        e = artin_endo(b)
        nd = decompose(b)
        calls = []
        twist_steps = nielsen._twist_steps
        monkeypatch.setattr(nielsen, "_twist_steps",
                            lambda e: calls.append(e) or twist_steps(e))
        refine_decomposition(e, nd, 3)
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

    def test_orbit_ball_cap_raises(self, monkeypatch):
        b = parse_braid("d=5; s1 s2 s3 s4")
        e = artin_endo(b)
        nd = decompose(b)
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", 1000)
        with pytest.raises(RefinementLimitError, match="ORBIT_BALL_CAP = 1000"):
            refine_decomposition(e, nd, 8)
        refine_decomposition(e, nd, 2)  # far below the cap

    def test_orbit_ball_cap_counts_each_class_apart(self, monkeypatch):
        # two classes of one term each: a cap that holds the larger of
        # their balls holds each class, though not both together
        b = parse_braid("d=4; s1 s2 s3")
        e = artin_endo(b)
        nd = decompose(b)
        sizes = []
        orbit_ball = nielsen._orbit_ball

        def counted(*args):
            ball, size = orbit_ball(*args)
            sizes.append(size)
            return ball, size

        monkeypatch.setattr(nielsen, "_orbit_ball", counted)
        expected = refine_decomposition(e, nd, 2)
        assert len(expected) == len(sizes) == 2
        assert max(sizes) < sum(sizes)
        monkeypatch.setattr(nielsen, "ORBIT_BALL_CAP", max(sizes))
        assert refine_decomposition(e, nd, 2) == expected

    def test_depth_zero_keeps_terms_separate(self):
        b = parse_braid("d=3; s1 s2")
        refined = refine_decomposition(artin_endo(b), decompose(b), 0)
        assert len(refined) == 2
        assert all(len(rc.clusters) == 1 for rc in refined)

    def test_negative_depth_rejected(self):
        # only a non-bool int >= 0 is a depth; True would print as a
        # depth of true, which the report schema rejects
        b = parse_braid("d=3; s1 s2")
        for depth in (-1, True, 2.0, "2", None):
            with pytest.raises(ValueError, match="refine depth"):
                refine_decomposition(artin_endo(b), decompose(b), depth)
            for word in ("d=3; s1 s2", "d=3; s1"):
                with pytest.raises(ValueError, match="refine depth"):
                    build_report(word, refine_depth=depth)

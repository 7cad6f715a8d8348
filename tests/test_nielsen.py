"""Reidemeister traces, homological Nielsen class indices, and the fixed
point lower bound.

Calibration values are frozen from the two rotation models: the degree-2
monodromy is the half-turn of the sphere (two fixed points of index +1 in
distinct classes), the standard degree-3 monodromy is the one-third turn
(two index +1 classes and one empty class)."""

import random

import pytest

from braidfloer.braids import compose, induced_permutation, invert, parse_braid
from braidfloer.freegroup import (FreeGroupEndo, FreeWord, GroupRingElement,
                                  artin_endo)
from braidfloer.nielsen import (NielsenDecomposition, class_space,
                                lefschetz_number, nielsen_bound,
                                nielsen_decomposition, refine_decomposition,
                                reidemeister_trace, reidemeister_trace_raw,
                                twisted_conjugacy_search)
from braidfloer.snf import AbelianGroup

from _samplers import random_braid_word, random_free_word, random_transitive_braid


def W(rank, *letters):
    return FreeWord.from_letters(rank, letters)


class TestCalibrations:
    def test_two_strand_half_turn(self):
        e = artin_endo(parse_braid("d=2; s1"))
        assert lefschetz_number(e) == 2
        cs = class_space(e)
        assert cs.group() == AbelianGroup(0, (2,))
        nd = nielsen_decomposition(e)
        assert nd.complete
        assert nd.entries == (((0,), 1), ((1,), 1))
        assert nd.bound() == 2
        raw = reidemeister_trace_raw(e)
        assert raw == (GroupRingElement.one(1)
                       + GroupRingElement.from_word(W(1, -1)))

    def test_three_strand_third_turn(self):
        e = artin_endo(parse_braid("d=3; s1 s2"))
        assert lefschetz_number(e) == 2
        cs = class_space(e)
        assert cs.group() == AbelianGroup(0, (3,))
        nd = nielsen_decomposition(e)
        assert nd.complete
        assert sorted(index for _, index in nd.entries) == [0, 1, 1]
        assert nd.bound() == 2
        raw = reidemeister_trace_raw(e)
        assert raw == (GroupRingElement.from_word(W(2, 1, 2, -1))
                       + GroupRingElement.from_word(W(2, 1, -2)))

    def test_identity_endomorphism_family(self):
        for n in range(1, 8):
            e = FreeGroupEndo.identity(n)
            assert lefschetz_number(e) == 1 - n
            raw = reidemeister_trace_raw(e)
            assert raw == (1 - n) * GroupRingElement.one(n)
            nd = nielsen_decomposition(e)
            assert not nd.complete
            assert nd.bound() == n - 1
            assert nielsen_bound(e) == n - 1


class TestDecomposition:
    def test_indices_sum_to_lefschetz(self):
        rng = random.Random(83)
        for _ in range(200):
            d = rng.randint(2, 6)
            e = artin_endo(random_braid_word(rng, d))
            nd = nielsen_decomposition(e)
            assert sum(nd.indices().values()) == nd.lefschetz == lefschetz_number(e)

    def test_lefschetz_agrees_with_fixed_point_count(self):
        rng = random.Random(89)
        for _ in range(200):
            d = rng.randint(2, 6)
            b = random_braid_word(rng, d)
            sigma = induced_permutation(b)
            assert lefschetz_number(artin_endo(b)) == 2 - sigma.fixed_point_count()

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
            e = artin_endo(random_braid_word(rng, d))
            nd = nielsen_decomposition(e)
            assert nd.bound() >= abs(nd.lefschetz)
            assert (nd.bound() - nd.lefschetz) % 2 == 0

    def test_conjugation_invariance(self):
        rng = random.Random(103)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            g = random_braid_word(rng, d, max_len=6)
            conj = compose(g, compose(b, invert(g)))
            nd = nielsen_decomposition(artin_endo(b))
            nd_c = nielsen_decomposition(artin_endo(conj))
            assert nd.lefschetz == nd_c.lefschetz
            assert nd.bound() == nd_c.bound()
            assert nd.order_index_multiset() == nd_c.order_index_multiset()

    def test_inversion_symmetry(self):
        rng = random.Random(107)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            nd = nielsen_decomposition(artin_endo(b))
            nd_i = nielsen_decomposition(artin_endo(invert(b)))
            assert nd.lefschetz == nd_i.lefschetz
            assert nd.bound() == nd_i.bound()

    def test_entries_are_sorted_and_complete_when_small(self):
        nd = nielsen_decomposition(artin_endo(parse_braid("d=4; s1 s2 s3")))
        labels = [label for label, _ in nd.entries]
        assert labels == sorted(labels)
        assert len(labels) == 4
        assert nd.complete

    def test_decomposition_validates_its_sum(self):
        e = artin_endo(parse_braid("d=2; s1"))
        with pytest.raises(ValueError):
            NielsenDecomposition(space=class_space(e),
                                 raw=reidemeister_trace_raw(e),
                                 entries=(((0,), 1),),
                                 lefschetz=2, complete=True)


class TestTraceRepresentatives:
    def test_canonical_trace_matches_class_indices(self):
        rng = random.Random(109)
        for _ in range(60):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            e = artin_endo(b)
            nd = nielsen_decomposition(e)
            cs = nd.space
            canonical = reidemeister_trace(e)
            by_label = {cs.project(w.exponent_vector()): c
                        for w, c in canonical.items()}
            expected = {label: c for label, c in nd.entries if c != 0}
            assert by_label == expected


class TestTwistedConjugacy:
    def test_finds_explicit_conjugators(self):
        rng = random.Random(113)
        found = 0
        for _ in range(60):
            d = rng.randint(2, 4)
            e = artin_endo(random_braid_word(rng, d, max_len=6))
            g = random_free_word(rng, d - 1, 4)
            s = random_free_word(rng, d - 1, 2)
            h = s * g * e.apply(s).inverse()
            witness = twisted_conjugacy_search(e, g, h, depth=3)
            if witness is None:
                continue  # shallow search may miss long conjugators
            assert witness * g * e.apply(witness).inverse() == h
            found += 1
        assert found >= 30

    def test_distinct_homological_classes_never_merge(self):
        e = artin_endo(parse_braid("d=3; s1 s2"))
        g = W(2, 1, 2, -1)   # class of label 1
        h = W(2, 1, -2)      # class of label 0
        assert twisted_conjugacy_search(e, g, h, depth=3) is None

    def test_reflexive(self):
        e = artin_endo(parse_braid("d=3; s1 s2"))
        g = W(2, 1, 2, -1)
        witness = twisted_conjugacy_search(e, g, g, depth=1)
        assert witness is not None
        assert witness * g * e.apply(witness).inverse() == g


class TestRefinement:
    def test_partition_respects_homology_and_indices(self):
        rng = random.Random(127)
        for _ in range(40):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            e = artin_endo(b)
            cs = class_space(e)
            raw = reidemeister_trace_raw(e)
            for depth in (0, 2):
                refined = refine_decomposition(e, nielsen_decomposition(e),
                                               depth)
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

    def test_depth_zero_keeps_terms_separate(self):
        e = artin_endo(parse_braid("d=3; s1 s2"))
        refined = refine_decomposition(e, nielsen_decomposition(e), 0)
        assert len(refined) == 2
        assert all(len(rc.clusters) == 1 for rc in refined)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            e = FreeGroupEndo.identity(2)
            refine_decomposition(e, nielsen_decomposition(e), -1)

"""Floer dimension bounds, the torus suspension, and fiber-sum
dimension predictions."""

import random

import pytest

from braidfloer.braids import parse_braid
from braidfloer.floer import (FloerDims, dims_lower_bound, predict_fiber_sum,
                              suspend_dims)
from braidfloer.freegroup import FreeGroupEndo, artin_endo
from braidfloer.nielsen import nielsen_decomposition

from _samplers import random_braid_word, random_transitive_braid


def _nd(text):
    return nielsen_decomposition(artin_endo(parse_braid(text)))


class TestFloerDims:
    def test_totals(self):
        f = FloerDims(even=3, odd=1, exact=False)
        assert f.total() == 4
        assert f.euler() == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FloerDims(even=-1, odd=0, exact=False)

    def test_lower_bound_splits_by_index_sign(self):
        nd = _nd("d=2; s1")
        f = dims_lower_bound(nd)
        assert (f.even, f.odd, f.exact) == (2, 0, False)
        assert f.euler() == nd.lefschetz

    def test_lower_bound_euler_is_lefschetz(self):
        rng = random.Random(131)
        for _ in range(150):
            d = rng.randint(2, 6)
            nd = nielsen_decomposition(artin_endo(random_braid_word(rng, d)))
            f = dims_lower_bound(nd)
            assert f.euler() == nd.lefschetz
            assert f.total() == nd.bound()
            assert not f.exact


class TestSuspension:
    def test_doubles_into_both_parities(self):
        assert suspend_dims(FloerDims(2, 0, False)) == FloerDims(4, 4, False)
        assert suspend_dims(FloerDims(1, 1, True)) == FloerDims(4, 4, True)
        assert suspend_dims(FloerDims(0, 0, False)) == FloerDims(0, 0, False)

    def test_euler_vanishes_and_additivity(self):
        rng = random.Random(137)
        for _ in range(300):
            a = FloerDims(rng.randint(0, 9), rng.randint(0, 9), False)
            b = FloerDims(rng.randint(0, 9), rng.randint(0, 9), False)
            sa, sb = suspend_dims(a), suspend_dims(b)
            assert sa.euler() == 0
            both = FloerDims(a.even + b.even, a.odd + b.odd, False)
            s_both = suspend_dims(both)
            assert (s_both.even, s_both.odd) == (sa.even + sb.even,
                                                 sa.odd + sb.odd)


class TestFiberSumPrediction:
    def test_two_strand_figures(self):
        p = predict_fiber_sum(_nd("d=2; s1"), 2)
        assert p.summand == FloerDims(4, 4, False)
        assert p.summand_total == 8
        assert p.total == 16
        assert p.zero_torsion_multiples == ()
        assert (p.flux_class, p.summand_class) == ("a1", "l2")
        assert not p.exact

    def test_three_strand_figures(self):
        p = predict_fiber_sum(_nd("d=3; s1 s2"), 3)
        assert p.summand_total == 8
        assert p.total == 16
        assert p.zero_torsion_multiples == (2,)

    def test_scaling_in_the_bound(self):
        rng = random.Random(139)
        for _ in range(60):
            d = rng.randint(2, 6)
            nd = nielsen_decomposition(artin_endo(random_transitive_braid(rng, d)))
            p = predict_fiber_sum(nd, d)
            assert p.summand_total == 4 * nd.bound()
            assert p.total == 8 * nd.bound()
            assert p.total == 2 * p.summand_total
            assert p.zero_torsion_multiples == tuple(range(2, d))

    def test_exact_flag_never_self_upgrades(self):
        p = predict_fiber_sum(_nd("d=3; s1 s2"), 3)
        assert not p.exact
        assert not p.summand.exact

    def test_rejects_infinite_class_space(self):
        e = FreeGroupEndo.identity(2)
        with pytest.raises(ValueError):
            predict_fiber_sum(nielsen_decomposition(e), 3)

    def test_rejects_bad_strand_count(self):
        with pytest.raises(ValueError):
            predict_fiber_sum(_nd("d=2; s1"), 1)

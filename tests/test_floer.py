"""Floer dimension bounds, the torus suspension, and fiber-sum
dimension predictions."""

import random

import pytest

from braidfloer.braids import induced_permutation, parse_braid
from braidfloer.floer import (FloerDims, dims_lower_bound, predict_fiber_sum,
                              suspend_dims)
from braidfloer.freegroup import artin_endo
from braidfloer.nielsen import nielsen_decomposition

from _samplers import random_transitive_braid


def _nd(b):
    return nielsen_decomposition(artin_endo(b), induced_permutation(b))


class TestFloerDims:
    def test_totals(self):
        f = FloerDims(even=3, odd=1)
        assert f.total() == 4
        assert f.euler() == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FloerDims(even=-1, odd=0)

    def test_lower_bound_splits_by_index_sign(self):
        nd = _nd(parse_braid("d=2; s1"))
        f = dims_lower_bound(nd)
        assert (f.even, f.odd) == (2, 0)
        assert f.euler() == nd.lefschetz

    def test_lower_bound_euler_is_lefschetz(self):
        rng = random.Random(131)
        for _ in range(150):
            d = rng.randint(2, 6)
            nd = _nd(random_transitive_braid(rng, d))
            f = dims_lower_bound(nd)
            assert f.euler() == nd.lefschetz
            assert f.total() == nd.bound()


class TestSuspension:
    def test_doubles_into_both_parities(self):
        assert suspend_dims(FloerDims(2, 0)) == FloerDims(4, 4)
        assert suspend_dims(FloerDims(0, 0)) == FloerDims(0, 0)

    def test_euler_vanishes_and_additivity(self):
        rng = random.Random(137)
        for _ in range(300):
            a = FloerDims(rng.randint(0, 9), rng.randint(0, 9))
            b = FloerDims(rng.randint(0, 9), rng.randint(0, 9))
            sa, sb = suspend_dims(a), suspend_dims(b)
            assert sa.euler() == 0
            both = FloerDims(a.even + b.even, a.odd + b.odd)
            s_both = suspend_dims(both)
            assert (s_both.even, s_both.odd) == (sa.even + sb.even,
                                                 sa.odd + sb.odd)


class TestFiberSumPrediction:
    def test_two_strand_figures(self):
        p = predict_fiber_sum(_nd(parse_braid("d=2; s1")))
        assert p.summand == FloerDims(4, 4)
        assert p.summand_total == 8
        assert p.total == 16
        assert p.zero_torsion_multiples == ()
        assert (p.flux_class, p.summand_class) == ("a1", "l2")

    def test_three_strand_figures(self):
        p = predict_fiber_sum(_nd(parse_braid("d=3; s1 s2")))
        assert p.summand_total == 8
        assert p.total == 16
        assert p.zero_torsion_multiples == (2,)

    def test_scaling_in_the_bound(self):
        rng = random.Random(139)
        for _ in range(60):
            d = rng.randint(2, 6)
            nd = _nd(random_transitive_braid(rng, d))
            p = predict_fiber_sum(nd)
            assert p.summand_total == 4 * nd.bound()
            assert p.total == 8 * nd.bound()
            assert p.total == 2 * p.summand_total
            assert p.zero_torsion_multiples == tuple(range(2, d))

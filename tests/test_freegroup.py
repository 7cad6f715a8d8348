"""Free group words, the braid action on the punctured-sphere group, and
the Fox calculus of the test oracles."""

import random

import pytest

from braidfloer.braids import induced_permutation, parse_braid
from braidfloer.freegroup import (FreeGroupEndo, FreeWord, _concat, _inverse,
                                  _reduce, artin_disc_endo, artin_endo)
from braidfloer.nielsen import _identity_minus_action

from _oracles import (IntMatrix, abelianization_matrix, compose, det,
                      fox_derivative, ring_add, ring_mul, substitute)
from _samplers import random_braid_word, random_free_word


def W(rank, *letters):
    return FreeWord.from_letters(rank, letters)


class TestFreeWord:
    def test_reduction(self):
        assert W(2, 1, 2, -2, -1, 2).letters == (2,)
        assert W(2, 1, -1).is_identity()
        assert FreeWord.identity(3) == W(3)

    def test_validation(self):
        unreduced = "^letters are not freely reduced; use from_letters$"
        with pytest.raises(ValueError, match=unreduced):
            FreeWord(2, (1, -1))
        with pytest.raises(ValueError, match=unreduced):
            FreeWord(2, (1, 2, 1, 2, -2))  # the pair at the end
        with pytest.raises(ValueError, match="^letter 3 out of range for rank 2$"):
            FreeWord(2, (3,))
        with pytest.raises(ValueError, match="^letter -3 out of range for rank 2$"):
            FreeWord(2, (1, -3))  # below -rank
        with pytest.raises(ValueError, match="^letter 0 out of range for rank 2$"):
            FreeWord(2, (0,))
        # both faults: the range check comes first and names the first
        # bad letter
        with pytest.raises(ValueError, match="^letter -4 out of range for rank 2$"):
            FreeWord(2, (1, -1, 2, -4, 3))
        with pytest.raises(ValueError, match="^negative rank$"):
            FreeWord(-1, ())

    def test_concat_cancels_only_at_the_junction(self):
        assert _concat((), ()) == ()
        assert _concat((1, 2), ()) == (1, 2)
        assert _concat((), (-2, 1)) == (-2, 1)
        rng = random.Random(173)
        for _ in range(2000):
            rank = rng.randint(1, 3)
            u = random_free_word(rng, rank).letters
            v = random_free_word(rng, rank).letters
            kind = rng.random()
            if kind < 0.2:  # full cancellation
                v = _inverse(u)
            elif kind < 0.6:  # partial overlap: v starts by undoing u's end
                v = _reduce(_inverse(u[rng.randint(0, len(u)):]) + v)
            assert _concat(u, v) == _reduce(u + v)

    def test_group_laws(self):
        rng = random.Random(3)
        for k in range(300):
            rank = rng.randint(1, 4)
            u = random_free_word(rng, rank)
            v = random_free_word(rng, rank)
            w = random_free_word(rng, rank)
            if k % 3 == 1:  # v starts by undoing the end of u
                v = W(rank, *_inverse(u.letters[rng.randint(0, len(u)):]),
                      *v.letters)
            elif k % 3 == 2:
                v = u.inverse()
            assert u * v == W(rank, *u.letters, *v.letters)
            assert (u * v) * w == u * (v * w)
            assert (u * v) * v.inverse() == u
            assert (u * u.inverse()).is_identity()
            assert (u * v).inverse() == v.inverse() * u.inverse()

    def test_exponent_vector(self):
        assert W(3, 1, 2, 1, -3, -2, 1).exponent_vector() == (3, 0, -1)
        assert FreeWord.identity(3).exponent_vector() == (0, 0, 0)

    def test_cyclic_reduction(self):
        assert W(2, 1, 2, 2, -1).cyclically_reduced().letters == (2, 2)
        assert W(2, 1, 2, -1).cyclically_reduced().letters == (2,)
        assert W(2, 2, 1).cyclically_reduced().letters == (2, 1)

    def test_to_text(self):
        assert FreeWord.identity(2).to_text() == "1"
        assert W(2, 1, -2).to_text() == "x1 x2^-1"
        assert W(2, 1, -2).to_text(("a", "b")) == "a b^-1"

    def test_generator(self):
        assert FreeWord.generator(3, 2) == W(3, 2)
        assert FreeWord.generator(3, 2, -1) == W(3, -2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            W(2, 1) * W(3, 1)

    def test_substitute(self):
        # the oracle; x1 -> a b, x2 -> b^-1 in rank 2
        images = (W(2, 1, 2), W(2, -2))
        assert substitute(W(2, 1, 2), images) == W(2, 1)
        assert substitute(FreeWord.identity(2), images).is_identity()


ONE = FreeWord.identity(2)


class TestGroupRing:
    """The oracles' group ring Z[F], dicts from word to coefficient."""

    def test_zero_and_one(self):
        one = {ONE: 1}
        assert ring_add(one, {}) == one
        assert ring_add(one, {ONE: -1}) == {}
        assert ring_mul(one, {W(2, 1): 3}) == {W(2, 1): 3}
        assert ring_mul({}, one) == {}

    def test_ring_laws(self):
        rng = random.Random(7)
        for _ in range(100):
            rank = rng.randint(1, 3)
            def rnd():
                return ring_add(*({random_free_word(rng, rank, 4):
                                   rng.randint(-3, 3)}
                                  for _ in range(rng.randint(0, 3))))
            a, b, c = rnd(), rnd(), rnd()
            assert ring_mul(ring_add(a, b), c) == ring_add(ring_mul(a, c),
                                                           ring_mul(b, c))
            assert ring_mul(a, ring_add(b, c)) == ring_add(ring_mul(a, b),
                                                           ring_mul(a, c))
            assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
            assert (sum(ring_mul(a, b).values())
                    == sum(a.values()) * sum(b.values()))

    def test_word_lift_multiplication(self):
        left = ring_mul({W(2, 1): 1}, {W(2, 2): 1, ONE: 1})
        assert left == {W(2, 1, 2): 1, W(2, 1): 1}
        assert ring_mul({W(2, 1): 1}, {W(2, -1, 2): 1}) == {W(2, 2): 1}

    def test_zero_coefficients_dropped(self):
        a = {W(2, 1): 1}
        assert ring_add(a, {W(2, 1): -1}) == {}
        assert ring_mul({W(2, 1): 1, W(2, 2): 1}, {W(2, -1): 1, W(2, -2): -1}) == {
            W(2, 1, -2): -1, W(2, 2, -1): 1}


class TestFoxCalculus:
    """The oracles' Fox derivative, which the raw trace is tested
    against (tests/test_nielsen.py)."""

    def test_base_cases(self):
        x1 = W(2, 1)
        assert fox_derivative(x1, 1) == {ONE: 1}
        assert fox_derivative(x1, 2) == {}
        inv = W(2, -1)
        assert fox_derivative(inv, 1) == {inv: -1}
        assert fox_derivative(ONE, 1) == {}

    def test_out_of_range_generator(self):
        with pytest.raises(IndexError):
            fox_derivative(W(2, 1), 3)
        with pytest.raises(IndexError):
            fox_derivative(W(2, 1), 0)

    def test_product_rule(self):
        rng = random.Random(23)
        for _ in range(300):
            rank = rng.randint(1, 4)
            u = random_free_word(rng, rank)
            v = random_free_word(rng, rank)
            j = rng.randint(1, rank)
            assert fox_derivative(u * v, j) == ring_add(
                fox_derivative(u, j), ring_mul({u: 1}, fox_derivative(v, j)))

    def test_fundamental_identity(self):
        # sum_j dw/dxj (xj - 1) = w - 1
        rng = random.Random(29)
        for _ in range(300):
            rank = rng.randint(1, 4)
            w = random_free_word(rng, rank)
            one = FreeWord.identity(rank)
            acc = ring_add(*(
                ring_mul(fox_derivative(w, j),
                         ring_add({FreeWord.generator(rank, j): 1}, {one: -1}))
                for j in range(1, rank + 1)))
            assert acc == ring_add({w: 1}, {one: -1})

    def test_augmentation_is_exponent_sum(self):
        rng = random.Random(31)
        for _ in range(300):
            rank = rng.randint(1, 4)
            w = random_free_word(rng, rank)
            for j in range(1, rank + 1):
                assert (sum(fox_derivative(w, j).values())
                        == w.exponent_vector()[j - 1])


class TestArtinAction:
    def test_disc_action_single_letters(self):
        e = artin_disc_endo(parse_braid("d=2; s1"))
        assert e.images == (W(2, 1, 2, -1), W(2, 1))
        e_inv = artin_disc_endo(parse_braid("d=2; s1^-1"))
        assert e_inv.images == (W(2, 2), W(2, -2, 1, 2))

    def test_disc_action_frozen_three_strand(self):
        e = artin_disc_endo(parse_braid("d=3; s1 s2"))
        assert e.images == (W(3, 1, 2, -1), W(3, 1, 3, -1), W(3, 1))

    def test_twists_act_trivially(self):
        e = artin_disc_endo(parse_braid("d=3; t1 t2^-1 t3"))
        assert e == FreeGroupEndo.identity(3)
        a = parse_braid("d=3; s1 t2 s2")
        b = parse_braid("d=3; s1 s2")
        assert artin_disc_endo(a) == artin_disc_endo(b)
        assert artin_endo(a) == artin_endo(b)

    def test_disc_action_is_invertible(self):
        rng = random.Random(37)
        for _ in range(100):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            e = compose(artin_disc_endo(b), artin_disc_endo(b.inverse()))
            assert e == FreeGroupEndo.identity(d)

    def test_disc_action_functorial(self):
        rng = random.Random(41)
        for _ in range(150):
            d = rng.randint(2, 5)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            assert (artin_disc_endo(a.compose(b))
                    == compose(artin_disc_endo(a), artin_disc_endo(b)))

    def test_disc_action_preserves_the_boundary_word(self):
        rng = random.Random(43)
        for _ in range(150):
            d = rng.randint(2, 5)
            e = artin_disc_endo(random_braid_word(rng, d))
            boundary = FreeWord.from_letters(d, range(1, d + 1))
            image = FreeWord.identity(d)
            for img in e.images:
                image = image * img
            assert image == boundary

    def test_disc_action_tracks_the_permutation(self):
        rng = random.Random(47)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            sigma = induced_permutation(b)
            for k, img in enumerate(artin_disc_endo(b).images, start=1):
                vec = img.exponent_vector()
                expected = tuple(1 if i == sigma(k) else 0
                                 for i in range(1, d + 1))
                assert vec == expected

    def test_sphere_action_frozen_examples(self):
        e2 = artin_endo(parse_braid("d=2; s1"))
        assert e2.images == (W(1, -1),)
        e3 = artin_endo(parse_braid("d=3; s1 s2"))
        assert e3.images == (W(2, 1, 2, -1), W(2, 1, -2, -1, -1))

    def test_sphere_action_functorial(self):
        rng = random.Random(53)
        for _ in range(150):
            d = rng.randint(2, 5)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            assert (artin_endo(a.compose(b))
                    == compose(artin_endo(a), artin_endo(b)))

    def test_sphere_action_is_an_automorphism(self):
        rng = random.Random(59)
        for _ in range(100):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            e = compose(artin_endo(b), artin_endo(b.inverse()))
            assert e == FreeGroupEndo.identity(d - 1)

    def test_sphere_action_equals_disc_action_then_substitution(self):
        def oracle(b):
            d = b.d
            last = FreeWord(d, tuple(range(1, d))).inverse()
            images = tuple(FreeWord.generator(d, j) for j in range(1, d))
            images += (last,)
            return tuple(
                FreeWord(d - 1, substitute(w, images).letters)
                for w in artin_disc_endo(b).images[:-1])

        rng = random.Random(61)
        seen = set()
        for _ in range(400):
            d = rng.randint(2, 8)
            b = random_braid_word(rng, d, max_len=20)
            seen.update((x.kind, x.index == d - 1, x.sign) for x in b)
            e = artin_endo(b)
            assert e.rank == d - 1
            assert e.images == oracle(b), b.to_text()
        assert {("t", False, 1), ("s", True, 1), ("s", True, -1)} <= seen
        pseudo_anosov = parse_braid("d=3; " + " ".join(["s1 s2^-1"] * 6))
        assert artin_endo(pseudo_anosov).images == oracle(pseudo_anosov)


class TestAbelianization:
    def test_frozen_matrix_three_strand(self):
        A = abelianization_matrix(artin_endo(parse_braid("d=3; s1 s2")))
        assert [[A[i, j] for j in range(2)] for i in range(2)] == [[0, -1], [1, -1]]
        assert A.trace() == -1
        assert det(A) == 1

    def test_two_strand_matrix(self):
        A = abelianization_matrix(artin_endo(parse_braid("d=2; s1")))
        assert A[0, 0] == -1

    def test_determinant_is_a_unit(self):
        rng = random.Random(61)
        for _ in range(200):
            d = rng.randint(2, 6)
            A = abelianization_matrix(artin_endo(random_braid_word(rng, d)))
            assert det(A) in (-1, 1)

    def test_trace_counts_fixed_points(self):
        # trace(A) = (number of fixed marked points) - 1, for every braid
        rng = random.Random(67)
        for _ in range(200):
            d = rng.randint(2, 6)
            b = random_braid_word(rng, d)
            e = artin_endo(b)
            A = abelianization_matrix(e)
            assert A.trace() == induced_permutation(b).fixed_point_count() - 1
            assert _identity_minus_action(e)[1] == A.trace()

    def test_identity_endo_matrix(self):
        assert abelianization_matrix(FreeGroupEndo.identity(3)) == IntMatrix.identity(3)

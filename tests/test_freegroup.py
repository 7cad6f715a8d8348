"""Free group words, the braid action on the punctured-sphere group, and
the Fox calculus of the test oracles."""

import random

import pytest

from braidfloer.braids import (TWIST, BraidWord, _reduce, induced_permutation,
                               parse_braid)
from braidfloer.freegroup import (FreeGroupEndo, FreeWord, _concat, _inverse,
                                  artin_disc_endo, artin_endo)
from braidfloer.nielsen import _identity_minus_action

from _oracles import (W, IntMatrix, PresentedGroup, _cyclic_reduce,
                      abelianization_matrix, artin_by_substitution,
                      assert_value_record, braid_inverse, braid_product,
                      compose, det, fox_derivative, identity_endo, ring_add,
                      ring_mul, substitute)
from _samplers import random_braid_word, random_free_word


class TestFreeWord:
    def test_reduction(self):
        assert W(2, 1, 2, -2, -1, 2).letters == (2,)
        assert W(2, 1, -1).letters == ()
        assert W(3) == FreeWord(3, ())

    def test_validation(self):
        def rejects(rank, letters, message):
            with pytest.raises(ValueError) as exc:
                FreeWord.from_letters(rank, letters)
            assert str(exc.value) == message

        rejects(2, (3,), "letter 3 out of range for rank 2")
        rejects(2, (1, -3), "letter -3 out of range for rank 2")  # below -rank
        rejects(2, (1, 0, 2), "0 is not a letter")
        # reduction comes first, then the rank, then the first letter
        # out of range in the reduced word
        rejects(-1, (0,), "0 is not a letter")
        rejects(-1, (), "negative rank")
        rejects(2.5, (0,), "0 is not a letter")
        rejects(2, (1, -1, 2, -4, 3, 5), "letter -4 out of range for rank 2")
        # a letter is a nonzero int, not a bool, a float or a string,
        # checked in the letters' order with the reduction
        rejects(2, (1.5,), "1.5 is not a letter")
        rejects(2, (True,), "True is not a letter")
        rejects(2, ("a",), "'a' is not a letter")
        rejects(-1, (1, -1, 2.0, 0), "2.0 is not a letter")
        assert FreeWord.from_letters(2, (3, 1, -1, -3)).letters == ()
        # the record constructor checks nothing: it is for words the
        # package built reduced and in range
        assert FreeWord(2, (1, -1)).letters == (1, -1)

    def test_each_check_raises_its_message(self):
        cases = (
            (lambda: _reduce((1, 0)), "0 is not a letter"),
            (lambda: W(-1), "negative rank"),
            (lambda: FreeGroupEndo(2, (W(2, 1),)),
             "need one image per generator"),
            (lambda: FreeGroupEndo(2, (W(2, 1), W(3, 2))),
             "image rank mismatch"),
            # a rank is an int, not a bool, a float or a string
            (lambda: FreeWord.from_letters("2", ()), "rank must be an int, got '2'"),
            (lambda: FreeWord.from_letters(2.5, [1]), "rank must be an int, got 2.5"),
            (lambda: FreeWord.from_letters(True, [1]), "rank must be an int, got True"),
            (lambda: W(1.5), "rank must be an int, got 1.5"),
            (lambda: FreeGroupEndo(True, ()), "rank must be an int, got True"),
            (lambda: FreeGroupEndo(1.0, (W(1, 1),)), "rank must be an int, got 1.0"),
            (lambda: FreeWord.from_letters(2, (10**5000,)),
             "letter 10000000... out of range for rank 2"),
            # the images are a tuple of FreeWord records, so that the
            # endomorphism hashes and equals the same images as a tuple
            (lambda: FreeGroupEndo(2, (W(2, 1), "x")),
             "images must be a tuple of FreeWord records"),
            (lambda: FreeGroupEndo(1, [W(1, 1)]),
             "images must be a tuple of FreeWord records"),
            (lambda: FreeGroupEndo(1, ((1,),)),
             "images must be a tuple of FreeWord records"),
            # a negative rank is rejected as such, before the images
            (lambda: FreeGroupEndo(-1, ()), "negative rank"),
            (lambda: FreeGroupEndo(-2, [W(1, 1)]), "negative rank"),
        )
        for build, message in cases:
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message

    def test_words_and_endomorphisms_are_values(self):
        # equal by class and values: a BraidWord of the same values is
        # another value
        w = W(2, 1, -2)
        assert_value_record(w, FreeWord(2, (1, -2)), ("rank", "letters"),
                            (W(3, 1, -2), W(2, -2, 1), BraidWord(2, (1, -2))))
        e = artin_endo(parse_braid("d=3; s1 s2"))
        assert_value_record(e, FreeGroupEndo(2, e.images),
                            ("rank", "images"),
                            (identity_endo(2), FreeGroupEndo(2, e.images[::-1]),
                             w))

    def test_only_the_endomorphism_checks_its_values(self):
        # the word constructor checks nothing, by position or keyword;
        # the endomorphism checks its rank and images either way
        assert FreeWord(rank=2, letters=(1, -1)).letters == (1, -1)
        assert FreeGroupEndo(rank=1, images=(W(1, 1),)) == FreeGroupEndo(
            1, (W(1, 1),))
        for build in (lambda: FreeGroupEndo(1, ()),
                      lambda: FreeGroupEndo(rank=1, images=())):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == "need one image per generator"

    def test_a_record_shows_its_constructor(self):
        assert repr(W(2, 1)) == "FreeWord(2, (1,))"
        assert (repr(FreeGroupEndo(1, (W(1, -1),)))
                == "FreeGroupEndo(1, (FreeWord(1, (-1,)),))")

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
        # the product and inverse the Artin loop and refinement run
        rng = random.Random(3)
        for k in range(300):
            rank = rng.randint(1, 4)
            u, v, w = (random_free_word(rng, rank).letters for _ in range(3))
            if k % 3 == 1:  # v starts by undoing the end of u
                v = W(rank, *_inverse(u[rng.randint(0, len(u)):]), *v).letters
            elif k % 3 == 2:
                v = _inverse(u)
            assert _concat(u, v) == W(rank, *u, *v).letters
            assert _concat(_concat(u, v), w) == _concat(u, _concat(v, w))
            assert _concat(_concat(u, v), _inverse(v)) == u
            assert _concat(u, _inverse(u)) == ()
            assert _inverse(_concat(u, v)) == _concat(_inverse(v), _inverse(u))

    def test_exponent_vector(self):
        assert W(3, 1, 2, 1, -3, -2, 1).exponent_vector() == (3, 0, -1)
        assert W(3).exponent_vector() == (0, 0, 0)

    def test_cyclic_reduction(self):
        assert _cyclic_reduce(W(2, 1, 2, 2, -1).letters) == (2, 2)
        assert _cyclic_reduce(W(2, 1, 2, -1).letters) == (2,)
        assert _cyclic_reduce(W(2, 2, 1).letters) == (2, 1)

    def test_to_text(self):
        assert W(2).to_text() == "1"
        assert W(2, 1, -2).to_text() == "x1 x2^-1"
        # named generators are the oracle's presentations' own table
        assert (PresentedGroup(("a", "b"), (W(2, 1, -2),)).relator_texts()
                == ("a b^-1",))

    def test_substitute(self):
        # the oracle; x1 -> a b, x2 -> b^-1 in rank 2
        images = (W(2, 1, 2), W(2, -2))
        assert substitute(W(2, 1, 2), images) == W(2, 1)
        assert substitute(W(2), images).letters == ()


ONE = W(2)


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
            assert fox_derivative(W(rank, *u.letters, *v.letters), j) == ring_add(
                fox_derivative(u, j), ring_mul({u: 1}, fox_derivative(v, j)))

    def test_fundamental_identity(self):
        # sum_j dw/dxj (xj - 1) = w - 1
        rng = random.Random(29)
        for _ in range(300):
            rank = rng.randint(1, 4)
            w = random_free_word(rng, rank)
            one = W(rank)
            acc = ring_add(*(
                ring_mul(fox_derivative(w, j),
                         ring_add({W(rank, j): 1}, {one: -1}))
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
        assert e == identity_endo(3)
        a = parse_braid("d=3; s1 t2 s2")
        b = parse_braid("d=3; s1 s2")
        assert artin_disc_endo(a) == artin_disc_endo(b)
        assert artin_endo(a) == artin_endo(b)

    def test_disc_action_equals_the_letters_automorphisms_composed(self):
        # the disc and sphere actions share one loop of Artin rules;
        # this reference builds each letter's automorphism on its own
        rng = random.Random(67)
        seen = set()
        for _ in range(300):
            d = rng.randint(2, 8)
            b = random_braid_word(rng, d, max_len=12)
            seen.update(b.letters)
            assert artin_disc_endo(b) == artin_by_substitution(b), b.to_text()
        assert {i * s for i in range(1, 8) for s in (1, -1)} <= seen
        assert any(abs(x) > TWIST for x in seen)

    def test_disc_action_is_invertible(self):
        rng = random.Random(37)
        for _ in range(100):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            e = compose(artin_disc_endo(b), artin_disc_endo(braid_inverse(b)))
            assert e == identity_endo(d)

    def test_disc_action_functorial(self):
        rng = random.Random(41)
        for _ in range(150):
            d = rng.randint(2, 5)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            assert (artin_disc_endo(braid_product(a, b))
                    == compose(artin_disc_endo(a), artin_disc_endo(b)))

    def test_disc_action_preserves_the_boundary_word(self):
        rng = random.Random(43)
        for _ in range(150):
            d = rng.randint(2, 5)
            e = artin_disc_endo(random_braid_word(rng, d))
            image = W(d, *(x for img in e.images for x in img.letters))
            assert image.letters == tuple(range(1, d + 1))

    def test_disc_action_tracks_the_permutation(self):
        rng = random.Random(47)
        for _ in range(150):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            sigma = induced_permutation(b)
            for k, img in enumerate(artin_disc_endo(b).images, start=1):
                vec = img.exponent_vector()
                expected = tuple(1 if i == sigma.images[k - 1] else 0
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
            assert (artin_endo(braid_product(a, b))
                    == compose(artin_endo(a), artin_endo(b)))

    def test_sphere_action_is_an_automorphism(self):
        rng = random.Random(59)
        for _ in range(100):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d)
            e = compose(artin_endo(b), artin_endo(braid_inverse(b)))
            assert e == identity_endo(d - 1)

    def test_sphere_action_equals_disc_action_then_substitution(self):
        def oracle(b):
            d = b.d
            last = FreeWord(d, _inverse(tuple(range(1, d))))
            images = tuple(FreeWord(d, (j,)) for j in range(1, d))
            images += (last,)
            return tuple(
                FreeWord(d - 1, substitute(w, images).letters)
                for w in artin_disc_endo(b).images[:-1])

        rng = random.Random(61)
        seen = set()
        for _ in range(400):
            d = rng.randint(2, 8)
            b = random_braid_word(rng, d, max_len=20)
            # (twist, the last generator s<d-1>, sign) of each letter
            seen.update((abs(x) > TWIST, abs(x) == d - 1, x > 0)
                        for x in b.letters)
            e = artin_endo(b)
            assert e.rank == d - 1
            assert e.images == oracle(b), b.to_text()
        assert {(True, False, True), (False, True, True),
                (False, True, False)} <= seen
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
            assert (IntMatrix.from_rows(_identity_minus_action(e))
                    == IntMatrix.identity(A.rows).sub(A))

    def test_identity_endo_matrix(self):
        assert abelianization_matrix(identity_endo(3)) == IntMatrix.identity(3)

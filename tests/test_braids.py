"""Braid word parsing, the free-reduction normal form, and the induced
permutation of the marked points."""

import random

import pytest

from braidfloer.braids import (ARTIN, TWIST, BraidIndexError, BraidLetter,
                               BraidSyntaxError, BraidWord, MAX_STRANDS,
                               Permutation, induced_permutation,
                               is_transitive, parse_braid)

from _samplers import random_braid_word, random_transitive_braid


class TestParsing:
    def test_basic_word(self):
        b = parse_braid("d=3; s1 s2^-1 t3")
        assert b.d == 3
        assert b.letters == (BraidLetter(ARTIN, 1, 1),
                             BraidLetter(ARTIN, 2, -1),
                             BraidLetter(TWIST, 3, 1))

    def test_empty_word(self):
        assert parse_braid("d=4;") == BraidWord.identity(4)
        assert parse_braid("  d=4;  ") == BraidWord.identity(4)
        assert BraidWord.identity(4).to_text() == "d=4;"

    def test_round_trip(self):
        rng = random.Random(101)
        for _ in range(300):
            b = random_braid_word(rng)
            assert parse_braid(b.to_text()) == b

    def test_free_reduction(self):
        assert parse_braid("d=3; s1 s1^-1") == BraidWord.identity(3)
        b = parse_braid("d=3; s2 s1 s1^-1 t1 t1^-1 s2^-1")
        assert b == BraidWord.identity(3)
        # same-sign pairs must not cancel
        assert len(parse_braid("d=3; s1 s1")) == 2
        assert parse_braid("d=3; t2 s1 s1^-1 t2").to_text() == "d=3; t2 t2"

    def test_header_errors(self):
        with pytest.raises(BraidSyntaxError) as exc:
            parse_braid("s1 s2")
        assert exc.value.position == 0
        with pytest.raises(BraidSyntaxError):
            parse_braid("")
        with pytest.raises(BraidIndexError):
            parse_braid("d=1;")
        with pytest.raises(BraidIndexError):
            parse_braid("d=0; s1")
        assert parse_braid(f"d={MAX_STRANDS};").d == MAX_STRANDS
        with pytest.raises(BraidIndexError) as exc:
            parse_braid(f" d={MAX_STRANDS + 1}; s1")
        assert exc.value.position == 3
        # INT is ASCII: int() would read these Arabic-Indic and
        # fullwidth digits as 3
        for text in ("d=\u0663; s1 s2", "d=\uff13; s1 s2", "d=3\u0663; s1"):
            with pytest.raises(BraidSyntaxError) as exc:
                parse_braid(text)
            assert exc.value.position == 0
        # the header too is led by ASCII whitespace only
        for text in ("\u3000d=3; s1 s2", "\u00a0d=3; s1", "\u2003d=3;",
                     "\x85d=3; s1 s2"):
            with pytest.raises(BraidSyntaxError) as exc:
                parse_braid(text)
            assert exc.value.position == 0

    def test_token_errors(self):
        with pytest.raises(BraidSyntaxError) as exc:
            parse_braid("d=3; s1 q2")
        assert exc.value.position == 8
        with pytest.raises(BraidSyntaxError):
            parse_braid("d=3; s1^2")
        with pytest.raises(BraidSyntaxError):
            parse_braid("d=3; s")
        for text, position in (("d=3; s\u0661 s2", 5),
                               ("d=3; s1 s\uff12", 8),
                               ("d=3; t1\u0663", 5)):
            with pytest.raises(BraidSyntaxError) as exc:
                parse_braid(text)
            assert exc.value.position == position
        # tokens are separated by ASCII whitespace only: a Unicode
        # space or NEL would otherwise vanish from the reported word
        for text, position in (("d=3; s1\u3000s2", 5),
                               ("d=3; s1\u00a0s2", 5),
                               ("d=3;\u2003s1 s2", 4),
                               ("d=3; s1\x85s2", 5),
                               ("d=3; s1 s2\u3000", 8)):
            with pytest.raises(BraidSyntaxError) as exc:
                parse_braid(text)
            assert exc.value.position == position
        assert parse_braid("d=3;\ts1\r\ns2\x0b\x0c").to_text() == "d=3; s1 s2"

    def test_index_ranges(self):
        with pytest.raises(BraidIndexError) as exc:
            parse_braid("d=3; s3")
        assert exc.value.token == "s3"
        assert exc.value.position == 5
        with pytest.raises(BraidIndexError):
            parse_braid("d=3; t4")
        with pytest.raises(BraidIndexError):
            parse_braid("d=3; s0")
        # twists run up to d, Artin letters up to d-1
        parse_braid("d=3; t3 s2")

    def test_long_inputs_are_echoed_short(self):
        # a message shows a long d or token as its first 8 characters
        # and '...'; the error keeps the whole token
        long_token = "s1" + "z" * 100_000
        with pytest.raises(BraidSyntaxError) as exc:
            parse_braid("d=3; s1 " + long_token)
        assert str(exc.value) == "bad token 's1zzzzzz...' (at position 8)"
        index = "s" + "1" * 4000
        with pytest.raises(BraidIndexError) as exc:
            parse_braid("d=3; " + index)
        assert exc.value.token == index
        assert str(exc.value) == ("Artin generator index must lie in 1..2 "
                                  "for d=3: token 's1111111...' "
                                  "(at position 5)")
        with pytest.raises(BraidIndexError) as exc:
            parse_braid("d=" + "9" * 4000 + "; s1")
        assert exc.value.token == "d=" + "9" * 4000
        assert len(str(exc.value)) < 100
        with pytest.raises(BraidIndexError, match=r"token 'd=1001'"):
            parse_braid("d=1001;")


class TestAlgebra:
    def test_compose_concatenates_then_reduces(self):
        a = parse_braid("d=3; s1 s2")
        b = parse_braid("d=3; s2^-1 t1")
        assert a.compose(b).to_text() == "d=3; s1 t1"

    def test_compose_rejects_mixed_strand_counts(self):
        with pytest.raises(ValueError):
            parse_braid("d=3; s1").compose(parse_braid("d=4; s1"))

    def test_group_laws(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(2, 5)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            assert a.compose(a.inverse()) == BraidWord.identity(d)
            assert a.compose(b).inverse() == b.inverse().compose(a.inverse())
            assert a.inverse().inverse() == a


class TestInducedPermutation:
    def test_standard_word_gives_standard_cycle(self):
        for d in range(2, 8):
            word = f"d={d}; " + " ".join(f"s{i}" for i in range(1, d))
            sigma = induced_permutation(parse_braid(word))
            assert sigma.images == tuple(range(2, d + 1)) + (1,)
            assert sigma.is_standard_cycle()

    def test_frozen_examples(self):
        assert induced_permutation(parse_braid("d=3; s1 s2")).images == (2, 3, 1)
        assert induced_permutation(parse_braid("d=4; s1 s3")).images == (2, 1, 4, 3)
        assert induced_permutation(parse_braid("d=4;")).is_identity()

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(2, 6)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            lhs = induced_permutation(a.compose(b))
            rhs = induced_permutation(a).compose(induced_permutation(b))
            assert lhs == rhs
            assert induced_permutation(a.inverse()) == induced_permutation(a).inverse()

    def test_twists_and_signs_are_inert(self):
        rng = random.Random(13)
        for _ in range(100):
            d = rng.randint(2, 5)
            b = random_braid_word(rng, d, allow_twists=False)
            flipped = BraidWord.from_letters(
                d, (BraidLetter(x.kind, x.index, -x.sign) for x in b.letters))
            assert induced_permutation(flipped) == induced_permutation(b)
            letters = list(b.letters)
            for k in range(1, d + 1):
                letters.insert(rng.randrange(len(letters) + 1),
                               BraidLetter(TWIST, k, rng.choice((1, -1))))
            padded = BraidWord.from_letters(d, letters)
            assert induced_permutation(padded) == induced_permutation(b)

    def test_cycles_and_fixed_points(self):
        sigma = induced_permutation(parse_braid("d=4; s1 s3"))
        assert sigma.cycles() == ((1, 2), (3, 4))
        assert sigma.fixed_point_count() == 0
        assert Permutation((1, 3, 2)).cycles() == ((1,), (2, 3))
        assert Permutation((1, 3, 2)).fixed_point_count() == 1


class TestTransitivity:
    def test_strict_requires_the_standard_cycle(self):
        b = parse_braid("d=3; s2 s1")
        sigma = induced_permutation(b)
        assert sigma.images == (3, 1, 2)
        # a single 3-cycle, but not (1 2 3) on the nose
        assert sigma.cycles() == ((1, 3, 2),)
        assert not is_transitive(b)

    def test_sampler_output_is_transitive(self):
        rng = random.Random(19)
        for _ in range(100):
            d = rng.randint(2, 6)
            b = random_transitive_braid(rng, d)
            assert 0 < len(b) <= 12
            assert is_transitive(b)

    def test_identity_is_never_transitive(self):
        for d in range(2, 6):
            assert not is_transitive(BraidWord.identity(d))

"""Braid word parsing, the free-reduction normal form, and the induced
permutation of the marked points."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidfloer.braids import (ARTIN, TWIST, BraidIndexError, BraidLetter,
                               BraidSyntaxError, BraidWord, MAX_STRANDS,
                               Permutation, _shown, _shown_repr,
                               induced_permutation, parse_braid)

from _oracles import braid_inverse, braid_product
from _samplers import random_braid_word, random_transitive_braid

# values a message may echo, nested up to three levels: strings without
# a ', whose quotes the cut could switch inside a container
leaves = (st.text(st.characters(blacklist_characters="'"), max_size=20)
          | st.booleans() | st.none() | st.integers()
          | st.integers(-10**40, 10**40))


def containers(inner):
    return (st.lists(inner, max_size=7) | st.tuples(inner)
            | st.lists(inner, max_size=7).map(tuple)
            | st.dictionaries(leaves, inner, max_size=7))


echoed_values = leaves | containers(
    leaves | containers(leaves | containers(leaves)))


class TestParsing:
    def test_basic_word(self):
        b = parse_braid("d=3; s1 s2^-1 t3")
        assert b.d == 3
        assert b.letters == (BraidLetter(ARTIN, 1, 1),
                             BraidLetter(ARTIN, 2, -1),
                             BraidLetter(TWIST, 3, 1))

    def test_empty_word(self):
        assert parse_braid("d=4;") == BraidWord.from_letters(4, ())
        assert parse_braid("  d=4;  ") == BraidWord.from_letters(4, ())
        assert BraidWord.from_letters(4, ()).to_text() == "d=4;"

    def test_round_trip(self):
        rng = random.Random(101)
        for _ in range(300):
            b = random_braid_word(rng)
            assert parse_braid(b.to_text()) == b

    def test_free_reduction(self):
        assert parse_braid("d=3; s1 s1^-1") == BraidWord.from_letters(3, ())
        b = parse_braid("d=3; s2 s1 s1^-1 t1 t1^-1 s2^-1")
        assert b == BraidWord.from_letters(3, ())
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


class TestLetterChecks:
    @pytest.mark.parametrize("letter, message", [
        (BraidLetter("x", 1, 1), "unknown letter kind 'x'"),
        (BraidLetter(ARTIN, 1, 2), "letter sign must be +-1, got 2"),
        (BraidLetter(TWIST, 0, -1), "letter index must be positive, got 0"),
        # a long value is shown by its leading characters
        (BraidLetter("x" * 9999, 1, 1), "unknown letter kind 'xxxxxxxx...'"),
        (BraidLetter(ARTIN, 1, 10**5000), "letter sign must be +-1, got 10000000..."),
        (BraidLetter(ARTIN, -10**5000, 1),
         "letter index must be positive, got -1000000..."),
        (BraidLetter(ARTIN, 10**5000, 1), "letter s10000000... out of range for d=3"),
    ], ids=["kind", "sign", "index", "long-kind", "long-sign", "long-index",
            "long-index-out-of-range"])
    def test_the_word_checks_each_letter(self, letter, message):
        # a letter is a plain record, equal to its tuple; from_letters
        # checks it, with the message the letter once raised
        assert letter == (letter.kind, letter.index, letter.sign)
        with pytest.raises(ValueError) as exc:
            BraidWord.from_letters(3, (BraidLetter(ARTIN, 2, 1), letter))
        assert str(exc.value) == message

    @pytest.mark.parametrize("letter, message", [
        (("s", 1, 1), "not a braid letter: ('s', 1, 1)"),
        ("s1", "not a braid letter: 's1'"),
        (BraidLetter(ARTIN, 1.5, 1), "letter index must be an int, got 1.5"),
        (BraidLetter(ARTIN, True, 1), "letter index must be an int, got True"),
        (BraidLetter(ARTIN, 1, True), "letter sign must be an int, got True"),
        (BraidLetter(ARTIN, 1, -1.0), "letter sign must be an int, got -1.0"),
    ], ids=["tuple", "string", "float-index", "bool-index", "bool-sign",
            "float-sign"])
    def test_a_letter_of_another_type_is_a_value_error(self, letter, message):
        # checked before free reduction, which reads the fields, and
        # before d; a plain tuple equals its BraidLetter but is not one
        for d in (3, 1):
            with pytest.raises(ValueError) as exc:
                BraidWord.from_letters(d, (BraidLetter(ARTIN, 2, 1), letter))
            assert str(exc.value) == message

    def test_each_check_raises_its_message(self):
        s3 = BraidLetter(ARTIN, 3, 1)
        cases = (
            (lambda: BraidWord.from_letters(1, ()),
             "need at least two marked points, got d=1"),
            (lambda: BraidWord.from_letters(3, (s3,)),
             "letter s3 out of range for d=3"),
            (lambda: BraidWord.from_letters(3, (BraidLetter(TWIST, 4, -1),)),
             "letter t4^-1 out of range for d=3"),
            (lambda: Permutation((1, 1, 3)),
             "not a permutation of 1..3: (1, 1, 3)"),
            (lambda: Permutation((10**5000, 1)),
             "not a permutation of 1..2: (1000000..."),
            (lambda: Permutation(tuple(range(2, 20002))),
             "not a permutation of 1..20000: (2, 3, 4..."),
            # d and the images are ints, not bools, floats or strings
            (lambda: BraidWord.from_letters("3", ()), "d must be an int, got '3'"),
            (lambda: BraidWord.from_letters(3.0, ()), "d must be an int, got 3.0"),
            (lambda: BraidWord.from_letters(True, ()), "d must be an int, got True"),
            (lambda: BraidWord.from_letters(2.0, ()),
             "d must be an int, got 2.0"),
            # d is at most MAX_STRANDS, as parse_braid reads it, and a
            # long d is echoed short
            (lambda: BraidWord.from_letters(MAX_STRANDS + 1, ()),
             f"need at most {MAX_STRANDS} marked points, got d={MAX_STRANDS + 1}"),
            (lambda: BraidWord.from_letters(10**40, ()),
             f"need at most {MAX_STRANDS} marked points, got d=10000000..."),
            # so is a d below 2, and a d past the interpreter's limit on
            # the digits it converts to text
            (lambda: BraidWord.from_letters(-10**40, ()),
             "need at least two marked points, got d=-1000000..."),
            (lambda: BraidWord.from_letters(-10**5000, ()),
             "need at least two marked points, got d=-1000000..."),
            (lambda: BraidWord.from_letters(10**5000, ()),
             f"need at most {MAX_STRANDS} marked points, got d=10000000..."),
            (lambda: BraidWord.from_letters(-(2**20000), ()),
             "need at least two marked points, got d=-3980276..."),
            (lambda: Permutation((2, True)),
             "not a permutation of 1..2: (2, True)"),
            (lambda: Permutation((1.0, 2)), "not a permutation of 1..2: (1.0, 2)"),
        )
        for build, message in cases:
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message
        # the checks look at the reduced word: s3 s3^-1 cancels, and
        # the twist t3 is in range where the generator s3 is not
        assert BraidWord.from_letters(3, (s3, s3._replace(sign=-1))).letters == ()
        assert BraidWord.from_letters(3, (BraidLetter(TWIST, 3, 1),))
        assert BraidWord.from_letters(MAX_STRANDS, ()).d == MAX_STRANDS

    def test_a_long_int_is_shown_by_its_leading_digits(self):
        # _shown_repr(n) is _shown(repr(n)), read off the leading digits
        # only, for every length and sign near where the cut starts
        for digits in (*range(1, 40), 299, 300, 301, 1000, 4299, 4300):
            for n in (10 ** (digits - 1), 10 ** digits - 1,
                      int("9" + "8" * (digits - 1)), 2 ** (digits * 3)):
                for m in (n, -n):
                    assert _shown_repr(m) == _shown(repr(m))
        assert _shown_repr(0) == "0"
        for t in ((), (7,), (1, "a", None), tuple(range(9)), ((1,), (2, 3))):
            assert _shown_repr(t) == _shown(repr(t))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(echoed_values)
    @example([1, "it's", 2])
    @example({"k" * 20: (None, True, -10**30, "")})
    def test_each_value_is_echoed_by_one_rule(self, x):
        # a string is cut and then quoted; a value of any other type is
        # _shown(repr(x)), with the strings nested in it, which hold no '
        # that could switch their quotes past the cut
        if isinstance(x, str):
            assert _shown_repr(x) == repr(_shown(x))
        else:
            assert _shown_repr(x) == _shown(repr(x))

    @pytest.mark.parametrize("text", [
        "", "'", '"', "a'b\"c", "\n" * 20, "\\" * 7, "x" * 12, "x" * 13,
        "\x00\u3000\ud800" * 5, "abcdefghij'k", "abcdefghijklm'n"],
        ids=["empty", "quote", "double-quote", "both-quotes", "newlines",
             "backslashes", "12-chars", "13-chars", "escapes", "late-quote",
             "late-quote-cut"])
    def test_a_string_is_cut_then_quoted(self, text):
        assert _shown_repr(text) == repr(_shown(text))

    def test_a_container_is_read_to_its_first_items(self):
        # 10**5000 is past the interpreter's limit on the digits it
        # converts, and 10**4000 shows the same leading digits
        wraps = (lambda x: [x], lambda x: (0, x), lambda x: {"a": x},
                 lambda x: ["x" * 20, x])
        # an int can be a dict key, a list or a dict cannot
        firsts = (*wraps, lambda x: {x: 0})
        for u, v, w in itertools.product(wraps, wraps, firsts):
            for nest in (w, lambda x: v(w(x)), lambda x: u(v(w(x)))):
                assert (_shown_repr(nest(10**5000))
                        == _shown(repr(nest(10**4000))))

        class Unprintable:
            def __repr__(self):
                raise AssertionError("a sixth item was read")

        bomb = Unprintable()
        assert _shown_repr([0] * 5 + [bomb]) == "[0, 0, 0..."
        assert _shown_repr((0,) * 5 + (bomb,)) == "(0, 0, 0..."
        assert (_shown_repr({**dict.fromkeys(range(5), 0), 5: bomb})
                == "{0: 0, 1...")
        # no nesting the interpreter prints runs past the recursion limit
        for depth in (7, 8, 9, 10, 50, 500):
            nested = 0
            for _ in range(depth):
                nested = [nested]
            assert _shown_repr(nested) == _shown(repr(nested))
        nested = []
        for _ in range(5000):
            nested = [nested]
        assert _shown_repr(nested) == "[[[[[[[[..."


class TestAlgebra:
    def test_compose_concatenates_then_reduces(self):
        a = parse_braid("d=3; s1 s2")
        b = parse_braid("d=3; s2^-1 t1")
        assert braid_product(a, b).to_text() == "d=3; s1 t1"

    def test_group_laws(self):
        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(2, 5)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            assert (braid_product(a, braid_inverse(a))
                    == BraidWord.from_letters(d, ()))
            assert (braid_inverse(braid_product(a, b))
                    == braid_product(braid_inverse(b), braid_inverse(a)))
            assert braid_inverse(braid_inverse(a)) == a


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
        assert induced_permutation(parse_braid("d=4;")).images == (1, 2, 3, 4)

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(300):
            d = rng.randint(2, 6)
            a = random_braid_word(rng, d)
            b = random_braid_word(rng, d)
            sa, sb = induced_permutation(a), induced_permutation(b)
            sab = induced_permutation(braid_product(a, b))
            inverse = induced_permutation(braid_inverse(a))
            for k in range(1, d + 1):  # b acts first
                assert sab.images[k - 1] == sa.images[sb.images[k - 1] - 1]
                assert inverse.images[sa.images[k - 1] - 1] == k

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
        assert not sigma.is_standard_cycle()

    def test_sampler_output_is_transitive(self):
        rng = random.Random(19)
        for _ in range(100):
            d = rng.randint(2, 6)
            b = random_transitive_braid(rng, d)
            assert 0 < len(b) <= 12
            assert induced_permutation(b).is_standard_cycle()

    def test_identity_is_never_transitive(self):
        for d in range(2, 6):
            sigma = induced_permutation(BraidWord.from_letters(d, ()))
            assert not sigma.is_standard_cycle()

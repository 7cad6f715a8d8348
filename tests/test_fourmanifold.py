"""The report's pi1 presentations, rendered from d and the images,
against the checked presentations, rescan Tietze pass and
abelianization of ``_oracles``, and fiber-sum characteristic numbers."""

import copy
import json
import os
import random
import subprocess
import sys

import pytest

from braidfloer import fourmanifold
from braidfloer.braids import BraidWord, parse_braid
from braidfloer.fourmanifold import (DEFAULT_CONFIGURATION,
                                     ConfigurationError, anticanonical_tori,
                                     characteristic_numbers,
                                     configuration_from_dict,
                                     pi1_presentations)
from braidfloer.freegroup import FreeGroupEndo, FreeWord, _inverse, artin_endo
from braidfloer.report import build_report

from _oracles import (W, PresentedGroup, _cyclic_key, abelianization,
                      assemble_pi1, identity_endo, mapping_torus_presentation,
                      presented_group, standard_form_order, tietze_simplify)
from _samplers import (random_transitive_braid, sampled_transitive_braids,
                       transitive_golden_braids)


def mapping_torus(b):
    return mapping_torus_presentation(b, artin_endo(b))


def assembled_pi1(b):
    return assemble_pi1(mapping_torus(b))


def standard_braids(ds):
    for d in ds:
        yield parse_braid(f"d={d}; " + " ".join(f"s{i}" for i in range(1, d)))


# u x2 u^-1 for u = x1 x2 x3^-1 x1 x2^-1 x3, reduced: a conjugate of x2
U = (1, 2, -3, 1, -2, 3)
CONJUGATE = U + (2,) + tuple(-x for x in reversed(U))


def P(gens, *relator_letter_tuples):
    rank = len(gens)
    return presented_group(
        gens, (FreeWord.from_letters(rank, r) for r in relator_letter_tuples))


class TestPresentations:
    def test_mapping_torus_two_strands(self):
        g = mapping_torus(parse_braid("d=2; s1"))
        assert g.generators == ("l1", "l2", "x1")
        assert g.relator_texts() == ("l1 l2 l1^-1 l2^-1",
                                     "l1 x1 l1^-1 x1^-1",
                                     "l2 x1 l2^-1 x1")

    def test_assembled_adds_meridian_and_longitude(self):
        g = assembled_pi1(parse_braid("d=2; s1"))
        assert g.relator_texts() == ("l1 l2 l1^-1 l2^-1",
                                     "l1 x1 l1^-1 x1^-1",
                                     "l2 x1 l2^-1 x1",
                                     "x1",
                                     "l2 l2")

    def test_non_transitive_rejected(self):
        with pytest.raises(ValueError, match="standard cycle"):
            mapping_torus(parse_braid("d=4; s1 s3"))
        with pytest.raises(ValueError, match="standard cycle"):
            mapping_torus(parse_braid("d=3; s2 s1"))

    def test_endomorphism_rank_must_match(self):
        b = parse_braid("d=3; s1 s2")
        with pytest.raises(ValueError):
            mapping_torus_presentation(b, artin_endo(parse_braid("d=4; s1")))

    def test_inputs_that_would_give_invalid_relators_are_rejected(self):
        # these inputs are named where they enter, before the checked
        # constructors would reject the relators they give
        b = parse_braid("d=3; s1 s2")
        with pytest.raises(ValueError, match="^the image of x1 is trivial$"):
            mapping_torus_presentation(b, FreeGroupEndo(2, (W(2), W(2, 1))))
        with pytest.raises(ValueError, match="got 2$"):
            assemble_pi1(PresentedGroup(("l1", "l2"), ()))

    def test_make_normalizes(self):
        g = presented_group(("a", "b"),
                            (W(2, 1, 2, -2, -1), W(2, 1, 2, -1)))
        assert g.relator_texts() == ("b",)

    def test_duplicate_generator_names_rejected(self):
        with pytest.raises(ValueError):
            PresentedGroup(("a", "a"), ())

    def test_mapping_torus_abelianization(self):
        rng = random.Random(149)
        for _ in range(30):
            d = rng.randint(2, 6)
            b = random_transitive_braid(rng, d)
            assert (abelianization(mapping_torus(b))["pretty"]
                    == f"Z x Z x Z/{d}")


class TestTietze:
    def test_single_occurrence_elimination(self):
        g = P(("a", "b"), (2,), (1, 2, 1, 2))
        out = tietze_simplify(g)
        assert out.generators == ("a",)
        assert out.relator_texts() == ("a a",)

    def test_eliminates_to_empty(self):
        g = P(("a", "b"), (1, 2))
        out = tietze_simplify(g)
        assert len(out.generators) == 1
        assert out.relators == ()

    def test_stops_when_no_generator_occurs_once(self):
        # a occurs six times in both relators and b twice in the second,
        # so no elimination applies and the input comes back as it is
        g = P(("a", "b"),
              (1, 1, 1, 1, 1, 1),
              (1, 1, 1, 1, 2, 1, 1, 2))
        assert tietze_simplify(g) == g

    def test_eliminates_around_kept_generators(self):
        # b = c^-2 is eliminated from between a and c, and c becomes
        # the second generator of the result
        g = P(("a", "b", "c"), (1, 1, 1), (1, 2, 3, -1, -3), (2, 3, 3))
        out = tietze_simplify(g)
        assert out.generators == ("a", "c")
        assert out.relator_texts() == ("a a a", "a c^-1 a^-1 c^-1")

    def test_shared_fingerprint_without_duplicate_keeps_both(self):
        # "a a b b" and "a b a b" have one length and the same letter
        # counts, but no rotation or inversion maps one to the other
        g = P(("a", "b"), (1, 1, 2, 2), (1, 2, 1, 2))
        assert tietze_simplify(g) == g

    def test_rotated_inverse_of_an_earlier_relator_is_dropped(self):
        # b^-1 a^-1 a^-1 b^-1 is "a a b b" inverted and rotated
        g = P(("a", "b"), (1, 1, 2, 2), (-2, -1, -1, -2))
        out = tietze_simplify(g)
        assert out.relator_texts() == ("a a b b",)

    def test_rewritten_relator_is_keyed_again(self):
        # "b a^-1" and "b^-1 a^-1" have one length and the same letter
        # counts; eliminating a = b turns the second into "b^-1 b^-1"
        # and the third into "b b", which only the second's new key
        # shows to be its duplicate
        g = P(("a", "b"), (2, -1), (-2, -1), (1, 1))
        out = tietze_simplify(g)
        assert out.relator_texts() == ("b^-1 b^-1",)

    def test_assembled_group_reaches_standard_form(self):
        for d in range(2, 7):
            word = f"d={d}; " + " ".join(f"s{i}" for i in range(1, d))
            simplified = tietze_simplify(assembled_pi1(parse_braid(word)))
            assert standard_form_order(simplified) == d

    def test_random_assembled_groups_reach_standard_form(self):
        rng = random.Random(151)
        for _ in range(25):
            d = rng.randint(2, 5)
            b = random_transitive_braid(rng, d)
            simplified = tietze_simplify(assembled_pi1(b))
            assert standard_form_order(simplified) == d

    def test_preserves_abelianization(self):
        # the simplified group has the invariant factors of the assembled
        # one, from two generators instead of d+1
        rng = random.Random(157)
        braids = [random_transitive_braid(rng, rng.randint(2, 6))
                  for _ in range(25)]
        braids += transitive_golden_braids("golden_words.txt")
        braids += standard_braids((*range(2, 61), 150))
        for b in braids:
            assembled = assembled_pi1(b)
            simplified = tietze_simplify(assembled)
            ab = abelianization(assembled)
            assert ab == abelianization(simplified), b.to_text()
            assert ab["pretty"] == f"Z x Z/{b.d}"

    @pytest.mark.parametrize("d", [102, 112, 400])
    def test_many_generators_reach_standard_form(self, d):
        # more than 100 eliminations: a cap on moves would stop short
        b, = standard_braids([d])
        simplified = tietze_simplify(assembled_pi1(b))
        assert standard_form_order(simplified) == d
        assert simplified.generators == ("l1", "l2")
        pi1 = build_report(b.to_text())["pi1"]
        assert pi1["standard_form_order"] == d
        assert pi1["simplified"]["generators"] == ["l1", "l2"]


class TestTietzeAgainstRescan:
    """Two relators that become one cyclic word leave only the first,
    whichever of them a move rewrote."""

    # In both traps, c = b^-2 is eliminated by "c b b", and then
    # "a c^-1 a" becomes "a b b a", the same cyclic word as "a a b b".
    def test_rewritten_relator_equal_to_an_earlier_one_is_dropped(self):
        g = P(("a", "b", "c"),
              (1, 1, 2, 2), (1, 1, 1, 2, 2, 2), (3, 2, 2), (1, -3, 1))
        out = tietze_simplify(g)
        assert out.relator_texts() == ("a a b b", "a a a b b b")
        # the earlier one rewritten too: "a a c^-1" becomes "a a b b"
        g = P(("a", "b", "c"),
              (3, 2, 2), (1, -3, 1), (1, 1, 1, 2, 2, 2), (1, 1, -3))
        out = tietze_simplify(g)
        assert out.relator_texts() == ("a b b a", "a a a b b b")

    def test_later_relator_equal_to_a_rewritten_one_is_dropped(self):
        g = P(("a", "b", "c"),
              (3, 2, 2), (1, -3, 1), (1, 1, 1, 2, 2, 2), (1, 1, 2, 2))
        out = tietze_simplify(g)
        assert out.relator_texts() == ("a b b a", "a a a b b b")


class TestSimplifiedPi1:
    """The report's presentations, rendered from d and the images, are
    the oracle's checked ones, and its simplified group, standard form
    order and abelianization, read off d, are what the rescan Tietze
    pass and the abelianization of the assembled group give."""

    def assert_report_matches(self, braids):
        seen = 0
        for b in braids:
            torus = mapping_torus(b)
            assembled = assemble_pi1(torus)
            simplified = tietze_simplify(assembled)
            pi1 = build_report(b.to_text())["pi1"]
            assert pi1["mapping_torus"] == torus.to_dict(), b.to_text()
            assert pi1["assembled"] == assembled.to_dict(), b.to_text()
            assert pi1["simplified"] == simplified.to_dict(), b.to_text()
            assert pi1["standard_form_order"] == standard_form_order(simplified)
            assert pi1["abelianization"] == abelianization(assembled)
            seen += 1
        return seen

    def test_golden_words(self):
        assert self.assert_report_matches(transitive_golden_braids(
            "golden_words.txt", "golden_words_depth3.txt")) > 100

    def test_sampled_transitive_words(self):
        assert self.assert_report_matches(sampled_transitive_braids()) == 600

    def test_standard_words(self):
        assert self.assert_report_matches(standard_braids((*range(2, 61), 150))) == 60

    def test_each_monodromy_relator_prints_the_inverse_image(self):
        # one-letter images too: phi(x1) = x1^-1 for d=2; s1, and
        # phi(x1) = x2, phi(x2) = x3 for d=4; s1^-1 s2^-1 s3^-1
        braids = [parse_braid("d=2; s1"),
                  parse_braid("d=4; s1^-1 s2^-1 s3^-1"),
                  parse_braid("d=5; " + "s1 s2^-1 s3 s4^-1 " * 5
                              + "s1 s2 s3 s4"),
                  *transitive_golden_braids("golden_words.txt")]
        one_letter = long = 0
        for b in braids:
            e = artin_endo(b)
            relators = pi1_presentations(e)["mapping_torus"]["relators"]
            assert relators[b.d:] == [
                f"l2 x{k} l2^-1 " + FreeWord(e.rank, _inverse(w.letters)).to_text()
                for k, w in enumerate(e.images, start=1)], b.to_text()
            one_letter += sum(len(w) == 1 for w in e.images)
            long += sum(len(w) > 100 for w in e.images)
        assert one_letter >= 3 and long >= 1

    def test_rank_one_has_no_condition(self):
        out = pi1_presentations(identity_endo(1))["simplified"]
        assert out == {"generators": ["l1", "l2"],
                       "relators": ["l1 l2 l1^-1 l2^-1", "l2 l2"]}

    @pytest.mark.parametrize("images, k", [
        (((1,), (2,), (3,)), 1),             # the identity of rank 3
        (((2, 1), (1,), (3,)), 1),           # even length
        (((1, 2, 1), (1,), (3,)), 1),        # x1 x2 x1: not a conjugate
        (((-1, 2, 1), (2, 3, 2), (1,)), 2),  # x1 is fine, x2 is not
        # u x2 u^-1 with |u| = 6 (CONJUGATE), one mirrored pair broken:
        # the outermost, the one next to the middle, one in between
        ((CONJUGATE[:-1] + (-3,), (3,), (1,)), 1),
        ((CONJUGATE[:7] + (1,) + CONJUGATE[8:], (3,), (1,)), 1),
        ((CONJUGATE[:9] + (2,) + CONJUGATE[10:], (3,), (1,)), 1),
        # and a wrong middle letter, the inverse of x2
        ((CONJUGATE[:6] + (-2,) + CONJUGATE[7:], (3,), (1,)), 1),
    ])
    def test_image_that_is_not_a_conjugate_is_rejected(self, images, k):
        e = FreeGroupEndo(3, tuple(W(3, *w) for w in images))
        assert all(W(3, *w).letters == w for w in images)  # each reduced
        with pytest.raises(
                ValueError,
                match=f"^the image of x{k} is not a conjugate of x{k + 1}$"):
            pi1_presentations(e)

    def test_a_long_conjugate_is_accepted(self):
        e = FreeGroupEndo(3, (W(3, *CONJUGATE), W(3, 3), W(3, 1)))
        assert pi1_presentations(e)["standard_form_order"] == 4

    def test_rank_zero_is_rejected(self):
        with pytest.raises(ValueError):
            pi1_presentations(FreeGroupEndo(0, ()))

    @pytest.mark.parametrize("images", [
        ((),),              # rank 1: the only image is the last
        ((2,), ()),         # x1 is fine, x2 is trivial
        ((-1, 2, 1), (3,), ()),
    ])
    def test_trivial_last_image_is_rejected(self, images):
        # l2 x<d-1> l2^-1 would reduce cyclically to x<d-1>
        rank = len(images)
        e = FreeGroupEndo(rank, tuple(W(rank, *w) for w in images))
        with pytest.raises(ValueError,
                           match=f"^the image of x{rank} is trivial$"):
            pi1_presentations(e)


def brute_cyclic_key(letters):
    """Reference key: the least of all rotations of both orientations."""
    if not letters:
        return letters
    inv = tuple(-x for x in reversed(letters))
    return min(w[i:] + w[:i] for w in (letters, inv) for i in range(len(w)))


class TestCyclicKey:
    def test_small_and_periodic_words(self):
        for letters in ((), (1,), (-2,), (1, 2, 1, 2), (2, 1, 2, 1),
                        (1, -2) * 3, (3, 3, 3), (1, 1, 2, 1, 1, 2),
                        (2, -1, 2, -1, 2), (1, 2, -1, -2)):
            assert _cyclic_key(letters) == brute_cyclic_key(letters)

    def test_random_words(self):
        rng = random.Random(163)
        for _ in range(2000):
            alphabet = rng.choice(((1, -1), (1, 2, -1), (1, 2, 3, -1, -2, -3)))
            letters = tuple(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 24)))
            if letters and rng.random() < 0.3:  # periodic words
                letters = letters[:rng.randint(1, 4)] * rng.randint(2, 6)
            assert _cyclic_key(letters) == brute_cyclic_key(letters)


class TestStandardFormDetection:
    def test_detects_up_to_rotation_and_inversion(self):
        assert standard_form_order(P(("u", "v"), (1, 2, -1, -2), (2, 2, 2))) == 3
        assert standard_form_order(P(("u", "v"), (-2, -1, 2, 1), (-2, -2))) == 2
        assert standard_form_order(P(("u", "v"), (1, 1, 1, 1), (2, 1, -2, -1))) == 4

    def test_rejects_other_shapes(self):
        assert standard_form_order(P(("u", "v"), (1, 2, -1, -2))) is None
        assert standard_form_order(P(("u", "v"), (1, 2, -1, -2), (1, 2))) is None
        assert standard_form_order(P(("u", "v"), (2, 2), (1, 1))) is None
        assert standard_form_order(P(("u",), (1, 1))) is None


class TestAbelianizationOfPresentations:
    def test_free_group(self):
        assert abelianization(P(("a", "b"))) == {
            "free_rank": 2, "torsion": [], "pretty": "Z x Z"}

    def test_cyclic(self):
        assert abelianization(P(("a",), (1, 1))) == {
            "free_rank": 0, "torsion": [2], "pretty": "Z/2"}

    def test_assembled_values(self):
        for d in (2, 3, 4):
            word = f"d={d}; " + " ".join(f"s{i}" for i in range(1, d))
            g = assembled_pi1(parse_braid(word))
            assert abelianization(g) == {
                "free_rank": 1, "torsion": [d], "pretty": f"Z x Z/{d}"}

    def test_no_generators(self):
        assert abelianization(PresentedGroup((), ())) == {
            "free_rank": 0, "torsion": [], "pretty": "0"}


def _piece(name, *tori, chi=24, sigma=-16, kind="k3"):
    """A piece in the --config format, a K3 unless told otherwise, with
    unit-volume ``tori``."""
    return {"name": name, "kind": kind, "chi": chi, "sigma": sigma,
            "tori": {t: 1 for t in tori}}


def _config(pieces, pairings=(), d=3):
    """The checked configuration of these pieces and pairings."""
    return configuration_from_dict(
        {"pieces": list(pieces), "pairings": [list(x) for x in pairings]}, d)


class TestCharacteristicNumbers:
    def test_default_configuration_values(self):
        for d in range(2, 7):
            cn = characteristic_numbers(
                configuration_from_dict(DEFAULT_CONFIGURATION, d))
            assert (cn["chi"], cn["sigma"]) == (48, -32)
            assert cn["c2"] == 48
            assert cn["c1_squared"] == 0

    def test_additivity_from_pieces(self):
        cfg = _config([_piece("A", "T"), _piece("B", "Tp")], [("T", "Tp")])
        cn = characteristic_numbers(cfg)
        assert cn == {"chi": 48, "sigma": -32, "c2": 48, "c1_squared": 0}

    def test_isolated_pieces(self):
        empty = _config([])
        assert characteristic_numbers(empty) == {
            "chi": 0, "sigma": 0, "c2": 0, "c1_squared": 0}
        lone_k3 = _config([_piece("M")])
        assert characteristic_numbers(lone_k3) == {
            "chi": 24, "sigma": -16, "c2": 24, "c1_squared": 0}

    def test_known_kind_values_enforced(self):
        with pytest.raises(ConfigurationError):
            _config([_piece("M", chi=20)])
        with pytest.raises(ConfigurationError):
            _config([_piece("M", kind="four_torus", chi=1, sigma=0)])
        # custom kinds are free
        _config([_piece("M", kind="custom", chi=7, sigma=3)])

    def test_unpaired_torus_rejected(self):
        with pytest.raises(ConfigurationError, match="unpaired"):
            characteristic_numbers(_config([_piece("M", "T")]))

    def test_volume_mismatch_rejected(self):
        pieces = [_piece("A", "T"), _piece("B", "Tp")]
        pieces[1]["tori"]["Tp"] = 2
        with pytest.raises(ConfigurationError, match="volume mismatch"):
            characteristic_numbers(_config(pieces, [("T", "Tp")]))

    def test_torus_reuse_rejected(self):
        pieces = [_piece("A", "T"),
                  _piece("B", "Tp", "Tq", kind="four_torus", chi=0, sigma=0)]
        with pytest.raises(ConfigurationError, match="two pairings"):
            characteristic_numbers(
                _config(pieces, [("T", "Tp"), ("T", "Tq")]))

    def test_duplicate_torus_name_rejected(self):
        with pytest.raises(ConfigurationError, match="two pieces"):
            characteristic_numbers(
                _config([_piece("A", "T"), _piece("B", "T")], [("T", "T")]))

    def test_unknown_torus_in_pairing_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown torus"):
            characteristic_numbers(
                _config([_piece("A", "T")], [("T", "missing")]))


class TestConfigurationSerialization:
    def test_round_trip(self):
        cfg = configuration_from_dict(DEFAULT_CONFIGURATION, 5)
        assert configuration_from_dict(cfg, 5) == cfg

    def test_volume_token_d(self):
        data = {
            "pieces": [
                {"name": "A", "kind": "custom", "chi": 0, "sigma": 0,
                 "tori": {"T": "d"}},
                {"name": "B", "kind": "custom", "chi": 0, "sigma": 0,
                 "tori": {"Tp": 4}},
            ],
            "pairings": [["T", "Tp"]],
        }
        cfg = configuration_from_dict(data, 4)
        characteristic_numbers(cfg)  # volumes match: "d" resolved to 4
        with pytest.raises(ConfigurationError):
            characteristic_numbers(configuration_from_dict(data, 5))

    @pytest.mark.parametrize("d, message", [
        ("x", "d must be an int, got 'x'"),
        (True, "d must be an int, got True"),
        (-5, "need at least two marked points, got d=-5"),
        (1, "need at least two marked points, got d=1"),
        (1001, "need at most 1000 marked points, got d=1001"),
        (10 ** 30, "need at most 1000 marked points, got d=10000000..."),
        (float("nan"), "d must be an int, got nan"),
    ], ids=["str", "bool", "negative", "one", "past-max", "huge", "nan"])
    def test_d_is_checked_as_for_a_braid_word(self, d, message):
        # before the configuration, by the check and message of
        # BraidWord.from_letters
        for check in (lambda: configuration_from_dict(DEFAULT_CONFIGURATION, d),
                      lambda: configuration_from_dict(None, d),
                      lambda: BraidWord.from_letters(d, ())):
            with pytest.raises(ValueError) as exc:
                check()
            assert type(exc.value) is ValueError
            assert str(exc.value) == message

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError):
            configuration_from_dict({"pieces": [{}]}, 3)
        with pytest.raises(ConfigurationError):
            configuration_from_dict({"pieces": [], "pairings": None}, 3)
        with pytest.raises(ConfigurationError,
                           match="^unknown configuration key 'pairing'$"):
            configuration_from_dict({"pieces": [], "pairing": []}, 3)
        for piece in ({"name": "A", "chi": 0, "sigma": 0, "tori": {"T": True}},
                      {"name": "A", "chi": 0, "sigma": 0, "tori": {"T": 0}},
                      {"name": 5, "chi": 0, "sigma": 0},
                      {"name": "A", "kind": None, "chi": 0, "sigma": 0},
                      # a misspelt kind would make a K3 a custom piece,
                      # whose chi and sigma go unchecked
                      {"name": "M2", "knd": "k3", "chi": 5, "sigma": 7}):
            with pytest.raises(ConfigurationError):
                configuration_from_dict({"pieces": [piece], "pairings": []}, 3)

    def test_a_torus_name_must_be_a_string(self):
        # a Python caller can pass a key no JSON file can carry; it is
        # rejected where tori is read, before pairing or sorting
        for tori, shown in (({1: 1}, "1"), ({1: 1, "a": 1}, "1"),
                            ({"a": 1, 2: 1}, "2"), ({("x",): 1}, "('x',)")):
            piece = {"name": "A", "chi": 0, "sigma": 0, "tori": tori}
            with pytest.raises(ConfigurationError) as exc:
                configuration_from_dict({"pieces": [piece], "pairings": []}, 3)
            assert str(exc.value) == f"torus name must be a string, got {shown}"

    def test_the_result_shares_nothing_with_its_input(self):
        # the default is module data that every report reads: neither
        # the dicts a report prints nor any container inside them may be
        # the default's or the last report's, nor may the check change it
        before = json.dumps(DEFAULT_CONFIGURATION)
        first = build_report("d=3; s1 s2")
        first["config"]["pieces"][0]["tori"]["H1"] = 99
        first["config"]["pieces"].pop()
        first["config"]["pairings"][0].append("H9")
        first["characteristic_numbers"]["chi"] = 99
        first["characteristic_numbers"].pop("c2")
        cfg = configuration_from_dict(DEFAULT_CONFIGURATION, 3)
        cfg["pieces"][1]["name"] = "X"
        cfg["pieces"][1]["tori"].clear()
        cfg["pairings"].clear()
        assert json.dumps(DEFAULT_CONFIGURATION) == before
        again = build_report("d=3; s1 s2")
        assert again["config"] == configuration_from_dict(
            json.loads(before), 3)
        assert again["config"]["pieces"][0]["tori"] == {"H1": 3}
        assert again["characteristic_numbers"] == {
            "chi": 48, "sigma": -32, "c2": 48, "c1_squared": 0}

    def test_a_changed_copy_of_the_default_is_read_as_given(self):
        # the default is read once; a copy passed as config_data is
        # checked for its report, and leaves the next default report be
        data = copy.deepcopy(DEFAULT_CONFIGURATION)
        data["pieces"][2].update(kind="custom", chi=30)
        data["pieces"][1]["tori"]["H3p"] = 2
        data["pieces"][2]["tori"]["H3"] = 2
        changed = build_report("d=4; s1 s2 s3", config_data=data)
        assert changed["config"]["pieces"][2] == {
            "name": "M3", "kind": "custom", "chi": 30, "sigma": -16,
            "tori": {"H3": 2}}
        assert changed["config"]["pieces"][1]["tori"] == {
            "H1p": 4, "H3p": 2, "H4p": 1}
        assert changed["characteristic_numbers"] == {
            "chi": 54, "sigma": -32, "c2": 54, "c1_squared": 12}
        again = build_report("d=4; s1 s2 s3")
        assert again["config"] == configuration_from_dict(
            DEFAULT_CONFIGURATION, 4)
        assert again["characteristic_numbers"]["chi"] == 48
        data["pieces"][2]["tori"]["H3"] = 1
        with pytest.raises(ConfigurationError, match="volume mismatch"):
            build_report("d=4; s1 s2 s3", config_data=data)

    def test_a_valid_configuration_echoes_nothing(self, monkeypatch):
        # a message is built only when a check fails, so checking the
        # default, with its four integer volumes, echoes no value
        expected = configuration_from_dict(DEFAULT_CONFIGURATION, 5)

        def echo(x):
            raise AssertionError(f"echoed {x!r}")

        monkeypatch.setattr(fourmanifold, "_shown_repr", echo)
        assert configuration_from_dict(DEFAULT_CONFIGURATION, 5) == expected

    def test_long_values_are_echoed_short(self):
        # a message shows each name and value cut by braids._shown
        for piece in ({"name": "A", "chi": "x" * 100_000, "sigma": 0},
                      {"name": "A", "chi": 10**5000, "sigma": 0},
                      {"name": "A", "chi": ["x" * 100_000], "sigma": 0},
                      {"name": "A", "chi": 0, "sigma": 0,
                       "tori": {"T" * 100_000: 0}},
                      {"name": "N" * 100_000, "kind": "k3", "chi": 0,
                       "sigma": 0},
                      {"name": "A", "chi": 0, "sigma": 0,
                       "tori": {"T" * 100_000: 1}},
                      {"K" * 100_000: 1}):
            with pytest.raises(ConfigurationError) as exc:
                configuration_from_dict({"pieces": [piece], "pairings": []}, 3)
            assert len(str(exc.value)) < 200, str(exc.value)[:200]
        # a container is read to its first items, which are echoed by
        # the same rule: an int past the interpreter's digit limit too
        for chi, shown in (("x" * 13, "'xxxxxxxx...'"),
                           ([10**5000], "[1000000..."),
                           ({"a": 10**5000}, "{'a': 10..."),
                           ([0] * 10**6, "[0, 0, 0..."),
                           # a value of another type by its type's name
                           ({10**5000}, "<set>"),
                           (frozenset({10**5000}), "<frozenset>"),
                           (range(10**5000), "<range>"),
                           (set(range(10**6)), "<set>"),
                           ([{10**5000}], "[<set>]")):
            with pytest.raises(ConfigurationError) as exc:
                configuration_from_dict(
                    {"pieces": [{"name": "A", "chi": chi, "sigma": 0}],
                     "pairings": []}, 3)
            assert str(exc.value).endswith(f"got {shown}")

    def test_a_set_is_echoed_alike_under_every_hash_seed(self):
        # a set of strings iterates in hash order, which its repr would show
        code = ("from braidfloer.fourmanifold import configuration_from_dict\n"
                "try:\n"
                "    configuration_from_dict({'pieces': [{'name': 'A', 'chi': "
                "set('abcdefgh'), 'sigma': 0}], 'pairings': []}, 3)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        shown = [subprocess.run([sys.executable, "-c", code], text=True,
                                capture_output=True, timeout=60,
                                env={**os.environ, "PYTHONHASHSEED": seed}
                                ).stdout for seed in ("0", "1")]
        assert shown[0] == shown[1]
        assert shown[0].endswith("got <set>\n")


class TestAnticanonicalTori:
    def test_counts(self):
        for d, counts in ((2, (10, 2, 4, 4)), (3, (16, 4, 6, 6)),
                          (4, (22, 6, 8, 8))):
            assert anticanonical_tori(d) == dict(zip(
                ("total", "h1_parallel", "h3_copies", "h4_copies"), counts))

    def test_breakdown_sums(self):
        for d in range(2, 12):
            t = anticanonical_tori(d)
            assert t["total"] == 6 * d - 2
            assert (t["h1_parallel"], t["h3_copies"], t["h4_copies"]) == (
                2 * d - 2, 2 * d, 2 * d)
            assert (t["h1_parallel"] + t["h3_copies"] + t["h4_copies"]
                    == t["total"])

    def test_small_d_rejected(self):
        # the check and message of BraidWord.from_letters; past
        # MAX_STRANDS too, where the counts were once returned as given
        for d, message in (
                (1, "need at least two marked points, got d=1"),
                (1001, "need at most 1000 marked points, got d=1001"),
                (10 ** 30, "need at most 1000 marked points, got d=10000000..."),
                (True, "d must be an int, got True"),
                ("3", "d must be an int, got '3'"),
                (2.5, "d must be an int, got 2.5")):
            with pytest.raises(ValueError) as exc:
                anticanonical_tori(d)
            assert type(exc.value) is ValueError
            assert str(exc.value) == message

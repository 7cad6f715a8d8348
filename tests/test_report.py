"""build_report computes each per-braid object once, the word-level
trace only when refinement needs it, the class space from the
permutation, the simplified pi1 from d without a Tietze pass or a Smith
elimination, and nothing past the permutation for a braid that is not
the standard cycle.  It calls ``from_letters`` on no word it built
itself, and each of those words equals ``from_letters`` of its own
letters."""

import copy
import sys
from collections import Counter
from pathlib import Path

import pytest

from braidfloer import braids, floer, fourmanifold, freegroup, nielsen, snf
from braidfloer.braids import BraidWord, induced_permutation, parse_braid
from braidfloer.cli import main
from braidfloer.fourmanifold import DEFAULT_CONFIGURATION, ConfigurationError
from braidfloer.freegroup import FreeWord
from braidfloer.report import build_report, render_text

import _oracles
from _samplers import sampled_transitive_braids, twisted_words

DATA = Path(__file__).parent / "data"

ONCE = ((braids, "induced_permutation"),
        (freegroup, "artin_endo"),
        (fourmanifold, "pi1_presentations"),
        (nielsen, "_trace_terms"),
        (floer, "dims_lower_bound"))


def count_calls(monkeypatch, functions) -> Counter:
    """Count calls of each (module or class, name) made through any
    package module that imported the function, or through the class."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for home, name in functions:
        replace(monkeypatch, home, name, counted(name, getattr(home, name)))
    return calls


def replace(monkeypatch, home, name, replacement) -> None:
    """Replace a function wherever a package module imported it, or a
    method on its class."""
    if isinstance(home, type):
        monkeypatch.setattr(home, name, replacement)
        return
    original = getattr(home, name)
    for modname, module in list(sys.modules.items()):
        if (modname.startswith("braidfloer")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


NEVER = ((nielsen, "reidemeister_trace_raw"),
         (nielsen, "_identity_minus_action"),
         (snf.ClassSpace, "from_rows"),
         (snf, "_smith_eliminate"))


def test_each_object_is_built_once(monkeypatch):
    calls = count_calls(monkeypatch, ONCE + NEVER)
    report = build_report("d=4; s1 s2 s3", refine_depth=2)
    assert report["transitive"] and report["refined"] is not None
    # refinement sums the trace scan's terms itself, with no word-level
    # trace; the class space Z/4 comes from the permutation, so I - A is
    # never read off the images and no ClassSpace is built, and the
    # simplified pi1 and its group Z x Z/4 come from d, so nothing is
    # simplified or eliminated
    assert calls == Counter({name: 1 for _, name in ONCE})
    assert report["pi1"]["standard_form_order"] == 4


def test_the_built_in_configuration_is_checked_once(monkeypatch):
    # the one-pass check ran on the built-in configuration at import;
    # a configuration passed in, even an equal one, is checked for every
    # report
    calls = count_calls(monkeypatch, ((fourmanifold, "_configuration"),))
    words = ("d=3; s1 s2", "d=4; s1 s2 s3", "d=4; s1 s1",
             "d=6; s1 s2 s3 s4 s5")
    defaults = [build_report(word) for word in words]
    assert calls == Counter()
    data = copy.deepcopy(DEFAULT_CONFIGURATION)
    assert [build_report(word, config_data=data) for word in words] == defaults
    assert calls == Counter({"_configuration": len(words)})


def test_the_report_reads_each_image_in_place(monkeypatch):
    # the sphere action inverts one word per Artin letter; the pi1 check
    # and text and the Nielsen scan read the images without inverting
    # them, and the one-cycle check walks the permutation's images
    # without building its cycles
    word = "d=5; " + " ".join(["s1 s2^-1 s3 s4^-1"] * 5 + ["s1 s2 s3 s4"])
    calls = count_calls(monkeypatch, ((freegroup, "_inverse"),
                                      (braids.Permutation, "cycles")))
    report = build_report(word)
    assert report["transitive"]
    assert calls == Counter({"_inverse": 24})


# the golden word files and the refine depth golden.jsonl reports them at
GOLDEN = (("golden_words.txt", 0), ("golden_words_depth3.txt", 3))


def golden_words(name: str) -> list[str]:
    """The words of a golden file, without comments."""
    return [w for w in (DATA / name).read_text().splitlines()
            if w.strip() and not w.startswith("#")]


def test_each_section_is_the_public_function_s_return_value():
    # the report stores what these functions return and converts
    # nothing; the refined section lists the refinement's pairs
    words = 0
    transitive = 0
    for name, depth in GOLDEN:
        for word in golden_words(name):
            words += 1
            transitive += sections_are_return_values(word, depth)
    assert words == 160 and transitive >= 100


def sections_are_return_values(word: str, depth: int) -> bool:
    """Check the sections of word's report at refine depth ``depth``;
    whether the braid is the standard cycle."""
    report = build_report(word, refine_depth=depth)
    if not report["transitive"]:
        return False
    b = parse_braid(word)
    e, sigma = freegroup.artin_endo(b), induced_permutation(b)
    nd = nielsen.nielsen_decomposition(e, sigma)
    assert report["nielsen"] == nd, word
    assert report["floer_bound"] == floer.dims_lower_bound(nd)
    assert report["fiber_sum"] == floer.fiber_sum_dims(
        floer.dims_lower_bound(nd), b.d)
    assert report["pi1"] == fourmanifold.pi1_presentations(e)
    assert (report["characteristic_numbers"]
            == fourmanifold.characteristic_numbers(
                fourmanifold.configuration_from_dict(
                    DEFAULT_CONFIGURATION, b.d)))
    assert report["anticanonical_tori"] == fourmanifold.anticanonical_tori(
        b.d)
    if depth:
        assert report["refined"] == {"depth": depth, "classes": [
            {"label": list(label),
             "clusters": [{"size": len(words), "index": coeff,
                           "representative": words[0].to_text()}
                          for words, coeff in clusters]}
            for label, clusters in nielsen.refine_decomposition(
                e, sigma, depth)]}, word
    return True


def test_no_word_level_trace_without_refinement(monkeypatch):
    # _trace_terms is the one scan that yields the prefixes of the
    # trace, which only refinement reads; the class indices are summed
    # without them
    calls = count_calls(monkeypatch, ((nielsen, "_trace_terms"),))
    for word in ("d=4; s1 s2 s3", "d=5; s1 s1 s2^-1 s3 s4 s2", "d=4; s1 s1"):
        report = build_report(word, refine_depth=0)
        assert report["refined"] is None
    assert calls == Counter()


def test_a_braid_off_the_standard_cycle_stops_at_its_permutation(monkeypatch):
    # the last word builds about 0.9M image letters when its images are
    # computed; its report needs only the fixed points of the permutation
    words = ("d=4; s1 s1", "d=5; s1 s2^-1 s3",
             "d=5; " + "s1 s2^-1 s3 s4^-1 " * 8 + "s1 s2 s3 s4")
    calls = count_calls(monkeypatch, (
        (braids, "induced_permutation"), (freegroup, "artin_endo"),
        (nielsen, "_identity_minus_action"),
        (nielsen, "nielsen_decomposition"),
        (fourmanifold, "pi1_presentations")))
    for word in words:
        report = build_report(word)
        assert not report["transitive"] and report["warning"]
    assert calls == Counter({"induced_permutation": len(words)})
    # a bad configuration fails before the images are built
    with pytest.raises(ConfigurationError):
        build_report("d=4; s1 s2 s3", config_data={"pieces": []})
    assert calls["artin_endo"] == 0


def test_abelianization_reads_the_simplified_group(monkeypatch):
    # the report reads Z x Z/d off d, with no Smith elimination; Tietze
    # moves keep the group, so the abelianization of the simplified
    # assembled group agrees
    d = 400
    b = parse_braid(f"d={d}; " + " ".join(f"s{i}" for i in range(1, d)))
    calls = count_calls(monkeypatch, ((snf, "_smith_eliminate"),))
    ab = build_report(b.to_text())["pi1"]["abelianization"]
    assert calls == Counter()
    assert ab == {"free_rank": 1, "torsion": [d], "pretty": f"Z x Z/{d}"}
    simplified = _oracles.tietze_simplify(_oracles.assemble_pi1(
        _oracles.mapping_torus_presentation(b, freegroup.artin_endo(b))))
    assert _oracles.abelianization(simplified) == ab


@pytest.mark.parametrize("depth", [0, 3])
def test_a_report_rescans_nothing_it_built(monkeypatch, depth):
    # the text is checked by the parser; every word after it is built
    # valid by construction, as a record, and pi1 is rendered as text
    calls = Counter()
    for cls in (FreeWord, BraidWord):
        def counted(c, *args, check=cls.__dict__["from_letters"].__func__):
            calls[c.__name__] += 1
            return check(c, *args)
        monkeypatch.setattr(cls, "from_letters", classmethod(counted))
    word = "d=4; t2^-1 s1 s1 s1 s2^-1 s3 s2 s2"
    report = build_report(word, refine_depth=depth)
    render_text(report)
    assert report["transitive"]
    assert (report["refined"] is None) == (depth == 0)
    assert calls == Counter()
    # the counters see a checked construction
    BraidWord.from_letters(4, [1])
    assert calls == Counter({"BraidWord": 1})


def test_every_word_a_report_builds_is_its_checked_word(monkeypatch, capsys):
    # the record constructors check nothing, so each word a report
    # builds (the parsed braid, the images and the refinement's cluster
    # members) must equal from_letters of its own letters: freely
    # reduced, with every letter in range; run over the golden words and
    # 600 sampled transitive words
    built = Counter()

    def check(kind, word):
        built[kind] += 1
        size = word.d if isinstance(word, BraidWord) else word.rank
        assert word == type(word).from_letters(size, word.letters), word

    def checking(name, fn, words):
        def wrapper(*args):
            out = fn(*args)
            for word in words(out):
                check(name, word)
            return out
        return wrapper

    for home, name, words in (
            (braids, "parse_braid", lambda b: (b,)),
            (freegroup, "artin_endo", lambda e: e.images),
            (nielsen, "refine_decomposition", lambda pairs: (
                w for _, clusters in pairs for ws, _ in clusters for w in ws))):
        replace(monkeypatch, home, name,
                checking(name, getattr(home, name), words))
    out = []
    for words, depth in GOLDEN:
        assert main(["--batch", str(DATA / words), "--format", "json",
                     "--refine-depth", str(depth)]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (DATA / "golden.jsonl").read_text()
    for k, b in enumerate(sampled_transitive_braids()):
        build_report(b.to_text(), refine_depth=3 if k % 4 == 0 else 0)
    assert built["parse_braid"] == 160 + 600
    assert set(built) == {"parse_braid", "artin_endo", "refine_decomposition"}


@pytest.mark.parametrize("depth", [0, 2])
def test_framing_twists_change_only_the_input(depth):
    # every invariant is framing-blind: deleting a word's twists leaves
    # every field of its report but the input as it was
    words = [*twisted_words(), ("d=1000; t1000 " + " ".join(
        f"s{i} t{i}^-1" for i in range(1, 1000)), "d=1000; " + " ".join(
            f"s{i}" for i in range(1, 1000)))]
    transitive = kept = 0
    for twisted, plain in words:
        a, b = build_report(twisted, depth), build_report(plain, depth)
        kept += a.pop("input") != b.pop("input")
        assert a == b, twisted
        transitive += a["transitive"]
    assert transitive >= 90 and kept >= 150

"""build_report computes each per-braid object once, the word-level
trace only when refinement needs it, the class space from the
permutation, the simplified pi1 from d without a Tietze pass or a Smith
elimination, and nothing past the permutation for a braid that is not
the standard cycle.  It checks no word it built itself, and
each of them passes the checked constructor."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from braidfloer import braids, floer, fourmanifold, freegroup, nielsen, snf
from braidfloer.braids import (BraidLetter, BraidWord, _trusted,
                               induced_permutation, parse_braid)
from braidfloer.cli import main
from braidfloer.fourmanifold import DEFAULT_CONFIGURATION, ConfigurationError
from braidfloer.freegroup import FreeWord
from braidfloer.report import build_report, render_text

import _oracles
from _samplers import sampled_transitive_braids

DATA = Path(__file__).parent / "data"

ONCE = ((braids, "induced_permutation"),
        (freegroup, "artin_endo"),
        (fourmanifold, "pi1_presentations"),
        (nielsen, "reidemeister_trace_raw"),
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


NEVER = ((nielsen, "_identity_minus_action"),
         (snf.ClassSpace, "from_rows"),
         (snf, "_smith_eliminate"))


def test_each_object_is_built_once(monkeypatch):
    calls = count_calls(monkeypatch, ONCE + NEVER)
    report = build_report("d=4; s1 s2 s3", refine_depth=2)
    assert report["transitive"] and report["refined"] is not None
    # the class space Z/4 comes from the permutation, so I - A is never
    # read off the images and no ClassSpace is built, and the
    # simplified pi1 and its group Z x Z/4 come from d, so nothing is
    # simplified or eliminated
    assert calls == Counter({name: 1 for _, name in ONCE})
    assert report["pi1"]["standard_form_order"] == 4


def golden_words() -> list[str]:
    """The words of both golden files, without comments."""
    return [w for name in ("golden_words.txt", "golden_words_depth3.txt")
            for w in (DATA / name).read_text().splitlines()
            if w.strip() and not w.startswith("#")]


def test_each_section_is_the_public_function_s_return_value():
    # the report stores what these functions return and converts nothing
    words = golden_words()
    transitive = 0
    for word in words:
        report = build_report(word)
        if not report["transitive"]:
            continue
        b = parse_braid(word)
        nd = nielsen.nielsen_decomposition(freegroup.artin_endo(b),
                                           induced_permutation(b))
        assert report["nielsen"] == nd, word
        assert report["floer_bound"] == floer.dims_lower_bound(nd)
        assert report["fiber_sum"]["summand"] == floer.suspend_dims(
            floer.dims_lower_bound(nd))
        assert (report["characteristic_numbers"]
                == fourmanifold.characteristic_numbers(
                    fourmanifold.configuration_from_dict(
                        DEFAULT_CONFIGURATION, b.d)))
        assert report["anticanonical_tori"] == fourmanifold.anticanonical_tori(
            b.d)
        transitive += 1
    assert len(words) == 160 and transitive >= 100


def test_no_word_level_trace_without_refinement(monkeypatch):
    # reidemeister_trace_raw is the one function that builds the prefix
    # words of the trace; the class indices are summed without them
    calls = count_calls(monkeypatch, ((nielsen, "reidemeister_trace_raw"),))
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
    assert _oracles.abelianization(simplified) == snf.AbelianGroup(1, (d,))


CHECKED = (FreeWord, BraidWord)


@pytest.mark.parametrize("depth", [0, 3])
def test_a_report_rescans_nothing_it_built(monkeypatch, depth):
    # the text is checked by the parser; every word after it
    # is built valid by construction, and pi1 is rendered as text
    calls = Counter()
    for cls in CHECKED:
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            calls[name] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    word = "d=4; t2^-1 s1 s1 s1 s2^-1 s3 s2 s2"
    report = build_report(word, refine_depth=depth)
    render_text(report)
    assert report["transitive"]
    assert (report["refined"] is None) == (depth == 0)
    assert calls == Counter()
    # the counters see a checked construction
    BraidWord.from_letters(4, [BraidLetter("s", 1, 1)])
    assert calls == Counter({"BraidWord": 1})


def test_trusted_objects_equal_the_checked_ones():
    letter = ("s", 2, -1)
    word = (BraidLetter("t", 3, 1), BraidLetter(*letter))
    for cls, fields in (
            (BraidWord, dict(d=3, letters=word)),
            (FreeWord, dict(rank=3, letters=(1, -2, 3)))):
        trusted, checked = _trusted(cls, **fields), cls(**fields)
        assert type(trusted) is cls
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)


def test_checked_construction_gives_the_same_reports(monkeypatch, capsys):
    # every object the package builds trusted must pass the checks of
    # its constructor: route the builds through them and rerun the
    # golden words and 600 sampled transitive words
    sampled = [(b, 3 if k % 4 == 0 else 0)
               for k, b in enumerate(sampled_transitive_braids())]
    trusted = [json.dumps(build_report(b.to_text(), refine_depth=depth))
               for b, depth in sampled]
    built = Counter()

    def checked(cls, **fields):
        built[cls.__name__] += 1
        return cls(**fields)

    replace(monkeypatch, braids, "_trusted", checked)
    out = []
    for words, depth in (("golden_words.txt", 0),
                         ("golden_words_depth3.txt", 3)):
        assert main(["--batch", str(DATA / words), "--format", "json",
                     "--refine-depth", str(depth)]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (DATA / "golden.jsonl").read_text()
    assert [json.dumps(build_report(b.to_text(), refine_depth=depth))
            for b, depth in sampled] == trusted
    assert set(built) == {"FreeWord", "BraidWord"}

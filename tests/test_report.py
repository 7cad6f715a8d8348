"""build_report computes each per-braid object once, the word-level
trace only when refinement needs it, the class space from the
permutation, the simplified pi1 from d without a Tietze pass or a Smith
elimination, and nothing past the permutation for a braid that is not
the standard cycle."""

import sys
from collections import Counter

import pytest

from braidfloer import braids, fourmanifold, freegroup, nielsen, snf
from braidfloer.braids import parse_braid
from braidfloer.fourmanifold import ConfigurationError
from braidfloer.report import build_report

ONCE = ((braids, "induced_permutation"),
        (freegroup, "artin_endo"),
        (fourmanifold, "mapping_torus_presentation"),
        (nielsen, "reidemeister_trace_raw"))


def count_calls(monkeypatch, functions) -> Counter:
    """Count calls of each (module, name) made through any package module
    that imported the function."""
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
    """Replace a function wherever a package module imported it."""
    original = getattr(home, name)
    for modname, module in list(sys.modules.items()):
        if (modname.startswith("braidfloer")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


NEVER = ((nielsen, "_identity_minus_action"),
         (fourmanifold, "tietze_simplify"),
         (fourmanifold, "standard_form_order"),
         (fourmanifold, "abelianization"),
         (snf, "_smith_eliminate"))


def test_each_object_is_built_once(monkeypatch):
    calls = count_calls(monkeypatch, ONCE + NEVER)
    report = build_report("d=4; s1 s2 s3", refine_depth=2)
    assert report["transitive"] and report["refined"] is not None
    # the class space Z/4 comes from the permutation, so I - A is never
    # read off the images, and the simplified pi1 and its group
    # Z x Z/4 come from d, so nothing is simplified or eliminated
    assert calls == Counter({name: 1 for _, name in ONCE})
    assert report["pi1"]["standard_form_order"] == 4


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
        (fourmanifold, "mapping_torus_presentation")))
    for word in words:
        report = build_report(word)
        assert not report["transitive"] and report["warning"]
    assert calls == Counter({"induced_permutation": len(words)})
    # a bad configuration fails before the images are built
    with pytest.raises(ConfigurationError):
        build_report("d=4; s1 s2 s3", config_data={"pieces": []})
    assert calls["artin_endo"] == 0


def test_tietze_work_follows_the_relators_it_touches(monkeypatch):
    # each move rewrites only the relators that contain the eliminated
    # generator, and keys only those that share a fingerprint with
    # another relator (none here: the 3 keys are standard_form_order's);
    # a full rescan makes about 56 times the relator count of each call
    b = parse_braid("d=112; " + " ".join(f"s{i}" for i in range(1, 112)))
    assembled = fourmanifold.assemble_pi1(
        fourmanifold.mapping_torus_presentation(b, freegroup.artin_endo(b)))
    relators = len(assembled.relators)
    calls = count_calls(monkeypatch, ((fourmanifold, "_cyclic_key"),
                                      (fourmanifold, "_substitute_generator")))
    simplified = fourmanifold.tietze_simplify(assembled)
    assert fourmanifold.standard_form_order(simplified) == 112
    assert relators == 225
    assert 0 < calls["_cyclic_key"] <= 10
    assert 0 < calls["_substitute_generator"] <= 5 * relators


def test_abelianization_reads_the_simplified_group(monkeypatch):
    # the report reads Z x Z/d off d; Tietze moves keep the group, so
    # the abelianization of the simplified assembled group agrees
    d = 400
    b = parse_braid(f"d={d}; " + " ".join(f"s{i}" for i in range(1, d)))
    calls = count_calls(monkeypatch, ((fourmanifold, "abelianization"),))
    ab = build_report(b)["pi1"]["abelianization"]
    assert calls == Counter()
    assert ab == {"free_rank": 1, "torsion": [d], "pretty": f"Z x Z/{d}"}
    simplified = fourmanifold.tietze_simplify(fourmanifold.assemble_pi1(
        fourmanifold.mapping_torus_presentation(b, freegroup.artin_endo(b))))
    assert fourmanifold.abelianization(simplified) == snf.AbelianGroup(1, (d,))

"""Correctness checks of a report that do not use the package under test.

Every expected value here is derived from the braid word alone, by the
benchmark's own code (``corpus.py``) or by a closed formula:

* the report validates against ``report_schema.json``;
* ``permutation`` is the swap simulation of the word, and ``transitive``
  holds exactly when that is the standard cycle (1 2 ... d);
* ``lefschetz`` is 1 - trace of the permutation on Z^d / <(1, ..., 1)>,
  that is 2 - (fixed points);
* class indices sum to ``lefschetz``; ``bound`` and the Floer total are
  the sum of their absolute values, the Floer euler is ``lefschetz``;
* transitive braids: class space Z/d, pi1 abelianizes to Z x Z/d,
  characteristic numbers (48, -32, 48, 0), 6d - 2 anticanonical tori
  split (2d - 2) + 2d + 2d, fiber-sum summand 4x and total 8x the bound,
  refined cluster indices summing to their class index;
* non-transitive braids: ``warning`` set and every geometric section null.

Whether pi1 simplification reaches the standard form is not checked: the
method only says it usually does; the share is reported instead.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from corpus import standard_cycle, swap_images

GEOMETRIC = ("config", "nielsen", "floer_bound", "fiber_sum", "pi1",
             "characteristic_numbers", "anticanonical_tori", "refined")
_TOKEN = re.compile(r"s(\d+)(\^-1)?")


def load_validator(schema_path: Path):
    import jsonschema
    schema = json.loads(schema_path.read_text())
    return jsonschema.Draft7Validator(schema)


def parse_word(text: str) -> tuple[int, list[tuple[int, int]]]:
    """d and the Artin letters (index, sign) of a corpus word."""
    head, _, body = text.partition(";")
    d = int(head.strip()[2:])
    letters = []
    for token in body.split():
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise ValueError(f"not a corpus token: {token!r}")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    return d, letters


def check_report(report: dict, word: str, depth: int, validator) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    problems = [f"schema: {e.message}" for e in validator.iter_errors(report)]
    if problems:
        return problems

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    d, letters = parse_word(word)
    images = swap_images(d, letters)
    transitive = images == standard_cycle(d)
    fixed = sum(1 for k, v in enumerate(images, start=1) if k == v)
    lefschetz = 2 - fixed

    expect(report["input"] == word, "input is not the word")
    expect(report["d"] == d, "d")
    expect(report["permutation"] == images, "permutation")
    expect(report["transitive"] is transitive, "transitive")
    expect(report["lefschetz"] == lefschetz,
           f"lefschetz {report['lefschetz']} != 1 - trace = {lefschetz}")

    if not transitive:
        expect(isinstance(report["warning"], str) and report["warning"] != "",
               "non-transitive braid without a warning")
        for key in GEOMETRIC:
            expect(report[key] is None, f"non-transitive braid has {key}")
        return problems

    expect(report["warning"] is None, "transitive braid with a warning")
    n = report["nielsen"]
    indices = [c["index"] for c in n["classes"]]
    bound = sum(abs(c) for c in indices)
    expect(sum(indices) == lefschetz, "class indices do not sum to lefschetz")
    expect(n["bound"] == bound, "bound is not the sum of |index|")
    fb = report["floer_bound"]
    expect(fb["total"] == bound and fb["euler"] == lefschetz,
           "floer bound is not (bound, lefschetz)")
    cs = n["class_space"]
    expect(cs["invariant_factors"] == [d] and cs["order"] == d,
           f"class space {cs['group']} is not Z/{d}")
    ab = report["pi1"]["abelianization"]
    expect(ab["free_rank"] == 1 and ab["torsion"] == [d],
           f"pi1 abelianizes to {ab['pretty']}, not Z x Z/{d}")
    cn = report["characteristic_numbers"]
    expect((cn["chi"], cn["sigma"], cn["c2"], cn["c1_squared"])
           == (48, -32, 48, 0), "characteristic numbers")
    tori = report["anticanonical_tori"]
    expect((tori["total"], tori["h1_parallel"], tori["h3_copies"],
            tori["h4_copies"]) == (6 * d - 2, 2 * d - 2, 2 * d, 2 * d),
           "anticanonical tori")
    fs = report["fiber_sum"]
    expect(fs["summand_total"] == 4 * bound and fs["total"] == 8 * bound,
           "fiber sum is not 4x / 8x the bound")
    refined = report["refined"]
    if depth == 0:
        expect(refined is None, "refined section without refinement")
    else:
        expect(refined is not None and refined["depth"] == depth,
               "refined depth")
        by_label = {tuple(c["label"]): c["index"] for c in n["classes"]}
        for rc in (refined or {}).get("classes", []):
            total = sum(cl["index"] for cl in rc["clusters"])
            expect(total == by_label.get(tuple(rc["label"]), 0),
                   f"refined clusters of {rc['label']} do not sum to its index")
    return problems


def standard_form_reached(report: dict) -> bool | None:
    """None for a non-transitive braid, else whether pi1 reached
    < u, v | [u, v], v^d >."""
    if report["pi1"] is None:
        return None
    return report["pi1"]["standard_form_order"] == report["d"]

"""Assemble all invariants of one braid into a single report.

A report is built from the braid's text, which ``parse_braid`` checks.
It is a plain dict with a fixed key order, so that JSON output is
deterministic byte for byte.  The Lefschetz number is read off the
induced permutation, so every braid gets the braid data and it.  The
other sections need the single closed orbit that gets surgered: a braid
that is not the standard cycle stops at its permutation, with those
sections null and ``warning`` saying why, and builds no images.  For
one that is, ``fourmanifold.pi1_presentations`` renders the three pi1
presentations as text from d and the image letters, and checks on the
images the condition under which a Tietze pass would reach the
simplified one; its standard form order and its abelianization
Z x Z/d are written from d, so a report runs no Tietze pass and
uses nothing of ``snf``.  The Floer bounds are computed once from the
class indices, and the fiber-sum section suspends them.  The gluing
configuration is checked once per braid; the result is ``config``.
Every other invariant section, and the fiber sum's ``summand``, is
stored as the public function that computes it returns it.
"""

from __future__ import annotations

from ._version import __version__
from .braids import induced_permutation, parse_braid
from .floer import (FRAMING_NOTE, MONOTONE_REDUCTION_STATEMENT,
                    RESCALING_CAVEAT, SYMPLECTIC_CLASS_NOTE,
                    dims_lower_bound, suspend_dims)
from .fourmanifold import (DEFAULT_CONFIGURATION, anticanonical_tori,
                           characteristic_numbers, configuration_from_dict,
                           pi1_presentations)
from .freegroup import artin_endo
from .nielsen import (_check_depth, nielsen_decomposition,
                      refine_decomposition)

STATEMENTS = (FRAMING_NOTE, MONOTONE_REDUCTION_STATEMENT,
              RESCALING_CAVEAT, SYMPLECTIC_CLASS_NOTE)


def build_report(text: str, refine_depth: int = 0,
                 config_data: dict = DEFAULT_CONFIGURATION) -> dict:
    """Compute every invariant for the braid word ``text``, which
    ``braids.parse_braid`` reads and checks.

    ``config_data`` is a parsed gluing-configuration dict, by default
    ``DEFAULT_CONFIGURATION``; volume tokens "d" resolve against this
    braid, and anything else, None included, raises ConfigurationError.
    It is checked for every braid, so a malformed one fails
    whatever the braid, but only the standard cycle's report shows it.
    ``refine_depth`` > 0 adds the bounded twisted-conjugacy refinement
    of the raw trace terms; it is not read for a braid that is not the
    standard cycle, whose report stops at its permutation.
    """
    braid = parse_braid(text)
    _check_depth(refine_depth)
    sigma = induced_permutation(braid)
    report = {
        "tool": {"name": "braidfloer", "version": __version__},
        "config": None,
        "input": braid.to_text(),
        "d": braid.d,
        "permutation": list(sigma.images),
        "transitive": sigma.is_standard_cycle(),
        "warning": None,
        # 1 - trace(A): A permutes the classes e_j of Z^d/(1,...,1) as sigma
        "lefschetz": 2 - sigma.fixed_point_count(),
        "nielsen": None,
        "floer_bound": None,
        "fiber_sum": None,
        "pi1": None,
        "characteristic_numbers": None,
        "anticanonical_tori": None,
        "statements": list(STATEMENTS),
        "refined": None,
    }
    config = configuration_from_dict(config_data, braid.d)
    if not report["transitive"]:
        report["warning"] = (
            f"braid induces {_cycle_text(sigma)}, not the standard cycle "
            "(1 2 ... d); no orbit torus to surger, geometric sections "
            "are null")
        return report

    report["config"] = config
    report["characteristic_numbers"] = characteristic_numbers(config)
    report["anticanonical_tori"] = anticanonical_tori(braid.d)
    endo = artin_endo(braid)
    # pi1 before refinement's raw trace, so that the relators and the
    # raw trace, the two largest objects of a report, are never alive at
    # once
    report["pi1"] = _pi1_section(endo)
    report["nielsen"] = nielsen_decomposition(endo, sigma)
    report["floer_bound"] = dims_lower_bound(report["nielsen"])
    report["fiber_sum"] = _fiber_sum_section(report["floer_bound"], braid.d)
    if refine_depth > 0:
        report["refined"] = _refined_section(endo, refine_depth)
    return report


def _cycle_text(sigma) -> str:
    return "permutation " + " ".join(
        "(" + " ".join(map(str, c)) + ")" for c in sigma.cycles())


def _fiber_sum_section(dims: dict, d: int) -> dict:
    """Predicted Floer summand dimensions of the fiber-sum four-manifold
    of the d-cycle braid whose lower bounds are ``dims``, at the flux
    class a1, the one pairing with the surface-direction loop l1.

    The summand at the torsion class [l2] of H_1 = Z<l1> + Z/d<l2>
    carries the braid's bounds suspended by the two-torus, 4x the
    Nielsen bound; every other nonzero torsion multiple k[l2],
    k = 2..d-1, carries zero; and the total over the two flux generators
    +-a1 doubles the summand, 8x the bound.  All are lower bounds.
    """
    summand = suspend_dims(dims)
    return {
        "flux_class": "a1",
        "summand_class": "l2",
        "summand": summand,
        "summand_total": summand["total"],
        "zero_torsion_multiples": list(range(2, d)),
        "total": 2 * summand["total"],
        "exact": False,
        "notes": [RESCALING_CAVEAT, SYMPLECTIC_CLASS_NOTE],
    }


def _pi1_section(endo) -> dict:
    d = endo.rank + 1
    return {
        **pi1_presentations(endo),
        "standard_form_order": d,
        "abelianization": {"free_rank": 1, "torsion": [d],
                           "pretty": f"Z x Z/{d}"},
    }


def _refined_section(endo, depth: int) -> dict:
    classes = []
    for rc in refine_decomposition(endo, depth):
        classes.append({
            "label": list(rc.label),
            "clusters": [
                {"size": len(words), "index": coeff,
                 "representative": words[0].to_text()}
                for words, coeff in rc.clusters],
        })
    return {"depth": depth, "classes": classes}


def _presentation_text(p: dict) -> str:
    gens = ", ".join(p["generators"])
    rels = ", ".join(p["relators"])
    return f"< {gens} | {rels} >" if rels else f"< {gens} | >"


def render_text(report: dict) -> str:
    """Human-readable rendering of a report, one invariant per line."""
    lines = [
        f"{report['tool']['name']} {report['tool']['version']}",
        f"input: {report['input']}",
        f"d: {report['d']}",
        "permutation: " + " ".join(map(str, report["permutation"])),
        f"transitive: {'yes' if report['transitive'] else 'no'}",
    ]
    if report["warning"]:
        lines.append(f"warning: {report['warning']}")
    lines.append(f"lefschetz number: {report['lefschetz']}")
    if report["nielsen"] is not None:
        n = report["nielsen"]
        cs = n["class_space"]
        lines.append(
            f"class space: {cs['group']} (order {cs['order']}, "
            f"{'complete' if n['complete'] else 'nonzero classes only'})")
        for c in n["classes"]:
            label = "[" + " ".join(map(str, c["label"])) + "]"
            lines.append(f"  class {label}: index {c['index']} "
                         f"(element order {c['element_order']})")
        lines.append(f"nielsen bound: {n['bound']}")
    if report["floer_bound"] is not None:
        f = report["floer_bound"]
        lines.append(f"floer dims (lower bound): even {f['even']}, "
                     f"odd {f['odd']}, total {f['total']}")
    if report["fiber_sum"] is not None:
        p = report["fiber_sum"]
        s = p["summand"]
        lines.append(f"fiber sum at flux {p['flux_class']} (lower bound):")
        lines.append(f"  summand at [{p['summand_class']}]: even {s['even']}, "
                     f"odd {s['odd']}, total {p['summand_total']}")
        if p["zero_torsion_multiples"]:
            ks = ", ".join(map(str, p["zero_torsion_multiples"]))
            lines.append(f"  zero summand at k*[{p['summand_class']}] "
                         f"for k = {ks}")
        lines.append(f"  total over both flux generators: {p['total']}")
    if report["pi1"] is not None:
        g = report["pi1"]
        lines.append("pi1 assembled: " + _presentation_text(g["assembled"]))
        lines.append("pi1 simplified: " + _presentation_text(g["simplified"]))
        if g["standard_form_order"] is not None:
            lines.append("pi1 standard form: Z x Z/"
                         f"{g['standard_form_order']} presentation reached")
        lines.append(f"pi1 abelianization: {g['abelianization']['pretty']}")
    if report["characteristic_numbers"] is not None:
        c = report["characteristic_numbers"]
        lines.append(f"characteristic numbers: chi {c['chi']}, "
                     f"sigma {c['sigma']}, c2 {c['c2']}, "
                     f"c1^2 {c['c1_squared']}")
    if report["anticanonical_tori"] is not None:
        t = report["anticanonical_tori"]
        lines.append(f"anticanonical tori: {t['total']} = "
                     f"{t['h1_parallel']} (H1-parallel) + "
                     f"{t['h3_copies']} (H3) + {t['h4_copies']} (H4)")
    if report["refined"] is not None:
        r = report["refined"]
        lines.append(f"refinement (depth {r['depth']}):")
        for c in r["classes"]:
            label = "[" + " ".join(map(str, c["label"])) + "]"
            parts = ", ".join(
                f"{cl['size']} term(s) at {cl['representative']} "
                f"(index {cl['index']})" for cl in c["clusters"])
            lines.append(f"  class {label}: {parts}")
    return "\n".join(lines) + "\n"

"""Assemble all invariants of one braid into a single report.

A report is built from the braid's text, which ``parse_braid`` checks.
It is a plain dict with a fixed key order, so that JSON output is
deterministic byte for byte.  The Lefschetz number is read off the
induced permutation, so every braid gets the braid data and it.  The
other sections need the single closed orbit that gets surgered: a braid
that is not the standard cycle stops at its permutation, with those
sections null and ``warning`` saying why, and builds no images.  For
one that is, ``fourmanifold.pi1_presentations`` returns the ``pi1``
section: the three presentations rendered as text from d and the image
letters, checked on the images for the condition under which a Tietze
pass would reach the simplified one, and its standard form order and
abelianization Z x Z/d written from d, so a report runs no Tietze pass
and uses nothing of ``snf``.  The Floer bounds are computed once from
the class indices, and the fiber-sum section suspends them.  The
built-in gluing configuration is checked once, at import, by the one
pass of ``configuration_from_dict`` at d = "d", which leaves its "d"
volumes unresolved, and its characteristic numbers computed then; each
report resolves the "d" volumes at its d, and the result is
``config``.  A configuration passed to ``build_report``, or given with
``--config``, is checked for every braid.  So ``DEFAULT_CONFIGURATION``
is read at import: to change it, edit a copy and pass the copy.
The report builds the ``refined`` section from the (label, clusters)
pairs of ``nielsen.refine_decomposition``; every other invariant
section is stored as the public function that computes it returns it.
"""

from __future__ import annotations

from ._version import __version__
from .braids import induced_permutation, parse_braid
from .floer import (FRAMING_NOTE, MONOTONE_REDUCTION_STATEMENT,
                    RESCALING_CAVEAT, SYMPLECTIC_CLASS_NOTE,
                    dims_lower_bound, fiber_sum_dims)
from .fourmanifold import (DEFAULT_CONFIGURATION, _configuration, _resolved,
                           anticanonical_tori, characteristic_numbers,
                           configuration_from_dict, pi1_presentations)
from .freegroup import artin_endo
from .nielsen import (_check_depth, nielsen_decomposition,
                      refine_decomposition)

STATEMENTS = (FRAMING_NOTE, MONOTONE_REDUCTION_STATEMENT,
              RESCALING_CAVEAT, SYMPLECTIC_CLASS_NOTE)

# the built-in configuration, checked once with its "d" volumes left
# unresolved: each report resolves it at its braid's d and copies its
# characteristic numbers, which d does not change
_DEFAULT = _configuration(DEFAULT_CONFIGURATION, "d")
_DEFAULT_NUMBERS = characteristic_numbers(_DEFAULT)


def build_report(text: str, refine_depth: int = 0,
                 config_data: dict = DEFAULT_CONFIGURATION) -> dict:
    """Compute every invariant for the braid word ``text``, which
    ``braids.parse_braid`` reads and checks.

    ``config_data`` is a parsed gluing-configuration dict, by default
    ``DEFAULT_CONFIGURATION``, which was checked when this module was
    imported and is not read again; volume tokens "d" resolve against
    this braid.  Any other value, None and an edited copy of the
    default included, is checked for every braid, so a malformed one
    raises ConfigurationError for every braid (a "d" volume paired with
    an integer only at a d that differs from it), but only the standard
    cycle's report shows it.
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
    default = config_data is DEFAULT_CONFIGURATION
    config = (_resolved(_DEFAULT, braid.d) if default
              else configuration_from_dict(config_data, braid.d))
    if not report["transitive"]:
        report["warning"] = (
            f"braid induces {_cycle_text(sigma)}, not the standard cycle "
            "(1 2 ... d); no orbit torus to surger, geometric sections "
            "are null")
        return report

    report["config"] = config
    report["characteristic_numbers"] = (dict(_DEFAULT_NUMBERS) if default
                                        else characteristic_numbers(config))
    report["anticanonical_tori"] = anticanonical_tori(braid.d)
    endo = artin_endo(braid)
    # pi1 before refinement's raw trace, so that the relators and the
    # raw trace, the two largest objects of a report, are never alive at
    # once
    report["pi1"] = pi1_presentations(endo)
    report["nielsen"] = nielsen_decomposition(endo, sigma)
    report["floer_bound"] = dims_lower_bound(report["nielsen"])
    report["fiber_sum"] = fiber_sum_dims(report["floer_bound"], braid.d)
    if refine_depth > 0:
        report["refined"] = _refined_section(endo, sigma, refine_depth)
    return report


def _cycle_text(sigma) -> str:
    return "permutation " + " ".join(
        "(" + " ".join(map(str, c)) + ")" for c in sigma.cycles())


def _refined_section(endo, sigma, depth: int) -> dict:
    return {"depth": depth, "classes": [
        {"label": list(label),
         "clusters": [{"size": len(words), "index": coeff,
                       "representative": words[0].to_text()}
                      for words, coeff in clusters]}
        for label, clusters in refine_decomposition(endo, sigma, depth)]}


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

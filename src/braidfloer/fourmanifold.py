"""Fundamental group and characteristic number bookkeeping for the fiber sum.

The four-manifold under study is glued from a mapping torus piece (the
product of a circle with the three-dimensional mapping torus of the
braid monodromy), a four-torus, and two K3 surfaces, fiber-summed along
square-zero tori named H1/H1p, H3/H3p, H4/H4p.

Fundamental group.  The mapping torus piece has

    pi1 = < l1, l2, x1..x<d-1> | [l1, l2], [l1, xi], l2 xi l2^-1 = phi(xi) >

with l1 the surface-direction circle, l2 the base loop of the mapping
torus and phi the braid action.  Gluing in the other side kills the
meridian of the surgered torus and its second longitude.  Conventions,
fixed once: the meridian is the puncture loop x1; the second longitude
reads l2^d (the surgered torus is the closed orbit of the marked points,
which covers the base circle d times).  Any fiber-word correction to the
longitude, which depends on framing and basepoint bookkeeping, lies in
the normal closure of the meridian classes: transitivity makes the
monodromy relators sweep the relator x1 through every puncture class, so
every xi already dies in the quotient and the assembled group, hence its
certified abelianization Z + Z/d, does not depend on that choice.

The group is simplified by reading, not by a Tietze pass.  For a braid
that induces the standard cycle, every move the pass makes on the
assembled group deletes one x generator by a relator of length 1, and
the result is < l1, l2 | [l1,l2], l2^d > (``pi1_presentations`` proves
it and checks its one condition on the images), so it returns the
report's ``pi1`` section: all three presentations as text straight from
d and the image letters, and the standard form order d and the
abelianization Z + Z/d written from d.

Characteristic numbers.  Euler characteristic and signature add under
fiber sum along tori, c2 = chi and c1^2 = 2 chi + 3 sigma; the piece
invariants live in a configuration table, not in code: a dict in the
``--config`` format, ``DEFAULT_CONFIGURATION`` unless one is given.
``configuration_from_dict`` checks it in two steps: every check that
does not read d (``_checked_configuration``), then the "d" volumes
resolved at d (``_resolved_configuration``), whose one check compares a
pairing with a "d" side in its place among the others.  So the report
checks the built-in configuration once, at import, and resolves it for
each braid.  ``characteristic_numbers`` and ``anticanonical_tori``
return their report sections, as dicts in the order the report prints
them.
"""

from __future__ import annotations

from operator import add

from .braids import _check_int, _is_int, _shown, _shown_repr
from .freegroup import FreeGroupEndo


def pi1_presentations(e: FreeGroupEndo) -> dict:
    """The report's ``pi1`` section, for a braid that induces the
    standard cycle and whose sphere action is ``e``; d = rank + 1: three
    presentations of pi1 as generator names and relator texts, and the
    simplified one's standard form order d and abelianization Z x Z/d.
    ``mapping_torus`` is pi1 of (circle) x (mapping torus of the braid
    action) minus the surgered torus: [l1, l2], the [l1, xi] and
    l2 xi l2^-1 phi(xi)^-1.  ``assembled`` adds the meridian x1 and the
    second longitude l2^d, which the gluing kills (the other side adds
    no generators: its group is the Z already identified with l1).
    ``simplified`` is the Tietze-simplified assembled group, read off
    the images: < l1, l2 | l1 l2 l1^-1 l2^-1, l2^d >.

    For a braid that induces the standard cycle, the Artin action sends
    xk to a conjugate of x(k+1), so each reduced image phi(xk) with
    1 <= k <= d-2 reads u x(k+1) u^-1.  The pass the proof describes is
    the reference Tietze pass in ``tests/_oracles.py``: while some
    generator occurs exactly once in a relator, it solves the shortest
    such relator for it, substitutes, and drops empty and duplicate
    relators.  Under that condition every move it makes on the assembled
    group solves a relator of length 1 for one generator and deletes it:

    * the meridian relator x1 is the only relator of length 1 at the
      start, and starts the chain;
    * once x1 .. xk are deleted, the monodromy relator
      l2 xk l2^-1 phi(xk)^-1 reduces cyclically to x(k+1)^-1, or to
      nothing when k = d-1, while every other relator left is a
      commutator, l2^d, or keeps l2 xj l2^-1 for a live xj, so it is
      the only relator of length 1;
    * deleting letters commutes with free and cyclic reduction, so the
      order in which the relators are rewritten does not change them.

    Deleting xk empties [l1, xk], and no two relators ever meet as
    duplicates.  What is left is relator 0, [l1, l2], and relator 2d,
    l2^d, which no move touches and in which no generator occurs
    exactly once, so the pass stops there (Tietze moves: Magnus, Karrass
    and Solitar, *Combinatorial Group Theory*, 1966, sec. 1.5).  So the
    result has the standard form of order d, and the group abelianizes
    to Z x Z/d.

    The condition is checked on the mirrored pairs of each image: the
    middle letter is x(k+1) and each letter before it is the inverse
    of its mirror after it, so their signed indices add to 0.  The last
    image must be nonempty, so that no monodromy relator cancels at its
    l2^-1 seam or cyclically; an image that fails either check raises
    ValueError.
    """
    if e.rank < 1:
        raise ValueError("need an endomorphism of rank >= 1 (d >= 2)")
    for k, image in enumerate(e.images[:-1], start=1):
        w = image.letters
        m = len(w) // 2
        if len(w) % 2 == 0 or w[m] != k + 1 or any(map(add, w[:m], w[:m:-1])):
            raise ValueError(
                f"the image of x{k} is not a conjugate of x{k + 1}")
    d = e.rank + 1
    if not e.images[-1].letters:
        raise ValueError(f"the image of x{d - 1} is trivial")
    names = [f"x{i}" for i in range(1, d)]
    # inverse[x] prints the inverse of the letter x: "xj^-1" for x = j,
    # and "xj" for x = -j, which indexes from the end of the list
    inverse = ["", *(f"{x}^-1" for x in names), *reversed(names)]
    relators = ["l1 l2 l1^-1 l2^-1"]
    relators += [f"l1 {x} l1^-1 {x}^-1" for x in names]
    relators += [f"l2 {x} l2^-1 "
                 + " ".join(map(inverse.__getitem__, reversed(image.letters)))
                 for x, image in zip(names, e.images)]
    generators = ["l1", "l2", *names]
    longitude = " ".join(["l2"] * d)
    return {
        "mapping_torus": {"generators": generators, "relators": relators},
        "assembled": {"generators": list(generators),
                      "relators": relators + ["x1", longitude]},
        "simplified": {"generators": ["l1", "l2"],
                       "relators": ["l1 l2 l1^-1 l2^-1", longitude]},
        "standard_form_order": d,
        "abelianization": {"free_rank": 1, "torsion": [d],
                           "pretty": f"Z x Z/{d}"},
    }


# ---------------------------------------------------------------------------
# gluing configuration and characteristic numbers

KNOWN_KINDS = {"mapping_torus": (0, 0), "four_torus": (0, 0), "k3": (24, -16)}
# the keys a configuration and each of its pieces may have
CONFIG_KEYS = ("pieces", "pairings")
PIECE_KEYS = ("name", "kind", "chi", "sigma", "tori")

# the largest |chi|, |sigma| and volume a configuration may give; the
# report prints sums and multiples of them, which stay far from the
# interpreter's limit on the digits of a printed integer
CONFIG_INT_BOUND = 10 ** 18

# the built-in configuration, in the --config format; the surgered torus
# H1 covers the base circle d times, whence its volume "d"
DEFAULT_CONFIGURATION = {
    "pieces": [
        {"name": "M1", "kind": "mapping_torus", "chi": 0, "sigma": 0,
         "tori": {"H1": "d"}},
        {"name": "M2", "kind": "four_torus", "chi": 0, "sigma": 0,
         "tori": {"H1p": "d", "H3p": 1, "H4p": 1}},
        {"name": "M3", "kind": "k3", "chi": 24, "sigma": -16, "tori": {"H3": 1}},
        {"name": "M4", "kind": "k3", "chi": 24, "sigma": -16, "tori": {"H4": 1}},
    ],
    "pairings": [["H1", "H1p"], ["H3p", "H3"], ["H4p", "H4"]],
}


class ConfigurationError(ValueError):
    pass


def _is_integer(x, least: int = -CONFIG_INT_BOUND) -> bool:
    """x is an int, not a bool, in [least, CONFIG_INT_BOUND]."""
    return _is_int(x) and least <= x <= CONFIG_INT_BOUND


def _integer(x, what: str) -> int:
    if _is_integer(x):
        return x
    raise _not_integer(x, what)


def _not_integer(x, what: str, least: int = -CONFIG_INT_BOUND
                 ) -> ConfigurationError:
    return ConfigurationError(
        f"{what} must be an integer in [{least}, {CONFIG_INT_BOUND}], "
        f"got {_shown_repr(x)}")


def _text(x, what: str) -> str:
    if isinstance(x, str):
        return x
    raise ConfigurationError(f"{what} must be a string, got {_shown_repr(x)}")


def _misshapen(x, what: str, types) -> ConfigurationError:
    return ConfigurationError(
        f"malformed configuration: {what} must be "
        f"{'an object' if types is dict else 'a list'}, got {_shown_repr(x)}")


def _no_key(what: str, exc: KeyError) -> ConfigurationError:
    return ConfigurationError(f"malformed configuration: {what} has "
                              f"no key {_shown_repr(exc.args[0])}")


def _known_keys(x: dict, keys: tuple[str, ...], what: str) -> None:
    for k in x:
        if k not in keys:
            raise ConfigurationError(f"unknown {what} key {_shown_repr(k)}")


def _piece(n: int, p) -> dict:
    """Piece n (from 1) of a configuration, checked and copied, with
    ``kind`` filled in and each volume a positive integer or "d"."""
    if not isinstance(p, dict):
        raise _misshapen(p, f"piece {n}", dict)
    _known_keys(p, PIECE_KEYS, "piece")
    try:
        name, chi, sigma = p["name"], p["chi"], p["sigma"]
    except KeyError as exc:
        raise _no_key(f"piece {n}", exc) from None
    name = _text(name, "piece name")
    kind = _text(p.get("kind", "custom"), "piece kind")
    chi, sigma = _integer(chi, "chi"), _integer(sigma, "sigma")
    tori = p.get("tori", {})
    if not isinstance(tori, dict):
        raise ConfigurationError(f"tori must be an object, got {_shown_repr(tori)}")
    volumes = {}
    for t, v in tori.items():
        _text(t, "torus name")
        if not (v == "d" or _is_integer(v, 1)):
            raise _not_integer(v, f"volume of torus {_shown_repr(t)}", 1)
        volumes[t] = v
    expected = KNOWN_KINDS.get(kind)
    if expected is not None and (chi, sigma) != expected:
        raise ConfigurationError(
            f"piece {_shown_repr(name)} of kind {_shown_repr(kind)} must have "
            f"(chi, sigma) = {expected}, "
            f"got ({_shown_repr(chi)}, {_shown_repr(sigma)})")
    return dict(name=name, kind=kind, chi=chi, sigma=sigma, tori=volumes)


def _pairing(x) -> list[str]:
    if (not isinstance(x, (list, tuple)) or len(x) != 2
            or not all(isinstance(t, str) for t in x)):
        raise ConfigurationError(
            f"a pairing must list two torus names, got {_shown_repr(x)}")
    return list(x)


def _mismatch(a: str, b: str, u, v) -> ConfigurationError:
    return ConfigurationError(
        f"volume mismatch in pairing ({_shown_repr(a)}, {_shown_repr(b)}): "
        f"{_shown_repr(u)} != {_shown_repr(v)}")


def _checked_configuration(data) -> tuple:
    """The checks of ``configuration_from_dict`` that do not read d, in
    its order: (config, tied, late).  ``config`` is the configuration as
    the report prints it but with the volume token "d" unresolved;
    ``tied`` lists each pairing (a, b, volume of a, volume of b) with a
    "d" side, whose volumes ``_resolved_configuration`` compares at d.
    A check that fails after such a pairing is not raised here: its
    message is ``late``, which that comparison may pre-empt."""
    if not isinstance(data, dict):
        raise _misshapen(data, "configuration", dict)
    _known_keys(data, CONFIG_KEYS, "configuration")
    try:
        pieces, pairings = data["pieces"], data["pairings"]
    except KeyError as exc:
        raise _no_key("configuration", exc) from None
    if not isinstance(pieces, (list, tuple)):
        raise _misshapen(pieces, "pieces", list)
    pieces = [_piece(n, p) for n, p in enumerate(pieces, start=1)]
    if not isinstance(pairings, (list, tuple)):
        raise _misshapen(pairings, "pairings", list)
    pairings = [_pairing(x) for x in pairings]
    volumes: dict[str, int | str] = {}
    for t, v in (item for p in pieces for item in p["tori"].items()):
        if t in volumes:
            raise ConfigurationError(
                f"torus {_shown_repr(t)} appears on two pieces")
        volumes[t] = v
    unpaired = set(volumes)
    tied = []
    late = None
    try:
        for a, b in pairings:
            for t in (a, b):
                if t not in volumes:
                    raise ConfigurationError(
                        f"pairing references unknown torus {_shown_repr(t)}")
                if t not in unpaired:
                    raise ConfigurationError(
                        f"torus {_shown_repr(t)} used in two pairings")
                unpaired.remove(t)
            u, v = volumes[a], volumes[b]
            if "d" in (u, v):
                tied.append((a, b, u, v))
            elif u != v:
                raise _mismatch(a, b, u, v)
        if unpaired:
            raise ConfigurationError(
                f"unpaired tori: {_shown(', '.join(sorted(unpaired)))}")
    except ConfigurationError as exc:
        if not tied:
            raise
        late = str(exc)
    return {"pieces": pieces, "pairings": pairings}, tied, late


def _resolved_configuration(checked: tuple, d: int) -> dict:
    """The configuration ``_checked_configuration`` returned as
    ``checked``, resolved at d: the volumes of each pairing with a "d"
    side compared, then its late message raised, and the configuration
    returned in new dicts and lists, with "d" resolved to d."""
    config, tied, late = checked
    for a, b, u, v in tied:
        u, v = (d if x == "d" else x for x in (u, v))
        if u != v:
            raise _mismatch(a, b, u, v)
    if late is not None:
        raise ConfigurationError(late)
    return {"pieces": [{**p, "tori": {t: d if v == "d" else v
                                      for t, v in p["tori"].items()}}
                       for p in config["pieces"]],
            "pairings": [list(x) for x in config["pairings"]]}


def configuration_from_dict(data: dict, d: int) -> dict:
    """Check a configuration in the ``--config`` format and return it as
    the report prints it, in new dicts and lists, with ``kind`` filled
    in and the volume token "d" resolved to d.  Names are strings, chi
    and sigma integers (not booleans, floats or strings), volumes
    positive integers or "d", all of absolute value at most
    ``CONFIG_INT_BOUND``; ``tori`` is an object and each pairing lists
    two torus names.  The configuration has no key but those of
    ``CONFIG_KEYS`` and a piece none but those of ``PIECE_KEYS``.  A
    known kind has its (chi, sigma), and each torus lies on one piece
    and in one pairing of equal volumes; anything else raises
    ConfigurationError.  Messages are built only when raised.

    The checks run in one order at every d, in two steps:
    ``_checked_configuration`` makes each that does not read d, and
    ``_resolved_configuration`` compares each pairing with a "d" side
    at d, the one check that reads it."""
    return _resolved_configuration(_checked_configuration(data), d)


def characteristic_numbers(config: dict) -> dict:
    """chi and sigma add under fiber sum along tori (chi(T^2) = 0 and
    Novikov additivity); then c2 = chi and c1^2 = 2 chi + 3 sigma.
    ``config`` is a configuration ``configuration_from_dict`` returned,
    or the first of what ``_checked_configuration`` returned: chi and
    sigma do not depend on d.  The result is the report's
    ``characteristic_numbers`` section."""
    chi = sum(p["chi"] for p in config["pieces"])
    sigma = sum(p["sigma"] for p in config["pieces"])
    return {"chi": chi, "sigma": sigma, "c2": chi,
            "c1_squared": 2 * chi + 3 * sigma}


def anticanonical_tori(d: int) -> dict:
    """-d times the canonical class is represented by 6d - 2 disjoint
    tori: 2d - 2 parallel copies of H1 and 2d copies each of H3, H4;
    the result is the report's ``anticanonical_tori`` section."""
    _check_int(d, "d")
    if d < 2:
        raise ValueError("need d >= 2")
    return {"total": 6 * d - 2, "h1_parallel": 2 * d - 2,
            "h3_copies": 2 * d, "h4_copies": 2 * d}

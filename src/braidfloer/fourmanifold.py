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
certified abelianization Z + Z/d, does not depend on that choice.  The
report reads that abelianization off the simplified presentation: the
Tietze moves below preserve the group, so it has the invariant factors
of the assembled one, from two generators (in standard form) instead of
d+1.

Tietze simplification eliminates generators one at a time.  An index
from each generator to the relators that contain it and a heap of
candidate moves make each move cost the relators it rewrites, and a
relator's cyclic key is computed only when another relator has its
length and letter counts, so the d=1000 standard word reaches
< l1, l2 | [l1,l2], l2^d > in under a second.

Characteristic numbers.  Euler characteristic and signature add under
fiber sum along tori, c2 = chi and c1^2 = 2 chi + 3 sigma; the piece
invariants live in a configuration table, not in code.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .braids import (BraidWord, NonTransitiveBraidError, Permutation,
                     induced_permutation)
from .freegroup import (FreeGroupEndo, FreeWord, _cyclic_reduce, _inverse,
                        _letter_texts)
from .snf import AbelianGroup, ClassSpace


@dataclass(frozen=True)
class PresentedGroup:
    """Generators by name, relators as words over them (freely and
    cyclically reduced)."""

    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for r in self.relators:
            if r.rank != len(self.generators):
                raise ValueError("relator rank does not match generator count")
            if not r.letters or _cyclic_reduce(r.letters) != r.letters:
                raise ValueError("relators must be cyclically reduced and nonempty")

    @classmethod
    def make(cls, generators: Iterable[str],
             relators: Iterable[FreeWord]) -> "PresentedGroup":
        gens = tuple(generators)
        cleaned = []
        for r in relators:
            r = r.cyclically_reduced()
            if not r.is_identity():
                cleaned.append(r)
        return cls(gens, tuple(cleaned))

    def relator_texts(self) -> tuple[str, ...]:
        n = len(self.generators)
        table = _letter_texts((*range(-n, 0), *range(1, n + 1)),
                              self.generators)
        return tuple(" ".join(map(table.__getitem__, r.letters))
                     for r in self.relators)

    def to_dict(self) -> dict:
        return {"generators": list(self.generators),
                "relators": list(self.relator_texts())}


def _commutator(rank: int, i: int, j: int) -> FreeWord:
    return FreeWord(rank, (i, j, -i, -j))


def mapping_torus_presentation(b: BraidWord, e: FreeGroupEndo,
                               sigma: Permutation | None = None
                               ) -> PresentedGroup:
    """pi1 of (circle) x (mapping torus of the braid action), minus the
    surgered torus; ``e`` is the braid's action ``artin_endo(b)`` and
    ``sigma``, when the caller has it, is ``induced_permutation(b)``.
    Rejects non-transitive braids: the construction surgers a single
    closed orbit of the marked points."""
    if sigma is None:
        sigma = induced_permutation(b)
    if not sigma.is_standard_cycle():
        raise NonTransitiveBraidError(
            f"braid {b.to_text()!r} does not induce the standard cycle")
    d = b.d
    if e.rank != d - 1:
        raise ValueError(f"endomorphism of rank {e.rank} given for d={d}")
    n = d + 1  # l1, l2, x1..x<d-1>
    gens = ("l1", "l2") + tuple(f"x{i}" for i in range(1, d))
    relators = [_commutator(n, 1, 2)]
    for i in range(1, d):
        relators.append(_commutator(n, 1, 2 + i))
    # a letter of an image, inverted and renumbered past l1, l2
    inverted = {y: (-2 if y > 0 else 2) - y
                for y in (*range(1 - d, 0), *range(1, d))}
    for i in range(1, d):
        # l2 xi l2^-1 phi(xi)^-1: the image is reduced, nonempty and
        # made of x letters, so nothing cancels at the l2^-1 seam or
        # cyclically against the leading l2
        image = e.images[i - 1].letters
        relators.append(FreeWord(n, (2, 2 + i, -2) + tuple(
            map(inverted.__getitem__, reversed(image)))))
    return PresentedGroup(gens, tuple(relators))


def assemble_pi1(mapping_torus: PresentedGroup) -> PresentedGroup:
    """Kill the meridian (x1) and the second longitude (l2^d) of the
    surgered torus in ``mapping_torus_presentation``'s group, whose d+1
    generators are l1, l2, x1..x<d-1>; the other gluing side contributes
    no new generators (its group is the Z already identified with l1)."""
    n = len(mapping_torus.generators)
    extra = (FreeWord(n, (3,)),            # meridian: puncture loop x1
             FreeWord(n, (2,) * (n - 1)))  # second longitude: l2^d
    return PresentedGroup(mapping_torus.generators,
                          mapping_torus.relators + extra)


def _least_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least rotation, in linear time.

    Two candidate starts i < j are compared letter by letter; at the
    first difference after k equal letters, no start in the losing
    candidate's window of k + 1 letters can be least (Booth, "Lexico-
    graphically least circular substrings", Inf. Proc. Lett. 10, 1980,
    gives the failure-function form of the same bound)."""
    n = len(letters)
    doubled = letters + letters
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return doubled[i:i + n]


def _cyclic_key(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form of a cyclic word up to rotation and inversion: the
    least rotation of the word or of its inverse."""
    return min(_least_rotation(letters), _least_rotation(_inverse(letters)))


def _substitute_generator(letters: tuple[int, ...], g: int,
                          value: tuple[int, ...]) -> tuple[int, ...]:
    inverse = _inverse(value)
    out: list[int] = []
    for x in letters:
        if x != g and x != -g:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
            continue
        for y in value if x > 0 else inverse:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def tietze_simplify(g: PresentedGroup) -> PresentedGroup:
    """Deterministic presentation shrinking by generator elimination.

    While some generator occurs exactly once in some relator, the move
    takes the shortest such relator (then the lowest generator index,
    then the first relator), solves it for that generator and
    substitutes the solution into the other relators.  Free and cyclic
    reduction and duplicate removal (up to rotation and inversion)
    follow every move.  Every move removes a generator, so a run makes
    fewer moves than there are generators.  Eliminations preserve the
    group, in particular its abelianization.

    A move costs what it touches.  Relators keep their list position as
    an id; an index from each generator to the ids of the relators that
    contain it gives the relators a move rewrites, and only those are
    substituted into and reduced again.  Each relator's least candidate
    sits in a heap keyed ``(len, generator, relator id)``; an entry
    whose relator has changed since it was pushed is skipped when it
    comes up.  Ids follow list order, so the heap breaks ties as the
    list index would, and duplicates resolve as a pass over the list
    keeps the first of each: a rewritten relator equal to an earlier
    one is dropped, and a later one equal to a rewritten relator is
    dropped in its place.

    Duplicates are found by ``_cyclic_key``, computed only when a
    fingerprint collides.  Rotation and inversion keep a relator's
    length and how often each generator occurs in it; each relator is
    filed under the hash of those (its fingerprint), and keys are
    computed, and kept, only for relators whose fingerprint another live
    relator shares.  Unequal fingerprints that hash alike cost only
    their keys, so the result does not depend on the hash.
    """
    relators: dict[int, tuple[int, ...]] = {}
    prints: dict[int, int] = {}            # relator id -> fingerprint
    sharing: dict[int, list[int]] = {}     # fingerprint -> relator ids
    keys: dict[int, tuple[int, ...]] = {}  # the cyclic keys computed
    containing: dict[int, set[int]] = {}   # generator -> relator ids
    heap: list[tuple[int, int, int, tuple[int, ...]]] = []

    def key(rid: int) -> tuple[int, ...]:
        k = keys.get(rid)
        if k is None:
            k = keys[rid] = _cyclic_key(relators[rid])
        return k

    def drop(rid: int) -> tuple[int, ...]:
        letters = relators.pop(rid)
        keys.pop(rid, None)
        fingerprint = prints.pop(rid)
        peers = sharing[fingerprint]
        peers.remove(rid)
        if not peers:
            del sharing[fingerprint]
        for gen in set(map(abs, letters)):
            containing[gen].discard(rid)
        return letters

    def keep(rid: int, letters: tuple[int, ...]) -> None:
        # of the relators with one key, the one with the least id stays,
        # whatever the order they are kept in
        letters = _cyclic_reduce(letters)
        if not letters:
            return
        counts = Counter(map(abs, letters))
        fingerprint = hash((len(letters), frozenset(counts.items())))
        peers = sharing.get(fingerprint)
        if peers:
            mine = _cyclic_key(letters)
            # live relators have distinct keys: at most one peer matches
            other = next((p for p in peers if key(p) == mine), None)
            if other is not None:
                if other < rid:
                    return
                drop(other)
            keys[rid] = mine
        relators[rid], prints[rid] = letters, fingerprint
        sharing.setdefault(fingerprint, []).append(rid)
        for gen in counts:
            containing.setdefault(gen, set()).add(rid)
        once = [gen for gen, cnt in counts.items() if cnt == 1]
        if once:
            heapq.heappush(heap, (len(letters), min(once), rid, letters))

    for rid, r in enumerate(g.relators):
        keep(rid, r.letters)
    alive = list(range(1, len(g.generators) + 1))
    while heap:
        _, gen, rid, letters = heapq.heappop(heap)
        if relators.get(rid) is not letters:
            continue  # the relator changed or went after this entry
        drop(rid)
        # gen occurs exactly once, with one sign
        pos = letters.index(gen if gen in letters else -gen)
        # gen^e rest = 1 cyclically, so gen^e = rest^-1
        rest = letters[pos + 1:] + letters[:pos]
        value = rest if letters[pos] < 0 else _inverse(rest)
        for t in list(containing[gen]):
            keep(t, _substitute_generator(drop(t), gen, value))
        del containing[gen]
        alive.remove(gen)
    # renumber the surviving generators once, keeping their order; the
    # relators are normalized already, so no second pass through make()
    index: dict[int, int] = {}
    for i, gen in enumerate(alive, start=1):
        index[gen], index[-gen] = i, -i
    return PresentedGroup(
        tuple(g.generators[gen - 1] for gen in alive),
        tuple(FreeWord(len(alive),
                       tuple(map(index.__getitem__, relators[rid])))
              for rid in sorted(relators)))


def standard_form_order(g: PresentedGroup) -> int | None:
    """If g is syntactically < u, v | [u,v], v^k > (up to generator order,
    rotation and inversion of relators), return k; else None."""
    if len(g.generators) != 2 or len(g.relators) != 2:
        return None
    comm = _cyclic_key((1, 2, -1, -2))
    keys = [_cyclic_key(r.letters) for r in g.relators]
    for i in (0, 1):
        if keys[i] != comm:
            continue
        other = g.relators[1 - i].letters
        gens = {abs(x) for x in other}
        signs = {x > 0 for x in other}
        if len(gens) == 1 and len(signs) == 1:
            return len(other)
    return None


def abelianization(g: PresentedGroup) -> AbelianGroup:
    """Z^generators modulo the relator exponent vectors, the group of
    the class space of their sparse counts: row i holds, per relator,
    the exponent sum of generator i in it, where that is not zero."""
    rows: list[dict[int, int]] = [{} for _ in g.generators]
    for c, r in enumerate(g.relators):
        for x, count in Counter(r.letters).items():
            row = rows[abs(x) - 1]
            row[c] = row.get(c, 0) + (count if x > 0 else -count)
    return ClassSpace.from_rows(
        [{c: x for c, x in row.items() if x} for row in rows],
        len(g.relators)).group()


# ---------------------------------------------------------------------------
# gluing configuration and characteristic numbers

KNOWN_KINDS = {"mapping_torus": (0, 0), "four_torus": (0, 0), "k3": (24, -16)}

# the largest |chi|, |sigma| and volume a configuration may give; the
# report prints sums and multiples of them, which stay far from the
# interpreter's limit on the digits of a printed integer
CONFIG_INT_BOUND = 10 ** 18


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class GluingPiece:
    """A closed piece of the fiber sum with its named square-zero tori.

    ``tori`` pairs a torus name with its volume (the pairing number used
    to match the two sides of a gluing).  For the standard kinds the
    (chi, sigma) values are checked against the table above.
    """

    name: str
    kind: str
    euler_char: int
    signature: int
    tori: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        expected = KNOWN_KINDS.get(self.kind)
        if expected is not None and (self.euler_char, self.signature) != expected:
            raise ConfigurationError(
                f"piece {self.name!r} of kind {self.kind!r} must have "
                f"(chi, sigma) = {expected}, got "
                f"{(self.euler_char, self.signature)}")
        names = [t for t, _ in self.tori]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"piece {self.name!r} repeats a torus name")


@dataclass(frozen=True)
class SumConfiguration:
    pieces: tuple[GluingPiece, ...]
    pairings: tuple[tuple[str, str], ...]

    def torus_volumes(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for piece in self.pieces:
            for torus, vol in piece.tori:
                if torus in out:
                    raise ConfigurationError(f"torus {torus!r} appears on two pieces")
                out[torus] = vol
        return out

    def validate(self) -> None:
        volumes = self.torus_volumes()
        used: set[str] = set()
        for a, b in self.pairings:
            for t in (a, b):
                if t not in volumes:
                    raise ConfigurationError(f"pairing references unknown torus {t!r}")
                if t in used:
                    raise ConfigurationError(f"torus {t!r} used in two pairings")
                used.add(t)
            if volumes[a] != volumes[b]:
                raise ConfigurationError(
                    f"volume mismatch in pairing ({a!r}, {b!r}): "
                    f"{volumes[a]} != {volumes[b]}")
        unpaired = sorted(set(volumes) - used)
        if unpaired:
            raise ConfigurationError(f"unpaired tori: {', '.join(unpaired)}")


class CharacteristicNumbers(NamedTuple):
    chi: int
    sigma: int
    c2: int
    c1_squared: int


def characteristic_numbers(cfg: SumConfiguration) -> CharacteristicNumbers:
    """chi and sigma add under fiber sum along tori (chi(T^2) = 0 and
    Novikov additivity); then c2 = chi and c1^2 = 2 chi + 3 sigma."""
    cfg.validate()
    chi = sum(p.euler_char for p in cfg.pieces)
    sigma = sum(p.signature for p in cfg.pieces)
    return CharacteristicNumbers(chi=chi, sigma=sigma, c2=chi,
                                 c1_squared=2 * chi + 3 * sigma)


def default_configuration(d: int) -> SumConfiguration:
    """Mapping torus piece + four-torus + two K3 surfaces, glued along
    H1/H1p, H3p/H3, H4p/H4.  The surgered torus H1 covers the base circle
    d times, whence its volume d."""
    if d < 2:
        raise ValueError("need d >= 2")
    return SumConfiguration(
        pieces=(
            GluingPiece("M1", "mapping_torus", 0, 0, (("H1", d),)),
            GluingPiece("M2", "four_torus", 0, 0,
                        (("H1p", d), ("H3p", 1), ("H4p", 1))),
            GluingPiece("M3", "k3", 24, -16, (("H3", 1),)),
            GluingPiece("M4", "k3", 24, -16, (("H4", 1),)),
        ),
        pairings=(("H1", "H1p"), ("H3p", "H3"), ("H4p", "H4")),
    )


def configuration_from_dict(data: dict, d: int) -> SumConfiguration:
    """Build a configuration from parsed JSON; the volume token "d"
    resolves to the braid's strand count.  Values are taken only as the
    report schema types them: names are strings, chi and sigma are
    integers (not booleans, floats or strings), volumes are positive
    integers, all of absolute value at most ``CONFIG_INT_BOUND``,
    ``tori`` is an object and each pairing lists two torus names;
    anything else raises ConfigurationError."""
    def integer(x, what: str, least: int = -CONFIG_INT_BOUND) -> int:
        if (isinstance(x, int) and not isinstance(x, bool)
                and least <= x <= CONFIG_INT_BOUND):
            return x
        raise ConfigurationError(
            f"{what} must be an integer in [{least}, {CONFIG_INT_BOUND}], "
            f"got {x!r}")

    def text(x, what: str) -> str:
        if isinstance(x, str):
            return x
        raise ConfigurationError(f"{what} must be a string, got {x!r}")

    def tori(p) -> tuple[tuple[str, int], ...]:
        given = p.get("tori", {})
        if not isinstance(given, dict):
            raise ConfigurationError(f"tori must be an object, got {given!r}")
        return tuple(
            (t, d if v == "d" else integer(v, f"volume of torus {t!r}", 1))
            for t, v in given.items())

    def pairing(x) -> tuple[str, str]:
        if (not isinstance(x, (list, tuple)) or len(x) != 2
                or not all(isinstance(t, str) for t in x)):
            raise ConfigurationError(
                f"a pairing must list two torus names, got {x!r}")
        return (x[0], x[1])

    try:
        pieces = tuple(
            GluingPiece(
                name=text(p["name"], "piece name"),
                kind=text(p.get("kind", "custom"), "piece kind"),
                euler_char=integer(p["chi"], "chi"),
                signature=integer(p["sigma"], "sigma"),
                tori=tori(p),
            )
            for p in data["pieces"])
        pairings = tuple(pairing(x) for x in data["pairings"])
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from exc
    return SumConfiguration(pieces=pieces, pairings=pairings)


def configuration_to_dict(cfg: SumConfiguration) -> dict:
    return {
        "pieces": [
            {"name": p.name, "kind": p.kind, "chi": p.euler_char,
             "sigma": p.signature, "tori": {t: v for t, v in p.tori}}
            for p in cfg.pieces],
        "pairings": [list(pair) for pair in cfg.pairings],
    }


class AnticanonicalTori(NamedTuple):
    total: int
    h1_parallel: int
    h3_copies: int
    h4_copies: int


def anticanonical_tori(d: int) -> AnticanonicalTori:
    """-d times the canonical class is represented by 6d - 2 disjoint
    tori: 2d - 2 parallel copies of H1 and 2d copies each of H3, H4."""
    if d < 2:
        raise ValueError("need d >= 2")
    out = AnticanonicalTori(total=6 * d - 2, h1_parallel=2 * d - 2,
                            h3_copies=2 * d, h4_copies=2 * d)
    assert out.h1_parallel + out.h3_copies + out.h4_copies == out.total
    return out

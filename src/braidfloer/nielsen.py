"""Lefschetz numbers and homological Nielsen class data for free group endos.

For an endomorphism phi of a free group (here: the braid action on the
punctured-sphere group), the generalized Lefschetz number is computed by
the Fox-Jacobian trace formula

    R(phi) = [1] - sum_j [ d phi(xj) / d xj ],

a formal sum of group elements taken up to phi-twisted conjugacy
(g ~ h g phi(h)^-1).  Twisted conjugacy classes are separated here at
the homological level only: abelianizing sends a class to a well defined
element of coker(I - A), A the abelianized matrix of phi, and R is
reported per coker class.  The class-level coefficients N_c are the
fixed point indices of the corresponding generalized fixed point
classes; their sum is the Lefschetz number L = 1 - trace(A), and
sum_c |N_c| is a lower bound for the rank of any chain complex whose
generators split over these classes.

The sign and projection conventions above are pinned by geometry:
 * identity endo of rank n: R = (1 - n)[0], the Euler characteristic of
   a wedge of n circles concentrated at the trivial class;
 * the half twist on two punctures (phi: x -> x^-1): R = [0] + [1] in
   coker(I - A) = Z/2, matching the rotation of the sphere by pi about
   a polar axis, which has two fixed points of index +1 in distinct
   classes;
 * the standard 3-cycle braid: two classes of index +1 and one of index
   0 in Z/3, matching the 2 pi / 3 rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freegroup import (FreeGroupEndo, FreeWord, GroupRingElement,
                        abelianization_matrix, fox_derivative)
from .snf import ClassSpace, IntMatrix

ENUMERATION_CAP = 512  # list every class of a finite coker up to this order


def lefschetz_number(e: FreeGroupEndo) -> int:
    """1 - trace of the abelianized action."""
    return 1 - abelianization_matrix(e).trace()


def class_space(e: FreeGroupEndo) -> ClassSpace:
    """coker(I - A): the homological twisted-conjugacy classes."""
    a = abelianization_matrix(e)
    return ClassSpace.from_matrix(IntMatrix.identity(e.rank).sub(a))


def reidemeister_trace_raw(e: FreeGroupEndo) -> GroupRingElement:
    """[1] - sum_j d(e(xj))/dxj, before any class projection.

    Individual terms depend on basepoint conventions; only their images
    in the twisted-conjugacy quotient are invariant.
    """
    total = GroupRingElement.one(e.rank)
    for j in range(1, e.rank + 1):
        total = total - fox_derivative(e.images[j - 1], j)
    return total


@dataclass(frozen=True)
class NielsenDecomposition:
    """Class-level fixed point indices N_c over coker(I - A).

    ``entries`` maps canonical class labels to indices, sorted by label.
    When the class space is finite (and small enough to enumerate),
    classes of index 0 are listed too and ``complete`` is True; for an
    infinite class space only nonzero indices appear.  ``raw`` is the
    raw trace the indices were projected from, kept for refinement.
    """

    space: ClassSpace
    raw: GroupRingElement
    entries: tuple[tuple[tuple[int, ...], int], ...]
    lefschetz: int
    complete: bool

    def __post_init__(self) -> None:
        if sum(c for _, c in self.entries) != self.lefschetz:
            raise ValueError("class indices do not sum to the Lefschetz number")

    def indices(self) -> dict[tuple[int, ...], int]:
        return dict(self.entries)

    def bound(self) -> int:
        """sum_c |N_c|, the Nielsen-type lower bound."""
        return sum(abs(c) for _, c in self.entries)

    def order_index_multiset(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, index) pairs; invariant under conjugation.

        Element order 0 stands for infinite.  Zero indices are dropped so
        the multiset does not depend on whether enumeration was possible.
        """
        pairs = [(self.space.element_order(label), c)
                 for label, c in self.entries if c != 0]
        return tuple(sorted(pairs))


def nielsen_decomposition(e: FreeGroupEndo) -> NielsenDecomposition:
    """Project the raw trace onto coker(I - A).  The Lefschetz number is
    the augmentation of the raw trace: the Fox derivative d(w)/dxj
    augments to the exponent sum of xj in w, so the trace augments to
    1 - trace(A)."""
    cs = class_space(e)
    raw = reidemeister_trace_raw(e)
    agg: dict[tuple[int, ...], int] = {}
    for word, coeff in raw.items():
        label = cs.project(word.exponent_vector())
        agg[label] = agg.get(label, 0) + coeff
    order = cs.order()
    complete = order is not None and order <= ENUMERATION_CAP
    if complete:
        for label in cs.enumerate_labels():
            agg.setdefault(label, 0)
    else:
        agg = {label: c for label, c in agg.items() if c != 0}
    return NielsenDecomposition(
        space=cs,
        raw=raw,
        entries=tuple(sorted(agg.items())),
        lefschetz=raw.augmentation(),
        complete=complete,
    )


def reidemeister_trace(e: FreeGroupEndo) -> GroupRingElement:
    """R(phi) as a formal sum over canonical class representatives.

    One representative word per homological class with nonzero index;
    the representative realizes the canonical label through U^-1, so
    projecting it returns the label.
    """
    nd = nielsen_decomposition(e)
    terms: dict[FreeWord, int] = {}
    for label, coeff in nd.entries:
        if coeff == 0:
            continue
        vec = nd.space.representative_vector(label)
        letters: list[int] = []
        for j, power in enumerate(vec, start=1):
            letters.extend([j if power > 0 else -j] * abs(power))
        terms[FreeWord(e.rank, tuple(letters))] = coeff
    return GroupRingElement(e.rank, terms)


def nielsen_bound(e: FreeGroupEndo) -> int:
    return nielsen_decomposition(e).bound()


def twisted_conjugacy_search(e: FreeGroupEndo, g: FreeWord, h: FreeWord,
                             depth: int) -> FreeWord | None:
    """Look for u with |u| <= depth and h = u g e(u)^-1.

    Breadth-first over the twisted-conjugation orbit: prepending a letter
    s to the conjugator turns t into s t e(s)^-1.  Returns a witness
    conjugator, or None.  None proves nothing (merge-only semantics).
    """
    if g.rank != e.rank or h.rank != e.rank:
        raise ValueError("rank mismatch")
    if g == h:
        return FreeWord.identity(e.rank)
    gens = [FreeWord.generator(e.rank, j, p)
            for j in range(1, e.rank + 1) for p in (1, -1)]
    image_inv = {w.letters: e.apply(w).inverse() for w in gens}
    seen = {g: FreeWord.identity(e.rank)}
    frontier = [g]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            u = seen[t]
            for s in gens:
                t2 = s * t * image_inv[s.letters]
                if t2 in seen:
                    continue
                seen[t2] = s * u
                if t2 == h:
                    return seen[t2]
                nxt.append(t2)
        if not nxt:
            break
        frontier = nxt
    return None


@dataclass(frozen=True)
class RefinedClass:
    """Clusters of raw trace terms inside one homological class.

    Each cluster is a set of group elements proven pairwise twisted
    conjugate by an explicit conjugator, with the summed coefficient.
    Distinct clusters are NOT claimed to be distinct fixed point classes;
    the certified decomposition is the homological one.
    """

    label: tuple[int, ...]
    clusters: tuple[tuple[tuple[FreeWord, ...], int], ...]


def refine_decomposition(e: FreeGroupEndo, nd: NielsenDecomposition,
                         depth: int) -> tuple[RefinedClass, ...]:
    """Bounded-depth merge of raw trace terms within homological classes.

    ``nd`` is ``nielsen_decomposition(e)``; its class space and raw
    trace are reused."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    by_label: dict[tuple[int, ...], list[tuple[FreeWord, int]]] = {}
    for word, coeff in nd.raw.items():
        label = nd.space.project(word.exponent_vector())
        by_label.setdefault(label, []).append((word, coeff))
    out = []
    for label in sorted(by_label):
        members = sorted(by_label[label], key=lambda t: (len(t[0]), t[0].letters))
        parent = list(range(len(members)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        if depth > 0:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if find(i) == find(j):
                        continue
                    if twisted_conjugacy_search(e, members[i][0], members[j][0],
                                                depth) is not None:
                        parent[find(j)] = find(i)
        groups: dict[int, list[int]] = {}
        for i in range(len(members)):
            groups.setdefault(find(i), []).append(i)
        clusters = tuple(sorted(
            ((tuple(members[i][0] for i in idxs), sum(members[i][1] for i in idxs))
             for idxs in groups.values()),
            key=lambda cl: tuple((len(w), w.letters) for w in cl[0])))
        out.append(RefinedClass(label=label, clusters=clusters))
    return tuple(out)

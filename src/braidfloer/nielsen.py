"""Homological Nielsen class data for free group endomorphisms.

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

The decomposition is built only for a braid whose permutation sigma is
one d-cycle, which is what the report surgers.  A permutes the puncture
classes of Z^d/(1, ..., 1) as sigma does, so coker(I - A) is Z/d, every
generator xj lies in class 1, and the class of a group element is its
exponent sum mod d; a d-cycle fixes no puncture, so L = 2.  The N_c are
read off one prefix scan of each image phi(xj) (``_trace_terms``), in
time linear in the image letters, and must sum to 2, which checks the
images against sigma: every term of R is a prefix of an image, labelled
by its exponent sum; ``nielsen_decomposition`` returns them as the
report's ``nielsen`` section.  R itself, as words
(``reidemeister_trace_raw``), is built only for the refinement, which
returns one (label, clusters) pair per class.

``class_space`` reads coker(I - A) off the images instead
(``_identity_minus_action``), for any endomorphism: it is the
image-based reference the Z/d of exponent sums is checked against.

The sign and projection conventions above are pinned by geometry:
 * identity endo of rank n: the raw trace is 1 - n times the trivial
   element, the Euler characteristic of a wedge of n circles;
 * the half twist on two punctures (phi: x -> x^-1): R = [0] + [1] in
   coker(I - A) = Z/2, matching the rotation of the sphere by pi about
   a polar axis, which has two fixed points of index +1 in distinct
   classes;
 * the standard 3-cycle braid: two classes of index +1 and one of index
   0 in Z/3, matching the 2 pi / 3 rotation.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .braids import Permutation, _is_int, _shown_repr
from .freegroup import FreeGroupEndo, FreeWord, _concat, _inverse
from .snf import ClassSpace

ENUMERATION_CAP = 512  # list every class of Z/d up to this d
# Orbit-ball elements one refinement may build for one class, over the
# balls of its terms and the L(t) an odd depth computes (only one
# class's balls are alive at once); an element also counts once per
# BALL_LETTERS_PER_ELEMENT of its letters, so that the cap bounds memory
# when long images make long elements.
ORBIT_BALL_CAP = 1_000_000
BALL_LETTERS_PER_ELEMENT = 32


class RefinementLimitError(ValueError):
    """Twisted-conjugacy refinement would exceed ORBIT_BALL_CAP."""


def _identity_minus_action(e: FreeGroupEndo) -> list[list[int]]:
    """I - A as dense rows, for A the abelianized action: column j of A
    is the exponent vector of e(xj)."""
    cols = [w.exponent_vector() for w in e.images]
    return [[int(i == j) - col[i] for j, col in enumerate(cols)]
            for i in range(e.rank)]


def class_space(e: FreeGroupEndo) -> ClassSpace:
    """coker(I - A): the homological twisted-conjugacy classes."""
    return ClassSpace.from_rows(_identity_minus_action(e))


def _trace_terms(e: FreeGroupEndo) -> Iterator[tuple]:
    """The terms of [1] - sum_j d(e(xj))/dxj, [1] first, as (image
    letters w, prefix length t, coefficient, exponent sum of w[:t]): the
    term is the reduced prefix w[:t].  -d(w)/dxj is -[p] for each letter
    xj and +[p xj^-1] for each xj^-1, p the prefix before the letter, so
    the term of an xj^-1 is the prefix after it.  The scan reads each
    image in place and tests a letter's sign first, so most letters,
    which give no term, cost one comparison and the running sum."""
    yield (), 0, 1, 0
    for j, image in enumerate(e.images, start=1):
        w = image.letters
        inv = -j
        s = 0
        for t, x in enumerate(w):
            if x > 0:
                if x == j:
                    yield w, t, -1, s
                s += 1
            else:
                s -= 1
                if x == inv:
                    yield w, t + 1, 1, s


def reidemeister_trace_raw(e: FreeGroupEndo) -> dict[FreeWord, int]:
    """[1] - sum_j d(e(xj))/dxj, before any class projection, as a map
    from group element to nonzero coefficient (``_trace_terms``).

    Individual terms depend on basepoint conventions; only their images
    in the twisted-conjugacy quotient are invariant.
    """
    terms: dict[tuple[int, ...], int] = {}
    for w, t, coeff, _ in _trace_terms(e):
        prefix = w[:t]
        terms[prefix] = terms.get(prefix, 0) + coeff
    # a prefix of a reduced image is reduced, with letters in range
    return {FreeWord(e.rank, p): c for p, c in terms.items() if c}


def _class_indices(e: FreeGroupEndo, d: int) -> list[int]:
    """The raw trace summed per class of Z/d, indexed by class: a term's
    class is its exponent sum mod d, which ``_trace_terms`` carries, so
    no term, word or exponent vector is built."""
    totals = [0] * d
    for _, _, coeff, s in _trace_terms(e):
        totals[s % d] += coeff
    return totals


def _check_cycle(e: FreeGroupEndo, sigma: Permutation) -> int:
    """d = e.rank + 1, once sigma is one cycle of degree d >= 2: only a
    d-cycle makes coker(I - A) the Z/d of exponent sums.  It walks the
    orbit of 1 along ``sigma.images``, which is one cycle exactly when
    it has d points; no cycle decomposition is built."""
    d = e.rank + 1
    images = sigma.images
    if d >= 2 and len(images) == d:
        k, n = images[0], 1
        while k != 1:
            k, n = images[k - 1], n + 1
        if n == d:
            return d
    raise ValueError(f"need one cycle of degree {d} >= 2, "
                     f"got permutation {_shown_repr(images)}")


def nielsen_decomposition(e: FreeGroupEndo, sigma: Permutation) -> dict:
    """The report's ``nielsen`` section for the action e of a braid
    whose permutation sigma is one cycle of degree d = e.rank + 1: the
    class space Z/d, and the raw trace's index N_c per class of Z/d, by
    one prefix scan per image (``_class_indices``).  Each class lists
    its label [k], k the exponent sum mod d, its order in Z/d and its
    index, in label order; ``bound`` is sum_c |N_c|, the Nielsen-type
    lower bound.  When d <= ENUMERATION_CAP, classes of index 0 are
    listed too and ``complete`` is true; otherwise only nonzero indices
    appear.

    Raises ValueError for any other sigma: only a d-cycle makes
    coker(I - A) the Z/d of exponent sums.  Raises ValueError too if the
    indices do not sum to the Lefschetz number 1 - trace(A) = 2: A
    permutes the puncture classes as sigma does, and a d-cycle fixes
    none of them.
    """
    d = _check_cycle(e, sigma)
    indices = _class_indices(e, d)
    if sum(indices) != 2:
        raise ValueError("class indices do not sum to the Lefschetz number 2")
    complete = d <= ENUMERATION_CAP
    return {
        "class_space": {"invariant_factors": [d], "group": f"Z/{d}",
                        "order": d},
        "complete": complete,
        "classes": [{"label": [k], "element_order": d // gcd(d, k),
                     "index": c}
                    for k, c in enumerate(indices) if c or complete],
        "bound": sum(map(abs, indices)),
    }


def _twist_steps(e: FreeGroupEndo) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(s, e(s)^-1) for each of the 2n letters s, read off the images.

    Prepending s to a conjugator turns t = u g e(u)^-1 into
    s t e(s)^-1."""
    steps = []
    for j, image in enumerate(e.images, start=1):
        steps.append((j, _inverse(image.letters)))
        steps.append((-j, image.letters))
    return tuple(steps)


def _twists(t: tuple[int, ...], steps) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(s, s t e(s)^-1) for each step (s, e(s)^-1) of ``_twist_steps``:
    the elements one twisted conjugation away from the reduced tuple t."""
    for s, image_inv in steps:
        # t and e(s)^-1 are reduced, so s t e(s)^-1 can only cancel at its
        # two junctions: s against t[0], then the longest overlap at the
        # right seam
        yield s, _concat(t[1:] if t and t[0] == -s else (s,) + t, image_inv)


def _seam_index(steps) -> dict[int, list[tuple[int, ...]]]:
    """m -> the images e(s), one entry for each letter s and position p
    with e(s)[p] == s and m = |e(s)| - p - 1 letters after it.  The
    entries are the step words of ``_twist_steps`` themselves, so the
    index is linear in the image letters.

    A twist t' = s t e(s)^-1 of a reduced t is one of three kinds:
    (a) it cancels t's first letter, and t' = L(t), where L(x) is
    x[1:] e(-x[0])^-1 reduced; (b) s t is reduced and the right seam
    leaves some of it, so t' begins with s and t = L(t'); (c) the seam
    cancels all of s t, so e(s) = t'^-1 s t reduced: t is the suffix of
    e(s) of length m = |t| after a position p of s, and
    t' = e(s)[:p]^-1.  Twists are invertible, t = s^-1 t' e(s^-1)^-1,
    and the index lists e(s^-1) = e(s)^-1 too, so a (c) pair is found
    from either of its elements.

    A twist undone by (a): if t = s t' e(s)^-1 and t begins with s, then
    L(t) = s^-1 t e(s^-1)^-1 = s^-1 (s t' e(s)^-1) e(s) = t', whatever
    cancelled.  In an orbit ball, t = u g e(u)^-1 with u = s u', so when
    t[0] == u[0] its L(t) is t' = u' g e(u')^-1, the element before t
    on its breadth-first path."""
    index: dict[int, list[tuple[int, ...]]] = {}
    for s, image_inv in steps:
        # e(s)^-1 is e(-s), the image of the letter -s
        for p, x in enumerate(image_inv):
            if x == -s:
                index.setdefault(len(image_inv) - p - 1, []).append(image_inv)
    return index


def _seam_partners(t: tuple[int, ...], seams) -> Iterator[tuple[int, ...]]:
    """The (c) neighbours t' of the reduced tuple t, from the index of
    ``_seam_index``: e(s)[:p]^-1 for each e(s) whose suffix after p is t."""
    m = len(t)
    for image in seams.get(m, ()):
        if image[len(image) - m:] == t:
            yield _inverse(image[:len(image) - m - 1])


def _limit_error(radius: int) -> RefinementLimitError:
    return RefinementLimitError(
        f"twisted-conjugacy refinement needs more than "
        f"ORBIT_BALL_CAP = {ORBIT_BALL_CAP} orbit-ball elements "
        f"(ball radius {radius}); use a smaller refine depth")


def _orbit_ball(g: tuple[int, ...], steps, radius: int, room: int
                ) -> tuple[dict[tuple[int, ...], tuple[int, ...]], int]:
    """The twisted-conjugation orbit of g out to conjugator length radius,
    and its size as ORBIT_BALL_CAP counts it: one per element plus one
    per BALL_LETTERS_PER_ELEMENT letters of all its elements.

    The ball maps each u g e(u)^-1 with |u| <= radius (reduced letter
    tuples) to a conjugator u of least length, found breadth first
    (``_twists``), so len(u) is the element's distance from g, and the
    elements with len(u) == radius are the boundary whose neighbours
    refinement looks up at odd depths.  Raises RefinementLimitError
    once the size exceeds ``room``."""
    ball = {g: ()}
    letters = len(g)
    size = 1 + letters // BALL_LETTERS_PER_ELEMENT
    frontier = [g]
    for _ in range(radius):
        nxt = []
        for t in frontier:
            u = ball[t]
            for s, t2 in _twists(t, steps):
                if t2 not in ball:
                    # s u is reduced: if u began with s^-1, t2 would lie
                    # one layer nearer g and be in the ball already
                    ball[t2] = (s,) + u
                    nxt.append(t2)
                    letters += len(t2)
            size = len(ball) + letters // BALL_LETTERS_PER_ELEMENT
            if size > room:
                raise _limit_error(radius)
        frontier = nxt
    return ball, size


def _check_depth(depth) -> None:
    """Raise ValueError unless depth is an int >= 0 (a bool is not)."""
    if not _is_int(depth) or depth < 0:
        raise ValueError(
            f"refine depth must be an int >= 0, got {_shown_repr(depth)}")


def refine_decomposition(e: FreeGroupEndo, sigma: Permutation, depth: int
                         ) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """Merge raw trace terms of one homological class whose twisted
    conjugacy is witnessed by a conjugator of length <= depth: one
    (label, clusters) pair per class, in label order.  A cluster pairs
    terms proven pairwise twisted conjugate, in members' order (by
    length, then letters), with their summed coefficient.  Distinct
    clusters are NOT claimed to be distinct fixed point classes.

    e is the action of a braid whose permutation sigma is one cycle of
    degree d = e.rank + 1, else ValueError (``_check_cycle``); the terms
    of ``reidemeister_trace_raw(e)``, which only refinement builds, are
    labelled (k,), k their exponent sum mod d, as in
    ``nielsen_decomposition``.  The search meets in the middle: if
    u = a b with |a| <= depth // 2 and |b| <= (depth + 1) // 2, then
    h = u g e(u)^-1 exactly when b g e(b)^-1 = a^-1 h e(a^-1)^-1, so
    two terms g and h are within depth of each other exactly when the
    radius (depth + 1) // 2 ball of one meets the radius depth // 2
    ball of the other.  A class of
    one term builds no ball.  In a class of m >= 2 terms each term
    builds its radius depth // 2 ball once, in members' order, and looks
    it up in one map of the balls of the terms before it, into which
    every term but the last then adds its own.  At odd depth two terms
    are also within depth when a boundary element t of one ball (at
    distance depth // 2 from its term) is one twist from a boundary
    element of an earlier ball; by the three kinds of twist of
    ``_seam_index`` that neighbour is L(t), found in the map of balls,
    or has t as its L, found in a second map of L(t) for the stored
    boundary elements, or is a (c) partner the index yields.  So each
    boundary element costs at most one twist and a few dict lookups
    instead of 2n twists.  A boundary element t whose first letter is
    its conjugator's computes no L(t): by the lemma of ``_seam_index``
    L(t) is the element before t in the same ball, which the ball's own
    lookups have merged already, and a later term whose boundary holds
    it finds it in the map of balls.  The balls and the L(t) computed
    for one class together may count at most ORBIT_BALL_CAP, each
    element as ``_orbit_ball`` counts it (one plus its letters //
    BALL_LETTERS_PER_ELEMENT); past that RefinementLimitError is
    raised.  Each class starts the count afresh: the balls of a class
    are dropped before the next class is searched.
    """
    _check_depth(depth)
    d = _check_cycle(e, sigma)
    steps = _twist_steps(e)
    radius = depth // 2
    if depth % 2:
        step_inv = dict(steps)
        seams = _seam_index(steps)
    groups: dict[tuple[int, ...], list[tuple[FreeWord, int]]] = {}
    for term in reidemeister_trace_raw(e).items():
        p = term[0].letters
        # exponent sum: len(p) less twice the number of inverse letters
        label = ((len(p) - 2 * sum(map((0).__gt__, p))) % d,)
        groups.setdefault(label, []).append(term)
    out = []
    for label in sorted(groups):
        members = sorted(groups[label], key=lambda t: (len(t[0]), t[0].letters))
        parent = list(range(len(members)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        if depth > 0 and len(members) > 1:
            # element of a radius depth // 2 ball -> a member that holds
            # it; members sharing such an element are merged already
            near: dict[tuple[int, ...], int] = {}
            # L(t) of a stored boundary element t -> every member with
            # such a t: members sharing an L(t) may lie depth + 1 apart
            back: dict[tuple[int, ...], list[int]] = {}
            room = ORBIT_BALL_CAP
            last = len(members) - 1
            for i, (word, _) in enumerate(members):
                ball, size = _orbit_ball(word.letters, steps, radius, room)
                room -= size
                for t in ball:
                    j = near.get(t)
                    if j is not None:
                        parent[find(j)] = find(i)
                    elif i < last:
                        near[t] = i
                if not depth % 2:
                    continue
                joined = []
                for t, u in ball.items():
                    if len(u) < radius:
                        continue
                    joined += back.get(t, ())
                    if len(t) in seams:
                        joined += map(near.get, _seam_partners(t, seams))
                    # L(t) is t's predecessor in this ball when t[0] == u[0]
                    if not t or (u and t[0] == u[0]):
                        continue
                    lt = _concat(t[1:], step_inv[-t[0]])
                    room -= 1 + len(lt) // BALL_LETTERS_PER_ELEMENT
                    if room < 0:
                        raise _limit_error(radius + 1)
                    joined.append(near.get(lt))
                    if i < last:
                        back.setdefault(lt, []).append(i)
                root = find(i)
                for j in joined:
                    if j is not None:
                        parent[find(j)] = root
        # each cluster listed from its least member, in members' order
        by_root: dict[int, list[int]] = {}
        for i in range(len(members)):
            by_root.setdefault(find(i), []).append(i)
        clusters = tuple(
            (tuple(members[i][0] for i in idxs), sum(members[i][1] for i in idxs))
            for idxs in by_root.values())
        out.append((label, clusters))
    return tuple(out)

"""Floer dimension bookkeeping for braid monodromies and their fiber sums.

Gradings are modeled by the Z/2 splitting only (a nondegenerate fixed
point is even or odd according to the sign of det(1 - Dphi)).  The
class indices N_c of a d-cycle braid, over its classes in Z/d (the
report's ``nielsen`` section), give the certified lower bounds

    dim_even >= sum_c max(N_c, 0),   dim_odd >= sum_c max(-N_c, 0),

so the total is bounded below by sum_c |N_c| and the parity of the total
is that of the Lefschetz number.  Suspending by a two-torus (the product
with T^2 taken inside the fiber sum) tensors with H_*(T^2), doubling
into both parities.  Both bounds are dicts in the form the report
prints, ``even``, ``odd``, ``total``, ``euler`` and ``exact`` (false).

The statements about the glued four-manifold, at the flux class a1, are
read off these figures by ``fiber_sum_dims``, the report's ``fiber_sum``
section: the suspended bounds of the braid, 4x its Nielsen bound, at the
torsion class [l2], zero at every other nonzero torsion multiple, and
twice the summand over the two flux generators.  Every figure computed
here is a lower bound, never an exact dimension.
"""

from __future__ import annotations

FRAMING_NOTE = (
    "framing twists act trivially on the fundamental group of the punctured "
    "sphere; framing effects are not detected by any invariant at this level")

MONOTONE_REDUCTION_STATEMENT = (
    "for a monotone symplectic manifold, the Floer homology of a symplectic "
    "isotopy with flux a reduces to ordinary homology with coefficients in "
    "the flat Novikov line bundle determined by a (Le-Ono, Topology 34 "
    "(1995) 155-169); no computation is attached to this statement")

RESCALING_CAVEAT = (
    "the stated dimensions are tied to the normalized flux class a1 and the "
    "chosen symplectic form: rescaling the flux or deforming the symplectic "
    "class can kill every generator, so no deformation invariance is claimed")

SYMPLECTIC_CLASS_NOTE = (
    "dimensions refer to the fiber-sum symplectic structure induced by the "
    "braid monodromy and the standard pieces; other symplectic forms on the "
    "same smooth manifold may give different groups")


def _dims(even: int, odd: int) -> dict:
    """The report's form of lower bounds on the even and odd dimensions."""
    return {"even": even, "odd": odd, "total": even + odd,
            "euler": even - odd, "exact": False}


def dims_lower_bound(nielsen: dict) -> dict:
    """Certified lower bounds from the class indices of the report's
    ``nielsen`` section, as its ``floer_bound`` section.

    The ``euler`` of the result equals the Lefschetz number even though
    the dimensions themselves are only bounds.
    """
    indices = [c["index"] for c in nielsen["classes"]]
    return _dims(sum(c for c in indices if c > 0),
                 sum(-c for c in indices if c < 0))


def suspend_dims(dims: dict) -> dict:
    """Tensor with H_*(T^2): both parities receive 2 * total."""
    t = dims["total"]
    return _dims(2 * t, 2 * t)


def fiber_sum_dims(dims: dict, d: int) -> dict:
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

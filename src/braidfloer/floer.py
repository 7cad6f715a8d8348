"""Floer dimension bookkeeping for braid monodromies and their fiber sums.

Gradings are modeled by the Z/2 splitting only (a nondegenerate fixed
point is even or odd according to the sign of det(1 - Dphi)).  The
NielsenDecomposition of a d-cycle braid, over its classes in Z/d, gives
the certified lower bounds

    dim_even >= sum_c max(N_c, 0),   dim_odd >= sum_c max(-N_c, 0),

so the total is bounded below by sum_c |N_c| and the parity of the total
is that of the Lefschetz number.  Suspending by a two-torus (the product
with T^2 taken inside the fiber sum) tensors with H_*(T^2), doubling
into both parities.

Predictions about the glued four-manifold are dimension statements for
the flux class a1, the one pairing with the surface-direction loop l1:
the summand at the torsion class [l2] carries the suspended braid group,
every other nonzero torsion multiple of [l2] carries zero, and summing
over the two generators +-a1 doubles the total.  The torsion order d is
the decomposition's own, so a prediction needs nothing else.  Every
figure computed here is a lower bound, never an exact dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nielsen import NielsenDecomposition

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


@dataclass(frozen=True)
class FloerDims:
    """Lower bounds on the even and odd dimensions."""

    even: int
    odd: int

    def __post_init__(self) -> None:
        if self.even < 0 or self.odd < 0:
            raise ValueError("dimensions are nonnegative")

    def total(self) -> int:
        return self.even + self.odd

    def euler(self) -> int:
        return self.even - self.odd


def dims_lower_bound(nd: NielsenDecomposition) -> FloerDims:
    """Certified lower bounds from the class indices.

    euler() of the result equals the Lefschetz number even though the
    dimensions themselves are only bounds.
    """
    even = sum(c for _, c in nd.entries if c > 0)
    odd = sum(-c for _, c in nd.entries if c < 0)
    return FloerDims(even=even, odd=odd)


def suspend_dims(f: FloerDims) -> FloerDims:
    """Tensor with H_*(T^2): both parities receive 2 * total."""
    t = f.total()
    return FloerDims(even=2 * t, odd=2 * t)


@dataclass(frozen=True)
class FiberSumPrediction:
    """Dimension statements for the glued manifold at flux class a1.

    ``summand`` sits at the torsion class [l2] of H_1 = Z<l1> + Z/d<l2>;
    ``zero_torsion_multiples`` lists the k with HF(.; k[l2]) predicted
    zero (k = 2..d-1); ``total`` sums over both flux generators +-a1 and
    all torsion classes, which is exactly twice the summand figure.
    """

    d: int
    flux_class: str
    summand_class: str
    summand: FloerDims
    summand_total: int
    zero_torsion_multiples: tuple[int, ...]
    total: int
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.total != 2 * self.summand_total:
            raise ValueError("total must be exactly twice the summand figure")


def predict_fiber_sum(nd: NielsenDecomposition) -> FiberSumPrediction:
    """Predicted Floer summand dimensions of the fiber-sum four-manifold
    of the d-cycle braid that ``nd`` decomposes, d = ``nd.d``.

    The figures are the certified lower bounds, 4x and 8x the Nielsen
    bound.
    """
    summand = suspend_dims(dims_lower_bound(nd))
    return FiberSumPrediction(
        d=nd.d,
        flux_class="a1",
        summand_class="l2",
        summand=summand,
        summand_total=summand.total(),
        zero_torsion_multiples=tuple(range(2, nd.d)),
        total=2 * summand.total(),
        notes=(RESCALING_CAVEAT, SYMPLECTIC_CLASS_NOTE),
    )

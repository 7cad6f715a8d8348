"""Symbolic fixed point and Floer-type invariants of framed spherical
braid words, and bookkeeping for the four-manifold obtained by fiber
summing the associated mapping torus with a four-torus and two K3s.

Everything is exact integer computation: free group words, the
Reidemeister trace read off prefixes of the braid action's images, and
index sums over homological twisted-conjugacy classes, which a d-cycle
braid labels by exponent sums mod d.
"""

from ._version import __version__
from .braids import (BraidError, BraidIndexError, BraidLetter,
                     BraidSyntaxError, BraidWord, NonTransitiveBraidError,
                     Permutation, induced_permutation, is_transitive,
                     parse_braid)
from .floer import (FiberSumPrediction, FloerDims, dims_lower_bound,
                    predict_fiber_sum, suspend_dims)
from .fourmanifold import (AnticanonicalTori, CharacteristicNumbers,
                           ConfigurationError, GluingPiece, PresentedGroup,
                           SumConfiguration, abelianization,
                           anticanonical_tori, assemble_pi1,
                           characteristic_numbers, configuration_from_dict,
                           configuration_to_dict, default_configuration,
                           mapping_torus_presentation, simplified_pi1,
                           standard_form_order, tietze_simplify)
from .freegroup import FreeGroupEndo, FreeWord, artin_disc_endo, artin_endo
from .nielsen import (NielsenDecomposition, RefinedClass,
                      RefinementLimitError, class_space, lefschetz_number,
                      nielsen_decomposition, refine_decomposition,
                      reidemeister_trace_raw)
from .report import build_report, render_text
from .snf import AbelianGroup, ClassSpace

__all__ = [
    "__version__",
    "BraidError", "BraidIndexError", "BraidLetter", "BraidSyntaxError",
    "BraidWord", "NonTransitiveBraidError", "Permutation",
    "induced_permutation", "is_transitive", "parse_braid",
    "FreeWord", "FreeGroupEndo", "artin_disc_endo", "artin_endo",
    "AbelianGroup", "ClassSpace",
    "lefschetz_number", "class_space", "reidemeister_trace_raw",
    "NielsenDecomposition", "nielsen_decomposition", "RefinedClass",
    "refine_decomposition", "RefinementLimitError",
    "FloerDims", "dims_lower_bound", "suspend_dims",
    "FiberSumPrediction", "predict_fiber_sum",
    "PresentedGroup", "mapping_torus_presentation", "assemble_pi1",
    "simplified_pi1", "tietze_simplify", "standard_form_order",
    "abelianization",
    "GluingPiece", "SumConfiguration", "ConfigurationError",
    "CharacteristicNumbers", "characteristic_numbers",
    "default_configuration", "configuration_from_dict",
    "configuration_to_dict", "AnticanonicalTori", "anticanonical_tori",
    "build_report", "render_text",
]

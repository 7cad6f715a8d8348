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
                     BraidSyntaxError, BraidWord, Permutation,
                     induced_permutation, parse_braid)
from .floer import dims_lower_bound, fiber_sum_dims, suspend_dims
from .fourmanifold import (DEFAULT_CONFIGURATION, ConfigurationError,
                           anticanonical_tori, characteristic_numbers,
                           configuration_from_dict, pi1_presentations)
from .freegroup import FreeGroupEndo, FreeWord, artin_disc_endo, artin_endo
from .nielsen import (RefinementLimitError, class_space,
                      nielsen_decomposition, refine_decomposition,
                      reidemeister_trace_raw)
from .report import build_report, render_text
from .snf import ClassSpace

__all__ = [
    "__version__",
    "BraidError", "BraidIndexError", "BraidLetter", "BraidSyntaxError",
    "BraidWord", "Permutation",
    "induced_permutation", "parse_braid",
    "FreeWord", "FreeGroupEndo", "artin_disc_endo", "artin_endo",
    "ClassSpace",
    "class_space", "reidemeister_trace_raw",
    "nielsen_decomposition", "refine_decomposition",
    "RefinementLimitError",
    "dims_lower_bound", "suspend_dims", "fiber_sum_dims",
    "pi1_presentations",
    "ConfigurationError", "characteristic_numbers",
    "DEFAULT_CONFIGURATION", "configuration_from_dict",
    "anticanonical_tori",
    "build_report", "render_text",
]

"""Exact Kac-Moody / Coxeter combinatorics with dominant K-theory reports.

Pipeline: validate and classify a generalized Cartan matrix, build its Weyl
group and weight realization, run character-ring and building computations,
and assemble closed-form K-theory reports cross-checked by brute-force
(co)homological oracles.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .gcm import (
    GeneralizedCartanMatrix,
    classify_type,
    coxeter_matrix,
    gcm_from_rows,
    parse_gcm,
    spherical_poset,
)
from .coxeter import CoxeterElement, WeylGroup, weyl_group
from .weights import Box, Realization, build_realization
from .characters import FormalCharacter

__all__ = [
    "GeneralizedCartanMatrix",
    "classify_type",
    "coxeter_matrix",
    "gcm_from_rows",
    "parse_gcm",
    "spherical_poset",
    "CoxeterElement",
    "WeylGroup",
    "weyl_group",
    "Box",
    "Realization",
    "build_realization",
    "FormalCharacter",
    "__version__",
]

"""Exact crossing and linking numbers for orbits of two-ribbon flow templates.

The geodesic flow on a hyperbolic sphere with three cone points of orders
(p, q, r) is carried by a two-ribbon template inside a surgered homology
sphere.  This package computes, in exact arithmetic, crossing numbers and
linking numbers of the template's periodic orbits, enumerates admissible and
extremal orbits from kneading data, and verifies exhaustively that all orbit
pairs link negatively at desk scale.
"""

from .census import (
    PairReport,
    RangeSummary,
    TripleSummary,
    enumerate_admissible,
    extremal_orbits,
    extremality_crosscheck,
    summarize,
    verify_pairs,
    verify_range,
    verify_triple,
)
from .crossing import Cut, enumerate_cuts, is_admissible_cut, word_crossing
from .kneading import KneadingData, Triple, is_admissible, kneading
from .linking import (
    HopfLinkingVector,
    fiber_linking,
    homology_order,
    q_form,
    qprime_form,
    qprime_matrix,
    surgery_linking,
    template_linking,
)
from .words import CyclicWord, PeriodicSequence, canonicalize, compare

__version__ = "0.1.0"

__all__ = [
    "CyclicWord",
    "Cut",
    "HopfLinkingVector",
    "KneadingData",
    "PairReport",
    "PeriodicSequence",
    "RangeSummary",
    "Triple",
    "TripleSummary",
    "canonicalize",
    "compare",
    "enumerate_admissible",
    "enumerate_cuts",
    "extremal_orbits",
    "extremality_crosscheck",
    "fiber_linking",
    "homology_order",
    "is_admissible",
    "is_admissible_cut",
    "kneading",
    "q_form",
    "qprime_form",
    "qprime_matrix",
    "summarize",
    "surgery_linking",
    "template_linking",
    "verify_pairs",
    "verify_range",
    "verify_triple",
    "word_crossing",
]

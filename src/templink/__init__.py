"""Exact crossing and linking numbers for orbits of two-ribbon flow templates.

The geodesic flow on a hyperbolic sphere with three cone points of orders
(p, q, r) is carried by a two-ribbon template inside a surgered homology
sphere.  This package computes, in exact arithmetic, crossing numbers and
linking numbers of the template's periodic orbits, enumerates admissible and
extremal orbits from kneading data, and verifies exhaustively that all orbit
pairs link negatively at desk scale.  The package root re-exports nothing:
callers use its modules.
"""

__version__ = "0.1.0"

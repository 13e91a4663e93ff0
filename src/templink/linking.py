"""Exact linking numbers of template orbits after surgery on the 3-Hopf link.

The surgered manifold has first homology of order delta = pqr - pq - qr - pr.
Linking numbers there are rationals with denominator dividing delta: crossing
data in the 3-sphere plus a correction by the bilinear form of the surgery.
The package evaluates that form only as its reduction Q on letter counts
(:func:`q_form`); Q' on Hopf linking vectors is the matrix :func:`qprime_matrix`.

All arithmetic is exact: integers and ``fractions.Fraction``, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .crossing import word_crossing
from .kneading import Triple


def q_form(t: Triple, uv: tuple[int, int], uv2: tuple[int, int]) -> int:
    """The reduced surgery form Q((u,v),(u',v')) on letter-count pairs.

    With (a, b, c) = ``t.q_coefficients``, Q = a·u·u' - b·(u·v' + v·u') + c·v·v'.
    """
    a, b, c = t.q_coefficients
    u, v = uv
    u2, v2 = uv2
    return (a * u2 - b * v2) * u + (c * v2 - b * u2) * v


def qprime_matrix(t: Triple) -> list[list[int]]:
    """Symmetric matrix M of the surgery form Q'(x, y) = x^T M y on Hopf linking vectors.

    Its upper left 2 x 2 block is ``t.q_coefficients``, as for :func:`q_form`,
    which is Q' on the vectors (-u, v, 0).
    """
    p, q = t.p, t.q
    a, r, c = t.q_coefficients
    return [
        [a, r, q],
        [r, c, p],
        [q, p, p * q - p - q],
    ]


def template_linking(t: Triple, w: str, w2: str) -> Fraction:
    """Exact linking number of two template orbits: -cr/2 + Q(counts, counts')/delta.

    All template crossings are negative, and an orbit with letter counts
    (na, nb) links the Hopf components by (-na, nb, 0); both facts are folded
    into this reduced formula.  For w == w2 the translated-copy self-crossing
    convention applies.  The words need not be admissible: the formula
    evaluates any pair of formal Lorenz orbits, and only admissible pairs
    are guaranteed to link negatively.  Any rotation of a word codes its
    orbit; a k-th power traverses its orbit k times and links k times as much.

    Surgery identity.  Let k = pq - p - q, and Psi = q·u - p·v for a word
    with u a's and v b's.  Then at every r

        lk_r(w, w') = lk_inf(w, w') + Psi(w)·Psi(w') / (k·delta_r),
        lk_inf = -cr/2 + Q_inf / k,
        Q_inf = (q-1)·uu' - (uv' + vu') + (p-1)·vv'.

    Proof: Q_r = r·Q_inf - (q·uu' + p·vv') and delta_r = r·k - pq, so
    k·Q_r - delta_r·Q_inf = pq·Q_inf - k·(q·uu' + p·vv'), which is
    (qu - pv)(qu' - pv') term by term; cr does not depend on r.  A reading,
    not proved here: r = inf is no surgery on the third Hopf component, so
    lk_inf is linking in the manifold of surgery on the other two, with
    |H_1| = k (S^3 for (2, 3)); that component is the cusp of the
    (p, q, inf) orbifold, Psi is an orbit's linking with it, and the extra
    term is the usual formula for linking after Dehn filling along it.
    """
    cr = word_crossing(w, w2)
    counts = (w.count("a"), w.count("b"))
    counts2 = (w2.count("a"), w2.count("b"))
    return Fraction(-cr, 2) + Fraction(q_form(t, counts, counts2), t.delta)


def homology_order(cone_orders: list[int] | tuple[int, ...]) -> int:
    """Order of H_1 of the unit tangent bundle of an n-conic sphere, n >= 3.

    Equals |(n-2) * prod(p_i) - sum_i prod_{j != i} p_j|, the determinant of
    a presentation of H_1; for a hyperbolic 3-conic sphere this is delta.  It
    is 0 exactly when the orbifold Euler characteristic is 0, as for the
    Euclidean orders (3, 3, 3), (2, 3, 6) and (2, 4, 4): then H_1 is infinite.
    """
    n = len(cone_orders)
    if n < 3:
        raise ValueError(f"need at least 3 cone orders, got {n}")
    if any(p < 2 for p in cone_orders):
        raise ValueError("cone orders must be >= 2")
    total = prod(cone_orders)
    return abs((n - 2) * total - sum(total // p for p in cone_orders))

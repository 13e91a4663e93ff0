"""Crossing numbers of orbit pairs on a Lorenz-type template, and cuts.

In the standard projection of a Lorenz-type template, two strands cross
exactly once between consecutive branch-line returns iff their left-to-right
order on the branch line reverses.  The branch-line order of strands is the
lexicographic order of their codes, so the crossing number of two orbits is
the number of ordered shift pairs whose comparison flips after one step.

Self-crossings follow the translated-copy convention: ``cr(w, w)`` is twice
the number of double points, obtained by running the same count over ordered
pairs of distinct shifts of ``w``.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .kneading import KneadingData, is_admissible
from .words import _check_letters


def word_crossing(v: str, x: str) -> int:
    """Crossing number of the diagrams traced by the finite words v and x over {a, b}.

    Both words may be powers or share a primitive root; a word traversing an
    orbit k times counts as k parallel strands (translated-copy convention),
    so ``word_crossing(w, w)`` is twice the number of double points of w's
    orbit and ``word_crossing(z*k, x) == k * word_crossing(z, x)``.

    The count pairs each rank with its successor's and compares with strict
    tests.  Lemma: two shifts have equal ranks exactly when their successors
    do, so ``a < b`` and ``a1 < b1`` disagree exactly when the pair's order
    flips; a pair tied on one side is tied on the other and counts on
    neither.  Proof: equal ranks are equal shifts (horizon lemma), whose
    successors are equal.  Equal successors lie in one orbit, a finite cycle
    of shifts on which the shift map is injective, so they come from equal
    shifts.
    """
    if not v or not x:
        raise ValueError("crossing numbers need nonempty words")
    _check_letters(v + x)
    # shifts of v and x compare as their first len(v) + len(x) letters (horizon lemma in words.py)
    horizon = len(v) + len(x)
    shifts = []
    for w in (v, x):
        reps = w * (horizon // len(w) + 2)
        shifts.append([reps[i : i + horizon] for i in range(len(w))])
    sv, sx = shifts
    rank = {s: i for i, s in enumerate(sorted(set(sv) | set(sx)))}
    rv = [rank[s] for s in sv]
    rx = [rank[s] for s in sx]
    steps = list(zip(rx, rx[1:] + rx[:1]))
    return sum((a < b) != (a1 < b1) for a, a1 in zip(rv, rv[1:] + rv[:1]) for b, b1 in steps)


class Cut(NamedTuple):
    """A splitting of a cyclic word into factors u (ending in a) and v (ending in b).

    ``u + v`` is the rotation of the cut word starting ``rotation`` letters into
    its canonical form, split after ``split`` letters.  Validity requires
    ``u^inf < v^inf`` with no shift of either factor strictly between them.
    """

    u: str
    v: str
    rotation: int
    split: int


def _is_valid_cut(u: str, v: str) -> bool:
    """True iff ``u^inf < v^inf`` and no shift of either lies strictly between.

    Every sequence compared has period ``len(u)`` or ``len(v)``, so prefixes
    of ``len(u) + len(v)`` letters compare as the sequences do (horizon
    lemma, :mod:`templink.words`).
    """
    horizon = len(u) + len(v)
    reps_u = u * (horizon // len(u) + 2)
    reps_v = v * (horizon // len(v) + 2)
    lo, hi = reps_u[:horizon], reps_v[:horizon]
    if lo >= hi:
        return False
    for reps, period in ((reps_u, len(u)), (reps_v, len(v))):
        for i in range(1, period):
            if lo < reps[i : i + horizon] < hi:
                return False
    return True


def _cuts(w: str) -> Iterator[tuple[int, str, str]]:
    """``(rotation, u, v)`` for every cut of ``w``, a Lyndon word, and for nothing else.

    Each cut comes once, when the consumer asks for the next one: first the
    successor splits that the letters alone pick out, then, rotation by
    rotation, the other successor splits and the power splits that
    :func:`_is_valid_cut` accepts.  Only power splits are checked.  The
    ``"ba"`` splits come first because they cost no check and
    :func:`templink.census._cutless` stops at a word's first admissible cut:
    one pass in rank order, each rotation's successor split and then its
    power splits, took census-crosscheck's benchmark operation from 0.156
    to 0.177 s (in process, min of 9, four alternating rounds, 2-vCPU KVM
    guest).  Input that is not a Lyndon word over {a, b} raises
    ``ValueError``.

    Rank order.  ``w`` is strictly smaller than each proper suffix
    (equivalently, a primitive least rotation), so its shifts sort as its
    rotations, and these as its suffixes, and ``w`` sorts first among its
    suffixes iff it is a Lyndon word.  Lemma: suffixes ``i < j`` compare as
    rotations ``i`` and ``j`` do.  Proof: if neither is a prefix of the
    other, each pair first differs at the same letter.  Else ``s = w[j:]`` is
    a proper prefix of ``t = w[i:]``, so ``s < t``, and ``rot_j = s w[:j]``,
    ``rot_i = s x w[:i]`` with ``x = w[n-(j-i):]``.  ``w`` has no border and
    is smaller than its proper suffix ``x``, so ``w[:j-i] < x`` and
    ``rot_j < rot_i``.

    Successor splits.  Let ``n = len(w)``, ``X_k`` the shift of ``w^inf``
    by ``k``, rotation ``x`` preceded by ``b``, ``X = X_x`` and its
    successor in rank ``S = X_{x+d}``, ``y = rot[d:]`` (ending in b), so
    ``S = yX``, and ``rot = u y^m`` with ``m >= 1`` greatest.  Lemma: if
    ``u`` ends in ``a``, the split ``n - m|y|`` is a cut.  When rotation
    ``x+d`` is preceded by ``a`` (a ``"ba"`` in the letters before the
    rotations, taken in rank order), ``m = 1`` and the split is ``d``.
    Proof.  A shift of ``w^inf`` has least period ``n``, as ``w`` is
    primitive, so it is no shift of ``u^inf`` or ``y^inf``, and shifts of
    ``w^inf`` at distinct offsets differ.  (0) ``X < yX`` gives
    ``X < yX < ... < y^m X = Y < y^inf`` with ``Y = X_{x+|u|}``, and
    ``X = uY < Y`` gives ``Y > uY > u^2 Y > ... > u^inf``; so
    ``u^inf < X < S <= Y < y^inf``.  (1) A sequence in ``(u^inf, X)``
    starts with ``u``, the common prefix of both ends, and one in
    ``(S, y^inf)`` with ``y``; a shift ``T`` of ``u^inf`` that starts with
    ``u`` is ``uT``, so ``u^inf``, and likewise for ``y``: no shift of
    ``u^inf`` lies in ``(u^inf, X)`` and none of ``y^inf`` in
    ``(S, y^inf)``.  (2) Let ``T = rho y^inf``, ``rho`` a nonempty proper
    suffix of ``y``.  The shift ``R = rho X`` of ``w^inf`` is below ``T``
    and, by adjacency, outside ``[X, S]``.  If ``R > S`` then ``T > S`` and
    ``T >= y^inf`` by (1).  If ``R < X < T``, then ``X = rho Z`` with ``Z`` a
    shift of ``w^inf`` in ``(X, y^inf)``; ``Z >= S`` starts with ``y``, and
    descent gives ``Z = y^k X``.  So ``rho y^k``, at least ``n`` letters
    long, is a power of ``rot`` and ends in ``a y^m``; as a suffix of
    ``y^(k+1)`` with ``k >= m`` it has the last letter of ``y``, a ``b``,
    before its last ``m`` copies of ``y``: absurd.  So ``T > X`` gives
    ``T >= y^inf``.  If ``T`` is in ``(u^inf, X)``, it is ``uT'`` with
    ``T'`` a shift of ``y^inf`` in ``(u^inf, Y)``, so ``T' < X``, and
    descent gives ``T = u^inf``: absurd.
    (3) Let ``T = pi u^inf``, ``pi`` a nonempty proper suffix of ``u``.  The
    shift ``Q = pi Y`` of ``w^inf`` is above ``T`` and outside ``[X, S]``.  If
    ``Q < X`` then ``T < X`` and ``T <= u^inf`` by (1).  If ``T < S < Q``,
    then ``S = pi Z`` with ``Z`` a shift of ``w^inf`` in ``(u^inf, Y)``, and
    descent through (1) and adjacency gives ``Z = u^i y^k X`` with
    ``k < m``.  So ``S = yX = pi u^i y^k X``, the two offsets of ``X`` agree
    mod ``n``, and ``pi u^i y^k = y rot^j`` for some ``j >= 0``: absurd, as
    the letter before the last ``k`` copies of ``y`` is ``a`` on the left
    and ``b`` on the right (and for ``j = 0 < k`` the left is longer).  So
    ``T <= u^inf`` or ``T > S``, and if ``S < T < y^inf`` then ``T = yT'``
    with ``T'`` a shift of ``u^inf`` in ``(X, y^inf)``, so again above
    ``S``, and descent gives ``T = y^inf``: absurd.  So every shift of
    ``u^inf`` and ``y^inf`` is at most ``u^inf`` or at least ``y^inf``.
    The letters matter: ``aaaaaaab`` split at rotation 1 by its successor,
    rotation 2, both preceded by ``a``, gives ``u = a`` and
    ``v = aaaaaba``, with a shift of ``v^inf`` between.

    Power splits.  Let a cut at rotation ``x`` with split ``l`` have
    ``u = z^j``, ``v = y^m`` with ``z`` and ``y`` primitive, so
    ``X = (uv)^inf`` and ``Y = X_{x+l} = (vu)^inf``.  Lemma: the next shift
    above ``X`` among the ``n`` shifts of ``w`` starts at ``x+|z|``,
    ``x+n-|y|`` or ``x+l``.  Proof.  A shift inside ``u`` at an offset
    ``a`` that is no multiple of ``|z|`` is ``S = u[a:]Y``; put
    ``T = u[a:]u^inf``, a shift of ``u^inf`` other than ``u^inf``, so
    validity puts ``T`` outside ``(u^inf, v^inf)``.  If ``T >= v^inf`` then
    ``S > T > Y``.  If ``T < u^inf`` and they differ within ``|u|-a``
    letters then ``S < X``.  Otherwise ``u[a:] = u[:c]`` with ``c = |u|-a``,
    and ``T < u^inf`` puts the shift ``u[c:]u^inf`` of ``u^inf`` above
    ``u^inf``, so at or above ``v^inf``; then
    ``u[c:]Y > u[c:]u^inf >= v^inf > Y``, and ``S = u[:c]Y < u[:c]u[c:]Y = X``.
    Shifts inside ``v`` that are no multiple of ``|y|`` fall outside
    ``[X, Y]`` in the same way.  The shifts at multiples are ``z^(j-i)Y``
    and ``y^(m-i)X`` for ``0 < i < j, m``; ``Y > zY`` (as ``Y > z^inf``) and
    ``X < yX`` (as ``X < y^inf``) order them
    ``X < z^(j-1)Y < ... < zY < Y`` and ``X < yX < ... < y^(m-1)X < Y``, so
    the least shift above ``X`` is ``z^(j-1)Y``, ``yX`` or ``Y``.  In the
    last two cases the cut is the successor split of rotation ``x``.  In
    the first, with ``d = |z|`` the distance to the successor, it is a
    split ``jd`` (``j >= 2``) where ``rot`` starts with ``rot[:d]^j``; it
    ends in ``rot[d-1]``, like ``d``, so rotation ``x+d`` is preceded by
    ``a``.
    """
    _check_letters(w)
    n, ww = len(w), w + w
    order = [n - len(s) for s in sorted([w[i:] for i in range(n)])]
    if not order or order[0] != 0:
        raise ValueError(f"{w!r} is not a primitive word in least rotation")
    before = "".join([w[k - 1] for k in order])
    i = before.find("ba")
    while i >= 0:
        x, d = order[i], (order[i + 1] - order[i]) % n
        yield x, ww[x : x + d], ww[x + d : x + n]
        i = before.find("ba", i + 1)
    for i in range(n - 1):
        if before[i] != "b":
            continue
        x, d = order[i], (order[i + 1] - order[i]) % n
        rot, e, m, j = ww[x : x + n], n - d, 1, d
        while (m + 1) * e < n and rot.endswith(rot[d:], 0, n - m * e):
            m += 1
        if m > 1 and rot[n - m * e - 1] == "a":
            yield x, rot[: n - m * e], rot[n - m * e :]
        while before[i + 1] == "a" and j + d < n and rot.startswith(rot[:d], j):
            j += d
            if _is_valid_cut(rot[:j], rot[j:]):
                yield x, rot[:j], rot[j:]


def enumerate_cuts(w: str) -> list[Cut]:
    """The cuts of ``w``, a primitive least rotation, by ascending rotation, then split.

    Factors need not be primitive (e.g. the cut aa|bb of aabb) nor code
    template orbits; admissibility is a separate question, see
    :func:`is_admissible_cut`.  The cuts are those of :func:`_cuts`.  Input
    that is not a primitive least rotation over {a, b} raises ``ValueError``.
    """
    return sorted((Cut(u, v, k, len(u)) for k, u, v in _cuts(w)), key=lambda c: (c.rotation, c.split))


def is_admissible_cut(c: Cut, k: KneadingData) -> bool:
    """True iff both factors code orbits of the template with kneading data k.

    A factor may be a rotation or a power of its orbit's code; admissibility
    is the same for each, so the factors are tested as they stand.
    """
    return is_admissible(c.u, k) and is_admissible(c.v, k)

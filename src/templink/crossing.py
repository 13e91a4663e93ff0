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
from dataclasses import dataclass

from .kneading import KneadingData, is_admissible
from .words import _check_letters


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def word_crossing(v: str, x: str) -> int:
    """Crossing number of the diagrams traced by the finite words v and x over {a, b}.

    Both words may be powers or share a primitive root; a word traversing an
    orbit k times counts as k parallel strands (translated-copy convention),
    so ``word_crossing(w, w)`` is twice the number of double points of w's
    orbit and ``word_crossing(z*k, x) == k * word_crossing(z, x)``.
    """
    if not v or not x:
        raise ValueError("crossing numbers need nonempty words")
    _check_letters(v + x)
    n, m = len(v), len(x)
    # shifts of periods n and m compare as their first n + m letters (horizon lemma in words.py)
    horizon = n + m
    shifts = []
    for w in (v, x):
        reps = w * (horizon // len(w) + 2)
        shifts.append([reps[i : i + horizon] for i in range(len(w))])
    sv, sx = shifts
    rank = {s: i for i, s in enumerate(sorted(set(sv) | set(sx)))}
    rv = [rank[s] for s in sv]
    rx = [rank[s] for s in sx]
    count = 0
    for i in range(n):
        a, a1 = rv[i], rv[(i + 1) % n]
        for j in range(m):
            if _sign(a - rx[j]) != _sign(a1 - rx[(j + 1) % m]):
                count += 1
    return count


@dataclass(frozen=True)
class Cut:
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


def _candidate_splits(w: str) -> Iterator[tuple[int, str, str]]:
    """``(rotation, u, v)`` for every split of ``w`` that may be a cut, in cut order.

    ``w`` is a Lyndon word; candidates come by ascending rotation, then
    split, and each is found only when the consumer asks for the next one.
    :func:`_is_valid_cut` decides which are cuts; the first lemma below
    only leaves out splits that cannot pass.

    Lemma.  Let ``n = len(w)``, ``X_k`` the shift of ``w^inf`` by ``k``, and
    let a valid cut at rotation ``x`` with split ``l`` have ``u = z^j``,
    ``v = y^m`` with ``z`` and ``y`` primitive, so ``X = X_x = (uv)^inf`` and
    ``Y = X_{x+l} = (vu)^inf``.  Then the next shift above ``X`` among the
    ``n`` shifts of ``w`` starts at ``x+|z|``, ``x+n-|y|`` or ``x+l``.

    Proof.  ``u^inf < v^inf`` iff ``uv < vu``, which gives
    ``u^inf < X < Y < v^inf``.  A shift inside ``u`` at an offset ``a`` that
    is no multiple of ``|z|`` is ``S = u[a:]Y``; put ``T = u[a:]u^inf``, a
    shift of ``u^inf`` other than ``u^inf``, so validity puts ``T`` outside
    ``(u^inf, v^inf)``.  If ``T >= v^inf`` then ``S > T > Y``.  If
    ``T < u^inf`` and they differ within ``|u|-a`` letters then ``S < X``.
    Otherwise ``u[a:] = u[:c]`` with ``c = |u|-a``, and ``T < u^inf`` puts
    the shift ``u[c:]u^inf`` of ``u^inf`` above ``u^inf``, so at or above
    ``v^inf``; then ``u[c:]Y > u[c:]u^inf >= v^inf > Y``, and
    ``S = u[:c]Y < u[:c]u[c:]Y = X``.  Shifts inside ``v`` that are no
    multiple of ``|y|`` fall outside ``[X, Y]`` in the same way.  The shifts
    at multiples are ``z^(j-i)Y`` and ``y^(m-i)X`` for ``0 < i < j, m``;
    ``Y > zY`` (as ``Y > z^inf``) and ``X < yX`` (as ``X < y^inf``) order
    them ``X < z^(j-1)Y < ... < zY < Y`` and ``X < yX < ... < y^(m-1)X < Y``,
    so the least shift above ``X`` is ``z^(j-1)Y``, ``yX`` or ``Y``.

    Candidates.  ``w`` is a Lyndon word, strictly smaller than each proper
    suffix (equivalently, a primitive least rotation), so its shifts sort as
    its rotations, and these as its suffixes.  Lemma: suffixes ``i < j``
    compare as rotations ``i`` and ``j`` do.  Proof: if neither is a prefix
    of the other, each pair first differs at the same letter.  Else
    ``s = w[j:]`` is a proper prefix of ``t = w[i:]``, so ``s < t``, and
    ``rot_j = s w[:j]``, ``rot_i = s x w[:i]`` with ``x = w[n-(j-i):]``.
    ``w`` has no border and is smaller than its proper suffix ``x``, so
    ``w[:j-i] < x`` and ``rot_j < rot_i``.  With ``d`` the distance from
    rotation ``k`` to its successor, the first lemma leaves the splits
    ``n - m(n-d)`` where ``rot`` ends in ``rot[d:]^m``, ``d`` itself, and
    ``jd`` where ``rot`` starts with ``rot[:d]^j`` (``j, m >= 2``), in
    ascending order.  ``u`` must end in ``a``: every ``jd`` ends in
    ``rot[d-1]``, like ``d``, and since ``rot`` ends in ``b`` only the
    largest ``m`` can leave an ``a`` before ``v``.  The sort checks the
    input: unless suffix 0 sorts first, or with letters outside {a, b},
    ``ValueError`` is raised.
    """
    _check_letters(w)
    n = len(w)
    order = sorted(range(n), key=lambda k: w[k:])
    if not order or order[0] != 0:
        raise ValueError(f"{w!r} is not a primitive word in least rotation")
    for k, successor in sorted(zip(order, order[1:])):
        if w[k - 1] != "b":
            continue
        rot = w[k:] + w[:k]
        d = (successor - k) % n
        e = n - d
        m = 1
        while (m + 1) * e < n and rot.endswith(rot[d:], 0, n - m * e):
            m += 1
        splits = [n - m * e] if m > 1 and rot[n - m * e - 1] == "a" else []
        if rot[d - 1] == "a":
            splits.append(d)
            while splits[-1] + d < n and rot.startswith(rot[:d], splits[-1]):
                splits.append(splits[-1] + d)
        for split in splits:
            yield k, rot[:split], rot[split:]


def enumerate_cuts(w: str) -> list[Cut]:
    """The cuts of ``w``, a primitive least rotation, by ascending rotation, then split.

    Factors need not be primitive (e.g. the cut aa|bb of aabb) nor code
    template orbits; admissibility is a separate question, see
    :func:`is_admissible_cut`.  The cuts are the candidates of
    :func:`_candidate_splits` that :func:`_is_valid_cut` accepts.  Input that
    is not a primitive least rotation over {a, b} raises ``ValueError``.
    """
    return [
        Cut(u=u, v=v, rotation=k, split=len(u))
        for k, u, v in _candidate_splits(w)
        if _is_valid_cut(u, v)
    ]


def is_admissible_cut(c: Cut, k: KneadingData) -> bool:
    """True iff both factors code orbits of the template with kneading data k.

    A factor may be a rotation or a power of its orbit's code; admissibility
    is the same for each, so the factors are tested as they stand.
    """
    return is_admissible(c.u, k) and is_admissible(c.v, k)

"""Kneading data of the two-ribbon geodesic-flow template and orbit admissibility.

The template for surgery parameters (p, q, r) has a left ribbon ``a`` and a
right ribbon ``b``.  Its four kneading sequences u_L <= u_R and v_L <= v_R are
the codes of the extreme orbits of the two ribbons; a cyclic word codes an
orbit of the template exactly when every shift of its infinite code lies
(inclusively) between the bounds of the ribbon it starts in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import PeriodicSequence, compare


# Most letters a kneading table may hold, by the bound 2r(p+q) on its two
# stored sequences and the two derived from them.  Census cost grows with it:
# the block screen repeats each word to about r·q/2 letters and is_admissible
# slices each shift it compares to about r·q.  On a 2-vCPU KVM guest the worst
# admitted command, `enumerate --p 3 --q 89 --r 89 --max-len 24` (16,376
# letters, 217,044 words), took 6.9–7.4 s and 132 MB peak RSS, against
# 2.4–3.1 s for (3, 24, 24) at 1,296.
MAX_TABLE_LETTERS = 2**14


@dataclass(frozen=True)
class Triple:
    """Surgery parameters 2 <= p <= q <= r of a hyperbolic 3-conic sphere.

    Hyperbolicity (1/p + 1/q + 1/r < 1) is equivalent to delta >= 1, where
    delta = pqr - pq - qr - pr is the order of the first homology group of
    the surgered manifold.  Orbit codes are built from the two ``syllables``
    a^(p-1) b and a b^(q-1), at most ``max_repeats`` = floor((r-2)/2) copies
    of one in a row.  ``max_repeats``, ``delta`` and ``q_coefficients`` =
    (qr-q-r, r, pr-p-r), the (a, b, c) of :func:`templink.linking.q_form`,
    are derived once, at construction, and kept outside the dataclass
    fields, so equality, hash and repr see p, q and r only.  The syllables
    hold p + q letters, and the parameters may be far too large to spell
    out, so they are built only when read, after a caller's size checks.
    """

    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("q", self.q), ("r", self.r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        p, q, r = self.p, self.q, self.r
        if not 2 <= p <= q <= r:
            raise ValueError(f"need 2 <= p <= q <= r, got ({p}, {q}, {r})")
        delta = p * q * r - p * q - q * r - p * r
        if delta < 1:
            raise ValueError(f"({p}, {q}, {r}) is not hyperbolic: 1/p + 1/q + 1/r >= 1")
        # a frozen dataclass's own __setattr__ refuses, so set them on the object
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "q_coefficients", (q * r - q - r, r, p * r - p - r))
        object.__setattr__(self, "max_repeats", (r - 2) // 2)

    @property
    def syllables(self) -> tuple[str, str]:
        return "a" * (self.p - 1) + "b", "a" + "b" * (self.q - 1)

    def __str__(self) -> str:
        return f"({self.p},{self.q},{self.r})"


@dataclass(frozen=True)
class KneadingData:
    """The template's boundary sequences: u_L and v_R stored, v_L = b.u_L and u_R = a.v_R derived.

    The validation ``u_L <= u_R`` and ``v_L <= v_R`` forces u_L to start with
    ``a`` (one that starts with ``b`` lies above every ``a``-sequence, such
    as u_R) and v_R to start with ``b`` (likewise below v_L).  Its fields are
    u_L and v_R; ``u_R``, ``v_L``, ``reach`` and ``runs``, set at
    construction, lie outside them.
    """

    u_L: PeriodicSequence
    v_R: PeriodicSequence

    def __post_init__(self) -> None:
        u_L, v_R = self.u_L, self.v_R
        object.__setattr__(self, "u_R", PeriodicSequence("a" + v_R.preperiod, v_R.period))
        object.__setattr__(self, "v_L", PeriodicSequence("b" + u_L.preperiod, u_L.period))
        if compare(u_L, self.u_R) > 0 or compare(self.v_L, v_R) > 0:
            raise ValueError("kneading bounds out of order")
        reach = max(len(b.preperiod) + len(b.period) for b in (u_L, v_R))
        runs = (u_L.prefix(reach).split("b")[0], v_R.prefix(reach).split("a")[0])
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "runs", runs)


def kneading(t: Triple) -> KneadingData:
    """Kneading data of the template with parameters (p, q, r), r finite.

    A table whose four sequences may hold over ``MAX_TABLE_LETTERS`` letters,
    by the bound 2r(p+q), is refused before any sequence is built.

    Rows.  The table is written in the syllables P = a^(p-1) b and
    Q = b^(q-1) a (``t.syllables`` holds P and a rotation of Q), with
    k = ``t.max_repeats`` = floor((r-2)/2).  One rule,
    ``row(S) = S^k (S if r is odd else S[1:] S^k) S[-1]``, gives each purely
    periodic row:

    - u_L = row(P) for every p: P^(k+1) b for odd r, and
      P^k a^(p-2) b P^k b for even r.
    - v_R = row(Q) for p >= 3; for p = 2 it is the row
      b^(q-1) | a Q^(k-1) b^(q-2) at both parities.

    Letter by letter, with A = a^(p-1), the p >= 3 u_L is (Ab)^k A bb =
    P^(k+1) b for odd r, where k = (r-3)/2, and (Ab)^k a^(p-2) (bA)^k bb for
    even r, where (bA)^k bb = b P^k b; v_R is its mirror image, with a and
    b, p and q swapped.  For p = 2 and odd r, u_L = (ab)^k abb is the odd
    rule.  For even r, u_L = (ab)^(k-1) abb = P^k b, and as a periodic
    sequence it is (P^k b)^2, the even rule.  The p = 2 v_R repeats its half
    ``a b^(q-1)`` (r-5)/2 times for odd r and (r-4)/2 times for even r,
    k - 1 both times.  The p = 2 rows need q > 2 and r > 4, both of which
    are already forced by hyperbolicity, so every Triple has kneading data.

    Lemma: for fixed (p, q), u_L(r+1) <= u_L(r) and v_R(r) <= v_R(r+1), so
    the bounds widen with r.  Proof.  From even r to r + 1, k stays and the
    tail a^(p-2) b ... after P^k becomes a^(p-1) b ...: u_L first differs
    at a ``b`` that becomes an ``a``, so it gets smaller.  From odd r to
    r + 1, k grows by one, and after P^(k+1) the row reads a^(p-2) b where it
    read b: smaller for p >= 3, and for p = 2 the two rows are equal.  For
    p >= 3, v_R is the mirror image, and swapping the letters reverses the
    order.  The p = 2 v_R depends on k alone and is Q^k b^(q-2) a ...; with
    k + 1 it is Q^k b^(q-2) b ..., so it reads ``b`` where it read ``a``.
    A word is admissible exactly when every shift lies in [u_L, v_R]
    (:func:`is_admissible`), so census(r) is contained in census(r + 1).
    """
    p, q, r = t.p, t.q, t.r
    letters = 2 * r * (p + q)
    if letters > MAX_TABLE_LETTERS:
        raise ValueError(
            f"the kneading table of {t} may hold {letters:,} letters, "
            f"over the limit of {MAX_TABLE_LETTERS:,}"
        )
    k, P, Q = t.max_repeats, "a" * (p - 1) + "b", "b" * (q - 1) + "a"

    def row(S: str) -> PeriodicSequence:
        return PeriodicSequence("", S * k + (S if r % 2 else S[1:] + S * k) + S[-1])

    v_R = PeriodicSequence(Q[:-1], "a" + Q * (k - 1) + Q[1:-1]) if p == 2 else row(Q)
    return KneadingData(row(P), v_R)


def is_admissible(word: str, k: KneadingData) -> bool:
    """True iff every shift of ``w^inf`` lies between the kneading bounds.

    By definition, shifts starting with ``a`` must satisfy u_L <= s <= u_R and
    shifts starting with ``b`` must satisfy v_L <= s <= v_R (bounds inclusive:
    the template contains its boundary orbits).  That holds exactly when
    every shift satisfies u_L <= s <= v_R:

    - u_L starts with ``a`` and v_R with ``b`` (see :class:`KneadingData`), so
      an ``a``-shift lies below v_R and a ``b``-shift lies above u_L.
    - An ``a``-shift ``s = a.t`` has ``s <= a.v_R`` iff ``t <= v_R``, and a
      ``b``-shift ``s = b.t`` has ``s >= b.u_L`` iff ``t >= u_L``; in both
      cases ``t`` is the next shift of ``w^inf``.
    - So the definition asks u_L <= s of each ``a``-shift, s <= v_R of each
      ``b``-shift, and the other end of the interval of each next shift:
      every shift lies in [u_L, v_R], and conversely.

    ``word`` may be any nonempty string over {a, b}: every rotation and every
    power of a word has the same shifts, so the answer is the same for each
    of them.  An empty word raises ``ValueError``.

    Only the shifts that start with one of ``k.runs``, the leading ``a``'s of
    u_L and ``b``'s of v_R within the bounds' first ``reach`` letters (a whole
    preperiod and period; capped there for a one-letter bound, as a^inf), are
    compared, each as its first ``len(w) + k.reach`` letters (horizon lemma,
    :mod:`templink.words`).  Any other ``a``-shift has its first ``b`` inside
    the run, where u_L reads ``a``, so it lies above u_L and, starting with
    ``a``, below v_R; likewise any other ``b``-shift.  A run has at most
    ``reach`` letters, so ``reps`` holds each match that ends by ``end``,
    which is each match that starts below ``len(w)``.
    """
    if not word:
        raise ValueError("admissibility needs a nonempty word")
    n = len(word)
    horizon = n + k.reach
    u_L, v_R = k.u_L.prefix(horizon), k.v_R.prefix(horizon)
    reps = word * (horizon // n + 2)
    for run in k.runs:
        end = n + len(run) - 1
        i = reps.find(run, 0, end)
        while i >= 0:
            if not u_L <= reps[i : i + horizon] <= v_R:
                return False
            i = reps.find(run, i + 1, end)
    return True


def satisfies_block_constraints(word: str, t: Triple) -> bool:
    """Block conditions on admissible codes, used to prune the census.

    ``word`` is any rotation of a cyclic word; the test is rotation-invariant.
    Single-letter words fail the run tests (their repetition is one run of
    more than q letters), and the pure syllable words a^(p-1) b and
    a b^(q-1) fail too, as their infinite codes repeat one syllable forever.

    Known defect (ROADMAP item 1): meant as a necessary condition, the screen
    rejects some admissible words of odd-r triples, e.g. ``aababbabb`` of (3,3,5).

    The cyclic word is cut into syllables a^i b^j (i, j >= 1), each starting
    at an ``a`` after a ``b``.  It fails when a syllable has i > p - 1 or
    j > q - 1, or when R = ``t.max_repeats`` + 1 consecutive syllables equal
    one S of ``t.syllables``.  Each condition is a substring test on ``word``
    repeated until every cyclic factor of up to m = R*q + 2 letters, the
    longest pattern (p <= q), is a substring: ``word * (m // n + 2)`` has at least
    n + m - 1 letters.

    - If both letters occur, every run is shorter than n, and a cyclic run
      of p a's or q b's exists exactly when ``a^p`` or ``b^q`` is a substring.
    - ``b S^R a`` is a substring exactly when the periodic syllable sequence
      holds R consecutive copies of S: a syllable starts after the ``b``, and
      an S followed by ``a`` is a whole syllable.  If some syllable is not S,
      that is a cyclic run of R copies, and conversely such a run with the
      letters on either side spans at most n letters.  If every syllable is
      S, the word is a pure syllable word, and ``b S^R a`` is a substring
      too, because the repetition holds at least (R + 1)|S| + 1 letters.
    """
    if not word:
        raise ValueError("block constraints need a nonempty word")
    reps = t.max_repeats + 1
    hay = word * ((reps * t.q + 2) // len(word) + 2)
    if "a" * t.p in hay or "b" * t.q in hay:
        return False
    P, Q = t.syllables
    return not ("b" + P * reps + "a" in hay or "b" + Q * reps + "a" in hay)

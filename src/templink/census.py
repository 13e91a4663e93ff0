"""Orbit census, extremal families, and the exhaustive negativity verifier.

The paper shows that the linking number of template orbit pairs is
subadditive under admissible cuts, so that negativity for all pairs reduces
to negativity on the finite family of extremal orbits (admissible orbits with
no admissible cut).  This module enumerates admissible orbits, generates the
extremal families in closed form, cross-validates the two descriptions, and
verifies pairwise negativity over parameter ranges, exactly and in parallel.
The families built here and the cutless census disagree, as acceptance
criterion 10 reports, so the code does not rest on the paper's reduction:
criteria 4-6 verify negativity directly, on the families and on the censuses.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, repeat
from typing import NamedTuple

from . import crossing
from .kneading import (
    KneadingData,
    Triple,
    is_admissible,
    kneading,
    satisfies_block_constraints,
)
from .linking import q_form
from .words import CyclicWord, _check_letters

# numpy (the pair kernel) and the process pool (verify_range) are imported
# inside the functions that use them, so `import templink` and the census
# commands load neither.

# Longest words a census may generate and screen: length 24 gives 1,465,020
# Lyndon words, 25 would give 2,807,196; longer is refused before any is generated.
MAX_CENSUS_LEN = 24

# Most words verify_pairs takes, and so the largest extremal family a triple or
# a range may have: the pair table grows with its square, 16 bytes a pair.  On a
# 2-vCPU KVM guest verify_triple(Triple(3, 3, 87)), 1,934 words and 1,871,145
# pairs, took 1.9-2.1 s and 63.4 MiB peak RSS; (3, 3, 301) would hold about 260 M pairs.
# Single-triple `templink verify` renders every report, so it takes far fewer
# pairs, see cli.MAX_REPORT_PAIRS.
MAX_VERIFY_WORDS = 2_000

# Most letters one call may take: verify_pairs' words by the letter budget
# (see check_letter_budget, which derives the bounds the pair kernel needs) or
# one extremal family (words x longest).  (3, 3, 87) needs 120.4 M; (2, 41, 43)
# would need 958 M.
MAX_LETTERS = 2**27

# Cells of one column chunk of _crossing_matrix's prefix table and its gathered
# rows, 4 bytes each: the largest chunk holds 1 MB.  verify_pairs forms its keys
# in chunks of as many pairs.
_CHUNK_CELLS = 2**18


class PairReport(NamedTuple):
    """One verified orbit pair: its two words, crossing number and exact linking.

    The linking number is kept as the integer ``lk2d = lk * two_delta =
    2*Q - delta*cr`` over ``two_delta = 2*delta``; ``lk`` builds the
    ``Fraction`` only when it is read.  Letter counts are read from the words.
    Every field is a plain ``str`` or Python ``int``.  :class:`PairTable`
    builds a report only when one is read.
    """

    word1: str
    word2: str
    cr: int
    lk2d: int
    two_delta: int

    @property
    def lk(self) -> Fraction:
        return Fraction(self.lk2d, self.two_delta)

    @property
    def negative(self) -> bool:
        return self.lk2d < 0

    def as_dict(self) -> dict:
        """The report's one field list, shared by every output format."""
        lk = self.lk
        return {
            "word1": self.word1,
            "word2": self.word2,
            "cr": self.cr,
            "na1": self.word1.count("a"),
            "nb1": self.word1.count("b"),
            "na2": self.word2.count("a"),
            "nb2": self.word2.count("b"),
            "lk_num": lk.numerator,
            "lk_den": lk.denominator,
            "negative": self.negative,
        }


def lyndon_words(max_len: int, runs: tuple[int, int] | None = None) -> list[str]:
    """Lyndon words over {a, b} of length <= max_len in lexicographic order (Duval's generator).

    Lyndon words are exactly the canonical forms of primitive cyclic words.
    A ``max_len`` below 1 gives no word.  With ``runs = (p, q)``, p, q >= 2,
    only the words with both letters and no cyclic ``a^p`` or ``b^q`` come,
    in the same order, and the walk passes over no other word but those
    ending in ``b^q``.

    Duval's step takes a Lyndon word ``w`` to the next one: extend ``w``
    periodically to ``max_len`` letters, drop the trailing b's, and turn the
    last letter, an a, into b; any prefix of ``w^inf`` that ends in a turns
    into a Lyndon word so.  A Lyndon word with both letters starts with a
    and ends with b, so its cyclic runs are its runs, and it starts with its
    longest run of a's.  With ``runs``:

    - The walk starts at ``a^s b``, ``s = min(p-1, max_len-1)``.  A word
      that sorts below it is a power of a or starts with ``a^(s+1)``, so it
      has one letter or holds ``a^p``; every later word starts with at most
      s a's.
    - Before the step, the extension is cut before its first ``b^q``, which
      follows an a.  Every word from Duval's next word up to the cut
      prefix's step starts with the prefix and then letters that sort at or
      above ``b^q``, so it holds ``b^q``.
    - The cut prefix holds no ``b^q``, so a stepped word holds one only as
      its suffix.  Such a word is not listed, and since that suffix is the
      first ``b^q`` of its extension, its step passes over every word that
      starts with it.
    - The walk ends at ``b``, which has one letter.
    """
    if runs is None:
        w, shortest, q = "a", 1, max_len + 1
    else:
        p, q = runs
        w, shortest = "a" * min(p - 1, max_len - 1) + "b", 2
    bq = "b" * q
    out: list[str] = []
    while shortest <= len(w) <= max_len:
        if not w.endswith(bq):
            out.append(w)
        x = (w * (max_len // len(w) + 1))[:max_len].partition(bq)[0].rstrip("b")
        w = x[:-1] + "b" if x else ""
    return out


def enumerate_admissible(t: Triple, max_len: int) -> list[str]:
    """The admissible Lyndon words of length <= max_len that pass the block screen.

    Lyndon words are the primitive least rotations, so they are the census
    words as generated.  Duval's generator builds only the words with both
    letters and no cyclic ``a^p`` or ``b^q``, which are the words the
    screen's run tests pass; the screen's syllable tests still reject some
    admissible words, which are then missing (ROADMAP item 1).  A
    ``max_len`` over ``MAX_CENSUS_LEN`` is refused before any word is generated.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_len > MAX_CENSUS_LEN:
        raise ValueError(f"max_len {max_len} exceeds the census limit of length {MAX_CENSUS_LEN}")
    k = kneading(t)
    words = [
        word
        for word in lyndon_words(max_len, runs=(t.p, t.q))
        if satisfies_block_constraints(word, t) and is_admissible(word, k)
    ]
    # Duval's generator yields lexicographic order, so a stable sort by length gives (length, text)
    return sorted(words, key=len)


def extremal_orbits(t: Triple) -> list[str]:
    """The closed-form extremal families' words, in least rotation, sorted by length then text.

    With P = a^(p-1)b, Q = ab^(q-1), k in [0, floor((r-2)/2)] and tails a^i b^j,
    (i, j) in [1,p-1] x [1,q-1] minus the corners (1,q-1) and (p-1,1), these
    are P^k·tail (``rot_p``), tail·Q^k for k >= 1 (``rot_q``) and P^k·Q^l
    for k, l >= 1 (``mixed``).  For p = 2 (q and r odd) the tails are a b^j,
    j in [2,q-2].

    Each word is its own least rotation, hence primitive: a least rotation
    starts a longest run of a's, and past the common prefix every other such
    rotation reads b where the word reads a.  It reads the tail for P·a in
    P^k·tail (letter i+1, or p+1 when i = p-1, as then j >= 2) and Q for P·a
    in P^k·Q^l (letter 2, or 3 for p = 2).  In tail·Q^k the tail's run is
    the only longest one if i >= 2, and for i = 1 the rotation reads
    ab^(q-1) for ab^j a, as j < q-1.  No two words are equal: within a family
    the runs of b's, k+1 or k+l of them, and the tail at the end (``rot_p``)
    or the start (``rot_q``) fix the parameters.  Across families a bare
    tail has one run of b's, ``rot_q`` words begin a^i b^j a and the others
    a^(p-1)ba, and ``mixed`` words end in a lone a and b^(q-1), so any match
    needs a corner tail.

    The p = 2 families with q or r even are refused, and so is a family over
    ``MAX_LETTERS`` letters (its size times (k+1)(p+q), a bound on the
    longest word), both before any word is built.
    """
    p, q, r = t.p, t.q, t.r
    if p == 2 and (q % 2 == 0 or r % 2 == 0):
        raise ValueError(
            "the p = 2 extremal families are defined for q and r odd only "
            "(even cases follow from a double cover)"
        )
    kmax = t.max_repeats
    size, longest = _family_size(p, q, r), (kmax + 1) * (p + q)
    if size * longest > MAX_LETTERS:
        raise ValueError(
            f"the extremal families of {t} hold {size:,} words of up to {longest:,} "
            f"letters, over the limit of {MAX_LETTERS:,} letters"
        )
    P, Q = t.syllables
    corners = {(1, q - 1), (p - 1, 1)}
    tails = ["a" * i + "b" * j for i in range(1, p) for j in range(1, q) if (i, j) not in corners]
    ks = range(1, kmax + 1)
    rot_p = [P * k + tail for k in range(kmax + 1) for tail in tails]
    rot_q = [tail + Q * k for k in ks for tail in tails]
    mixed = [P * k + Q * l for k in ks for l in ks]
    return sorted(rot_p + rot_q + mixed, key=lambda w: (len(w), w))


def _family_size(p: int, q: int, r: int) -> int:
    """(2k+1)·T + k^2 words: T = (p-1)(q-1) - 2 tails, k = floor((r-2)/2)."""
    k = (r - 2) // 2
    return (2 * k + 1) * ((p - 1) * (q - 1) - 2) + k * k


def check_family_bound(p: int, q: int, r: int) -> int:
    """Refuse families over ``MAX_VERIFY_WORDS`` words; return the family's size.

    The size, :func:`_family_size`, grows with p, q and r, so the corner of a
    box bounds every triple inside it.
    """
    size = _family_size(p, q, r)
    if size > MAX_VERIFY_WORDS:
        raise ValueError(
            f"the extremal families of ({p}, {q}, {r}) hold {size:,} words, "
            f"over the verify limit of {MAX_VERIFY_WORDS:,}"
        )
    return size


def _cutless(words: list[str], k: KneadingData) -> list[str]:
    """The words, primitive least rotations, that have no admissible cut under k, in order.

    A candidate split of :func:`crossing._candidate_splits` is an admissible
    cut iff both factors are admissible and it is valid.  The verdict does
    not depend on the order of the tests, and the cheap one comes first:
    a factor's verdict is kept for the rest of the call, so each string is
    tested once.
    """
    admissible = cache(partial(is_admissible, k=k))
    candidates, valid = crossing._candidate_splits, crossing._is_valid_cut
    return [
        w
        for w in words
        if not any(admissible(u) and admissible(v) and valid(u, v) for _, u, v in candidates(w))
    ]


def extremality_crosscheck(t: Triple, max_len: int) -> tuple[list[CyclicWord], list[CyclicWord]]:
    """Both characterizations of extremal orbits, restricted to length <= max_len.

    Returns (closed-form family words, admissible words with no admissible
    cut) as ``CyclicWord``s.  The paper's reduction needs them to coincide;
    for most triples they differ, as acceptance criterion 10 reports.
    """
    family = [CyclicWord(w) for w in extremal_orbits(t) if len(w) <= max_len]
    words = enumerate_admissible(t, max_len)
    independent = [CyclicWord(w) for w in _cutless(words, kneading(t))]
    return family, independent


def check_letter_budget(words: list[str]) -> int:
    """Refuse words over the ``MAX_LETTERS`` budget; return their letters.

    The budget is total length x 2 x longest letters.  For N shifts (the
    total length) and a longest word of L letters, 1 <= L <= N, the budget
    2·L·N <= 2^27 gives N <= 2^26, which the 64-bit keys of
    :func:`_shift_ranks` need, and L^2 <= L·N <= 2^26, so L <= 2^13, which
    the uint32 sweep of :func:`_crossing_matrix` needs.
    """
    letters = 2 * max(map(len, words), default=0) * sum(map(len, words))
    if letters > MAX_LETTERS:
        raise ValueError(
            f"{len(words):,} words need a budget of {letters:,} letters "
            f"(total length x 2 x longest), over the limit of {MAX_LETTERS:,}"
        )
    return letters


def _successors(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each word's first shift index, words concatenated, and each shift's successor.

    The successor of a shift is the next one in its word, wrapping at the
    word's end.  ``starts`` has one more entry, the total length.
    """
    import numpy as np

    starts = np.cumsum([0] + [len(word) for word in words])
    succ = np.arange(1, starts[-1] + 1)
    succ[starts[1:] - 1] = starts[:-1]
    return starts, succ


def _shift_ranks(words: list[str]) -> np.ndarray:
    """Global branch-line ranks of every shift of every word, words concatenated.

    One joint ranking serves every pair of words.  The ranks are
    unsigned, so compare them rather than subtract them.  Empty words,
    letters outside {a, b} and words over the ``MAX_LETTERS`` budget raise
    ``ValueError`` before any array is built.

    Prefix doubling on integers, with no string built.  Let ``jump[x]`` be
    the shift h letters on from x, wrapping inside its word.  With a = 0 and
    b = 1, each shift's first letter is one bit, and six rounds of
    ``key = key << h | key[jump]``, ``jump = jump[jump]`` for h = 1, 2,
    ..., 32 pack its first 64 letters into one uint64, the first letter
    highest, so numeric order is the lexicographic order of 64-letter
    prefixes.  Then, while two dense ranks of the h-letter prefixes are
    equal and h < 2·longest, ``key = rank·N + rank[jump]`` orders the
    2h-letter prefixes as the pairs (first h letters, next h letters) do,
    and ``jump`` and h double.

    Proof of the order.  Shifts have periods of at most ``longest`` letters,
    so prefixes of 2·longest letters compare as the shifts do (horizon
    lemma, :mod:`templink.words`), and prefixes that differ at any horizon
    differ at the same first letter as the shifts; ranks that are all
    distinct at a horizon, shorter or longer, are the order of the shifts.
    Two ranks still equal at horizon h >= 2·longest are two equal shifts: a
    word is a proper power or two words are rotations of one word, which
    raises ``ValueError``.

    Memory: the keys are packed and ranked in place, so beside ``jump`` at
    most three 8-byte arrays of N shifts are alive at once.
    """
    import numpy as np

    if not all(words):
        raise ValueError("cyclic words must be nonempty")
    _check_letters("".join(words))
    check_letter_budget(words)
    _, jump = _successors(words)
    horizon = 2 * max(map(len, words))
    key = (np.frombuffer("".join(words).encode(), dtype=np.uint8) == ord("b")).astype(np.uint64)
    for h in (1, 2, 4, 8, 16, 32):
        np.bitwise_or(key << np.uint64(h), key[jump], out=key)
        jump = jump[jump]
    n, h = len(key), 64
    while True:
        order = np.argsort(key)
        key = key[order]
        rises = key[1:] != key[:-1]
        if rises.all():
            break
        if h >= horizon:
            raise ValueError("a word is a proper power, or two words are rotations of one word")
        # dense ranks in sorted order, written over the sorted keys, then by shift
        key[0] = 0
        np.cumsum(rises, out=key[1:])
        rank = np.empty_like(key)
        rank[order] = key
        del key, order, rises
        # N <= 2^26 (check_letter_budget): rank·N + rank[jump] < N^2 <= 2^52
        key = rank * n
        key += rank[jump]
        del rank
        jump = jump[jump]
        h *= 2
    # the narrowest dtype that holds the number of shifts keeps the index arrays
    # of _crossing_matrix's sweep small; ranks are indices there, never compared in bulk
    final = np.empty(n, dtype=np.min_scalar_type(n))
    final[order] = np.arange(n, dtype=final.dtype)
    return final


def _pair_starts(w: int) -> tuple[int, ...]:
    """Where row i of W words' pair order (i, j >= i) starts: ``pos(i, i) = i·W - i(i-1)/2``."""
    return tuple(accumulate(range(w, 1, -1), initial=0))  # row i holds W - i pairs


def _crossing_matrix(words: list[str]) -> np.ndarray:
    """``P[i, j]``, i <= j, in pair order: a-shifts x of word i, b-shifts y of word j, σx > σy.

    The result is one uint32 array, the upper triangle of ``P`` in pair
    order: ``P[i, j]`` is at ``pos(i, j) = pos(i, i) + (j - i)``, the row
    starts of :func:`_pair_starts`.  ``P`` is symmetric (proof in
    :func:`verify_pairs`), so the triangle is all of it.

    One sweep in successor-rank order.  The successor ranks σx are distinct,
    a permutation of the N shifts, so scattering the b-indicator by rank
    sorts it with no argsort.  Its exclusive cumsum gives ``below[x]``, the
    number of b-shifts whose successors rank below σx, for each a-shift x,
    and each b-shift's place among the b-shifts in rank order.  Let
    ``C[c, j]`` be the number of word j's b-shifts among the first c b-shifts
    in rank order, a one-hot table cumulated down its columns.  A b-shift y
    has σy < σx iff it is among the first ``below[x]``, as the ranks are
    distinct, so ``#{y in B_j : σy < σx} = C[below[x], j]`` and

        P[i, j] = sum over a-shifts x of word i of C[below[x], j],

    the rows of ``C`` gathered at ``below`` and summed over each word's
    a-shifts.  Words without b-shifts have zero columns in ``C``, words
    without a-shifts empty segments and zero rows.

    For W words that is at most (N + 1)·W table cells, N²/L̄ for mean length
    L̄, in place of the N_a·N_b ≈ N²/4 shift comparisons of the direct count.
    The columns are swept in chunks whose table and gathered rows hold at
    most ``_CHUNK_CELLS`` cells, one column when N is larger.  A chunk of
    columns [lo, hi) needs only the rows i < hi, whose a-shifts come first
    in ``below``, so the gathers cover the triangle, about half the square.
    Beside the W(W + 1)/2 result memory is O(N) plus that budget; the ranking
    of :func:`_shift_ranks` holds O(N) integers and no string.
    """
    import numpy as np

    rank = _shift_ranks(words)
    n, w = len(rank), len(words)
    starts, succ = _successors(words)
    nxt = rank[succ]
    is_a = np.frombuffer("".join(words).encode(), dtype=np.uint8) == ord("a")
    nxt_a, nxt_b = nxt[is_a], nxt[~is_a]
    # ranked[r + 1] is 1 where rank r is a b-shift's successor; cumulated, ranked[r]
    # counts the b-shifts whose successors rank below r, at most N as the ranks' dtype holds
    ranked = np.zeros(n + 1, dtype=rank.dtype)
    ranked[1:][nxt_b] = 1
    np.cumsum(ranked, dtype=ranked.dtype, out=ranked)
    below, place = ranked[nxt_a], ranked[nxt_b]
    b_counts = [word.count("b") for word in words]
    b_starts = np.cumsum([0] + b_counts)
    b_word = np.repeat(np.arange(w), b_counts)
    a_counts = np.diff(starts) - b_counts
    a_ends = np.cumsum(a_counts)
    # reduceat sums an empty segment as one element, so only words with a-shifts are reduced
    rows = a_counts.nonzero()[0]
    first = (a_ends - a_counts)[rows]
    # pos(i, 0), so that P[i, j] is at row_pos[i] + j
    row_pos = np.array(_pair_starts(w)) - np.arange(w)
    width = max(1, _CHUNK_CELLS // (n + 1))
    p = np.zeros(w * (w + 1) // 2, dtype=np.uint32)
    for lo in range(0, w, width):
        hi = min(lo + width, w)
        # the longest length L <= 2^13 (check_letter_budget): C[c, j] <= L and a
        # segment sum is at most L^2 <= 2^26.  C would fit uint16, but reduceat
        # copies a block whole to sum it in another dtype, so the table is
        # uint32, the sums' dtype: no more bytes at the peak, and no copy.
        table = np.zeros((len(nxt_b) + 1, hi - lo), dtype=np.uint32)
        chunk = slice(b_starts[lo], b_starts[hi])
        table[1:][place[chunk], b_word[chunk] - lo] = 1
        np.cumsum(table, axis=0, dtype=np.uint32, out=table)
        k = np.searchsorted(rows, hi)  # the words i < hi with a-shifts
        gathered = table.take(below[: a_ends[hi - 1]], axis=0)
        del table  # before the sums are allocated
        block = np.add.reduceat(gathered, first[:k], axis=0, dtype=np.uint32)
        del gathered  # before the next chunk's table is allocated
        i, j = rows[:k, None], np.arange(lo, hi)
        upper = j >= i
        p[(row_pos[i] + j)[upper]] = block[upper]
    return p


def _lk2d_dtype(t: Triple, longest: int):
    """The dtype of :func:`verify_pairs`' values: int64 where every value provably fits, else object.

    Let two words have n, n' <= ``longest`` letters, u, u' a's and v, v' b's,
    and (a, b, c) = ``t.q_coefficients``: a = (q-1)(r-1) - 1 >= 0, b = r and
    c = (p-1)(r-1) - 1 >= 0, as p, q, r >= 2.  Then cr = P[i, j] + P[j, i]
    <= u·v' + u'·v <= n·n', and u·u', v·v' and u·v' + v·u' are each at most
    n·n', so |Q| = |a·u·u' - b·(u·v' + v·u') + c·v·v'| <= (a + b + c)·n·n'.
    So |2Q|, |delta·cr| and |lk2d| = |2Q - delta·cr| are all at most
    ``(2(a + b + c) + delta)·longest^2``.  Above int64 that bound is met with
    object arrays of Python ints, which compute the same values exactly on
    the same code path.
    """
    import numpy as np

    bound = (2 * sum(t.q_coefficients) + t.delta) * longest**2
    return np.int64 if bound <= np.iinfo(np.int64).max else object


@dataclass(frozen=True, slots=True, eq=False)
class PairTable(Sequence):
    """The record of one :func:`verify_pairs` call: its pair reports in the order (i, j >= i).

    The table holds the words, ``two_delta``, the call's ``elapsed_s`` (see
    :func:`verify_pairs`), the ``row_starts`` of :func:`_pair_starts` and, in
    pair order, two numpy arrays: the crossing numbers ``cr`` and the integer
    keys ``lk2d`` (int64, or object holding Python ints, see
    :func:`_lk2d_dtype`).  A :class:`PairReport`, with Python ``int`` fields,
    is built only when one is read by index, which iteration does too: pair k
    is (i, i + k - row_starts[i]) for the last row i that starts at or before
    k.  Indices run over ``range(len(table))`` and may be negative, as for a list.
    """

    words: tuple[str, ...]
    row_starts: tuple[int, ...]
    cr: np.ndarray
    lk2d: np.ndarray
    two_delta: int
    elapsed_s: float

    def __len__(self) -> int:
        return len(self.cr)

    def __getitem__(self, k) -> PairReport:
        # as for a list: IndexError out of range, negative k wraps, a float refused, a bool its int
        k = range(len(self.cr))[k]
        i = bisect_right(self.row_starts, k) - 1
        w, j = self.words, i + k - self.row_starts[i]
        return PairReport(w[i], w[j], self.cr.item(k), self.lk2d.item(k), self.two_delta)


def verify_pairs(t: Triple, words: list[str]) -> PairTable:
    """Evaluate the linking formula on all unordered pairs of the given words.

    Each word is paired with itself (translated-copy convention) and with
    every later word.
    The words are not required to be admissible, so non-admissible controls
    can be fed through the same pipeline; each report carries a negativity
    verdict.  Each word is primitive, no two are rotations of one word, and
    each is reported as given.  No words, or more than ``MAX_VERIFY_WORDS``,
    are refused at once; :func:`_shift_ranks` checks the rest, the letter budget
    ``MAX_LETTERS`` before any ranking.

    Crossing numbers count order swaps on the branch line (Birman-Williams,
    Topology 1983): shifts x and y of the two words cross when their order
    differs from the order of their successors σx and σy.  Lemma: only an
    a-shift and a b-shift can swap.  Proof: the order is lexicographic with
    a < b, so x = c·σx and y = c·σy with the same first letter c compare as
    σx and σy do, and every a-shift sorts below every b-shift.  Hence an
    a-shift x and a b-shift y cross iff σx > σy, and

        cr(w_i, w_j) = P[i, j] + P[j, i] = 2·P[i, j],

    with ``P`` from :func:`_crossing_matrix` over one global ranking of every
    shift of every word; for i = j this is the translated-copy count 2·P[i, i].
    ``P`` is symmetric: (x, y) -> (σx, σy) permutes the pairs of a shift of
    word i and a shift of word j, so the pairs with x < y and σx > σy,
    P[i, j] of them, are as many as those with x > y and σx < σy, P[j, i]
    (a test checks the definition-level matrix for the same), so
    :func:`_crossing_matrix` computes only the cells i <= j, in pair order.
    The result is a :class:`PairTable`: the pair order's row starts, ``cr``
    and ``lk2d = 2·Q - delta·cr`` as arrays in that order, one ``q_form``
    call per pair, and no report built.  Its ``elapsed_s``, a verification's
    one clock, starts after the numpy import, leaving out that one-time cost.
    For N shifts and W words the crossing matrix takes at most (N + 1)·W
    table cells of work.  On the int64 path memory is the table's 16 bytes a
    pair, O(N) and the fixed chunk budgets: the uint32 triangle of ``P`` is
    freed once ``cr`` is built from it, before the keys are formed, and they
    are formed in place.
    """
    if not words:
        raise ValueError("verify_pairs needs at least one word")
    if len(words) > MAX_VERIFY_WORDS:
        raise ValueError(f"{len(words):,} words exceed the verify limit of {MAX_VERIFY_WORDS:,}")
    import numpy as np

    start = time.perf_counter()
    dtype = _lk2d_dtype(t, max(map(len, words)))
    # P is symmetric, so cr = 2·P[i, j] for i <= j; the uint32 triangle is freed at once
    cr = _crossing_matrix(words).astype(dtype)
    cr *= 2
    counts = [(w.count("a"), w.count("b")) for w in words]
    # one q_form call per pair through this module's global, so a wrapper put
    # there sees each; the rows walk the pair order (i, j >= i)
    rows = (map(q_form, repeat(t), repeat(c), counts[i:]) for i, c in enumerate(counts))
    lk2d = np.fromiter(chain.from_iterable(rows), dtype=dtype, count=len(cr))
    lk2d *= 2
    # lk2d = 2·Q - delta·cr in place, a chunk at a time, so no per-pair temporary
    for s in range(0, len(cr), _CHUNK_CELLS):
        lk2d[s : s + _CHUNK_CELLS] -= t.delta * cr[s : s + _CHUNK_CELLS]
    elapsed_s = time.perf_counter() - start
    return PairTable(tuple(words), _pair_starts(len(words)), cr, lk2d, 2 * t.delta, elapsed_s)


@dataclass(frozen=True)
class TripleSummary:
    """Verification outcome for one parameter triple."""

    p: int
    q: int
    r: int
    n_words: int
    n_pairs: int
    violations: tuple[PairReport, ...]
    worst: Fraction
    worst_pair: tuple[str, str]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """The summary's one field list, shared by every output format."""
        return {
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "words": self.n_words,
            "pairs": self.n_pairs,
            "violations": len(self.violations),
            "worst": str(self.worst),
            "worst_word1": self.worst_pair[0],
            "worst_word2": self.worst_pair[1],
            "elapsed_s": self.elapsed_s,
        }


def summarize(t: Triple, reports: PairTable) -> TripleSummary:
    """Reduce one triple's pair table to its verdict: violations and the worst pair.

    The table must come from :func:`verify_pairs` on ``t``, so it holds at
    least one pair; the summary keeps its ``elapsed_s``.  lk2d = lk·2·delta
    is an exact integer key, and the worst pair is its first maximum, the
    report ``max(reports, key=lk2d)`` would give.  Reports are built only
    for the worst pair and for the violations, the pairs with lk2d >= 0, in
    pair order; one ``Fraction`` is built, the worst ``lk``.
    """
    worst = reports[reports.lk2d.argmax()]
    violations = tuple(map(reports.__getitem__, (reports.lk2d >= 0).nonzero()[0]))
    return TripleSummary(
        p=t.p,
        q=t.q,
        r=t.r,
        n_words=len(reports.words),
        n_pairs=len(reports),
        violations=violations,
        worst=worst.lk,
        worst_pair=(worst.word1, worst.word2),
        elapsed_s=reports.elapsed_s,
    )


@dataclass(frozen=True)
class RangeSummary:
    """Aggregate over a range of triples; deterministic apart from timings."""

    triples: tuple[TripleSummary, ...]
    elapsed_s: float

    @property
    def total_pairs(self) -> int:
        return sum(s.n_pairs for s in self.triples)

    @property
    def total_violations(self) -> int:
        return sum(len(s.violations) for s in self.triples)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def as_dict(self) -> dict:
        """The range's one field list: per-triple summaries and the totals."""
        return {
            "triples": [s.as_dict() for s in self.triples],
            "total_pairs": self.total_pairs,
            "total_violations": self.total_violations,
            "elapsed_s": self.elapsed_s,
        }


def range_triples(
    p_max: int, q_max: int, r_max: int, include_p2: bool = True
) -> list[Triple]:
    """Hyperbolic triples p <= q <= r within bounds, sorted: all p >= 3, plus,
    when requested, p = 2 with q and r odd, the extremal families' p = 2 domain."""
    return [
        Triple(p, q, r)
        for p in range(2 if include_p2 else 3, p_max + 1)
        for q in range(p, q_max + 1)
        for r in range(q, r_max + 1)
        if (p > 2 or q % 2 == r % 2 == 1) and p * q * r - p * q - q * r - p * r >= 1
    ]


def verify_triple(t: Triple) -> TripleSummary:
    """Run the negativity check on the extremal orbits of one triple.

    Families over ``MAX_VERIFY_WORDS`` words are refused before any word is
    built; ``elapsed_s`` is :func:`verify_pairs`' time alone.
    """
    check_family_bound(t.p, t.q, t.r)
    return summarize(t, verify_pairs(t, extremal_orbits(t)))


def verify_range(
    p_max: int, q_max: int, r_max: int, include_p2: bool = True, jobs: int | None = None
) -> RangeSummary:
    """Verify all triples in range; work is distributed across processes.

    The result is deterministic regardless of scheduling: ``range_triples``
    is sorted by triple and ``pool.map`` keeps its order.  Every triple has
    p <= q <= r, so a box is bounded by its largest reachable corner, whose
    family must pass :func:`check_family_bound` before any triple is built;
    a box that holds no triple is refused as well, and so is one whose last
    triple, the one with the most letters, fails :func:`check_letter_budget`.
    A triple's ``elapsed_s`` is its :func:`verify_pairs` time.
    """
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be >= 1")
    start = time.perf_counter()
    p_max, q_max = min(p_max, q_max, r_max), min(q_max, r_max)
    check_family_bound(p_max, q_max, r_max)
    triples = range_triples(p_max, q_max, r_max, include_p2=include_p2)
    if not triples:
        raise ValueError(f"no triple to verify with p <= {p_max}, q <= {q_max}, r <= {r_max}")
    check_letter_budget(extremal_orbits(triples[-1]))
    # A forking pool starts all its workers at the first submit, so never ask
    # for more than there are processors or triples.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs or cpus, cpus, len(triples))
    if workers <= 1:
        summaries = [verify_triple(t) for t in triples]
    else:
        from concurrent.futures import ProcessPoolExecutor

        import numpy  # noqa: F401  the workers fork with it loaded, so none imports it again

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(verify_triple, triples))
    return RangeSummary(triples=tuple(summaries), elapsed_s=time.perf_counter() - start)

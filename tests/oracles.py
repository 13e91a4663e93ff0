"""Independent brute-force oracles used to cross-check the fast paths.

These deliberately reuse only the sequence-comparison primitive and count
everything by definition, so they stay independent of the rank-based engines
they validate.  The kneading data that only tests use, of the open and the
Lorenz templates, are built here from their two stored bounds.  The
modular-knot oracles for (2, 3, r) at the end share no code with the package.
"""

from fractions import Fraction
from itertools import groupby, product
from math import floor

from templink.kneading import KneadingData
from templink.words import PeriodicSequence, compare


def shift_sequences(word: str) -> list[PeriodicSequence]:
    return [PeriodicSequence("", word[i:] + word[:i]) for i in range(len(word))]


def oracle_crossing(v: str, x: str) -> int:
    """Order-swap count over all shift pairs, straight from the definition."""
    sv, sx = shift_sequences(v), shift_sequences(x)
    n, m = len(sv), len(sx)
    count = 0
    for i, j in product(range(n), range(m)):
        before = compare(sv[i], sx[j])
        after = compare(sv[(i + 1) % n], sx[(j + 1) % m])
        if before != after:
            count += 1
    return count


def oracle_crossing_matrix(words: list[str]) -> list[list[int]]:
    """``P[i][j]``: a-shifts x of word i and b-shifts y of word j with σx > σy, by definition."""
    shifts = [shift_sequences(w) for w in words]
    # each shift with its successor, split by first letter
    steps = [list(zip(s, s[1:] + s[:1])) for s in shifts]
    a_next = [[nx for x, nx in st if x.prefix(1) == "a"] for st in steps]
    b_next = [[ny for y, ny in st if y.prefix(1) == "b"] for st in steps]
    return [
        [sum(compare(nx, ny) > 0 for nx in a_next[i] for ny in b_next[j]) for j in range(len(words))]
        for i in range(len(words))
    ]


def reversed_code(word: str, p: int, q: int) -> str:
    """The code ``w*`` of the reversed orbit: reversed, runs complemented, least rotation.

    The word must have both letters and no cyclic ``a^p`` or ``b^q``.  Read
    from a rotation that starts a run, so that its runs are its cyclic runs,
    the reversed word's runs ``a^i`` become ``a^(p-i)`` and ``b^j`` become
    ``b^(q-j)``; the result is its least rotation, by definition.
    """
    start = next(i for i in range(len(word)) if word[i] != word[i - 1])
    runs = groupby(reversed(word[start:] + word[:start]))
    out = "".join(c * ((p if c == "a" else q) - len(list(run))) for c, run in runs)
    return min(out[i:] + out[:i] for i in range(len(out)))


def _reduce_runs(word: str, p: int, q: int) -> str:
    """The cyclic runs reduced, ``a`` mod p and ``b`` mod q, until none changes, in least rotation."""
    while len(set(word)) == 2:
        start = next(i for i in range(len(word)) if word[i] != word[i - 1])
        rot = word[start:] + word[:start]
        out = "".join(c * (len(list(run)) % (p if c == "a" else q)) for c, run in groupby(rot))
        if out == rot:
            return min(out[i:] + out[:i] for i in range(len(out)))
        word = out
    # one cyclic run, or none
    return word[:1] * (len(word) % (p if word[:1] == "a" else q))


def tie_rewrite(w: str, p: int, q: int, r: int) -> set[str]:
    """The words of even ``r``'s tie rewrite of ``w``, each in least rotation.

    With P = a^(p-1)b and P⁻¹ = b^(q-1)a the relator's half, P^(r/2) =
    (P⁻¹)^(r/2), codes one element two ways.  Each rotation of ``w`` that
    starts with one half has it swapped for the other, and the runs are then
    reduced cyclically, ``a`` mod p and ``b`` mod q, until none changes.  The
    set is empty when ``w`` holds no cyclic run of either half.
    """
    half = r // 2
    syllable, inverse = ("a" * (p - 1) + "b") * half, ("b" * (q - 1) + "a") * half
    out = set()
    for i in range(len(w)):
        rot = w[i:] + w[:i]
        for run, swap in ((syllable, inverse), (inverse, syllable)):
            if rot.startswith(run):
                out.add(_reduce_runs(swap + rot[len(run) :], p, q))
    return out


def kneading_unbounded(p: int, q: int) -> KneadingData:
    """Bounds of the open template with the top surgery removed: the pure
    syllable sequences (a^(p-1) b)^inf and (b^(q-1) a)^inf."""
    u_L = PeriodicSequence("", "a" * (p - 1) + "b")
    return KneadingData(u_L, PeriodicSequence("", "b" * (q - 1) + "a"))


def lorenz_kneading() -> KneadingData:
    """Trivial bounds a^inf and b^inf of the full Lorenz template: every word is admissible."""
    return KneadingData(PeriodicSequence("", "a"), PeriodicSequence("", "b"))


def oracle_admissible(word: str, k) -> bool:
    """Definition-level admissibility: every shift between its ribbon's bounds."""
    for s in shift_sequences(word):
        if s.prefix(1) == "a":
            ok = compare(k.u_L, s) <= 0 and compare(s, k.u_R) <= 0
        else:
            ok = compare(k.v_L, s) <= 0 and compare(s, k.v_R) <= 0
        if not ok:
            return False
    return True


def oracle_cuts(word: str) -> list[tuple[str, str, int, int]]:
    """Every cut of the cyclic word, as (u, v, rotation, split), by definition.

    Tries every rotation and split point: ``u`` must end in a, ``v`` in b,
    ``u^inf < v^inf``, and no shift of either factor may lie strictly between.
    """
    out = []
    n = len(word)
    for k in range(n):
        rot = word[k:] + word[:k]
        for split in range(1, n):
            u, v = rot[:split], rot[split:]
            if u[-1] != "a" or v[-1] != "b":
                continue
            su, sv = PeriodicSequence("", u), PeriodicSequence("", v)
            if compare(su, sv) >= 0:
                continue
            shifts = shift_sequences(u) + shift_sequences(v)
            if not any(compare(su, s) < 0 and compare(s, sv) < 0 for s in shifts):
                out.append((u, v, k, split))
    return out


def syllables(word: str) -> list[tuple[int, int]]:
    """Cyclic decomposition of a two-letter word into maximal blocks a^i b^j.

    The decomposition starts at an ``a`` that cyclically follows a ``b``, so
    it is rotation-invariant.
    """
    n = len(word)
    start = next(
        (i for i in range(n) if word[i] == "a" and word[i - 1] == "b"), None
    )
    if start is None:
        raise ValueError(f"{word!r} does not contain both letters")
    rot = word[start:] + word[:start]
    out: list[tuple[int, int]] = []
    i = 0
    while i < n:
        j = i
        while j < n and rot[j] == "a":
            j += 1
        k = j
        while k < n and rot[k] == "b":
            k += 1
        out.append((j - i, k - j))
        i = k
    return out


def _max_cyclic_run(items: list, target) -> int:
    # assumes not all items equal target; doubling captures wraparound runs
    best = run = 0
    for x in items + items:
        run = run + 1 if x == target else 0
        best = max(best, run)
    return best


def oracle_block_constraints(word: str, t) -> bool:
    """Block constraints by syllable walk: runs below (p, q), syllable repeats
    at most floor((r-2)/2), and not a pure syllable word."""
    if "a" not in word or "b" not in word:
        return False
    max_a, max_b, max_rep = t.p - 1, t.q - 1, (t.r - 2) // 2
    blocks = syllables(word)
    if any(i > max_a or j > max_b for i, j in blocks):
        return False
    for syl in ((t.p - 1, 1), (1, t.q - 1)):
        if all(b == syl for b in blocks):
            return False
        if _max_cyclic_run(blocks, syl) > max_rep:
            return False
    return True


# Modular knots (É. Ghys, "Knots and dynamics", Proc. ICM 2006).  The orbits of
# the (2, 3, inf) orbifold, the modular surface, are the modular knots of
# T^1(PSL(2, Z)) = S^3 minus the trefoil, and they are Lorenz knots.  A (2, 3)
# code word is a word in the syllables ab and abb; read as x < y, it is the
# knot's Lorenz word, and as -R and -L it is the knot's element of SL(2, Z).


def syllable_word(word: str) -> str:
    """A (2, 3) word as its syllable word over x < y, with ``ab -> x`` and ``abb -> y``.

    Read from an ``a`` that follows a ``b``, as :func:`syllables` reads; a word
    with a cyclic ``aa`` or ``bbb``, or without both letters, raises ``ValueError``.
    """
    blocks = syllables(word)
    if any(block not in ((1, 1), (1, 2)) for block in blocks):
        raise ValueError(f"{word!r} is not a word in ab and abb")
    return "".join("x" if j == 1 else "y" for _, j in blocks)


def lorenz_linking(w1: str, w2: str) -> Fraction:
    """Linking number of the Lorenz knots of two words over x < y (Birman-Williams 1983).

    Every crossing of the Lorenz braid is positive, so the linking number is
    half the crossings between the two knots' strands: the pairs (a shift of
    w1, a shift of w2) whose order on the branch line differs from the order
    of their successors.  Shifts of periods n and m that agree on n + m
    letters are equal (Fine and Wilf), so prefixes of 2·(n + m) letters order
    them.  For w1 == w2, a shift paired with itself never swaps: the
    translated-copy convention.
    """
    horizon = 2 * (len(w1) + len(w2))

    def prefixes(w):
        # one per shift, and the first again as the last shift's successor
        long = w * (horizon // len(w) + 2)
        return [long[i : i + horizon] for i in range(len(w) + 1)]

    s1, s2 = prefixes(w1), prefixes(w2)
    swaps = sum(
        (s1[i] < s2[j]) != (s1[i + 1] < s2[j + 1]) for i in range(len(w1)) for j in range(len(w2))
    )
    return Fraction(swaps, 2)


def _product(m, n):
    return tuple(tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)) for i in range(2))


def modular_matrix(word: str):
    """A (2, 3) word's element of SL(2, Z): ``S·U`` for each ``ab``, ``S·U²`` for each ``abb``, in order.

    S = [[0, -1], [1, 0]] and U = [[0, -1], [1, 1]] have orders 2 and 3 in
    PSL(2, Z), and S·U = -R, S·U² = -L for R = [[1, 1], [0, 1]] and
    L = [[1, 0], [1, 1]].  Another rotation of the word gives a conjugate.
    """
    u = ((0, -1), (1, 1))
    su = _product(((0, -1), (1, 0)), u)
    syllable = {"x": su, "y": _product(su, u)}
    m = ((1, 0), (0, 1))
    for letter in syllable_word(word):
        m = _product(m, syllable[letter])
    return m


def _sawtooth(x: Fraction) -> Fraction:
    """((x)) = x - floor(x) - 1/2, and 0 at an integer."""
    return Fraction(0) if x.denominator == 1 else x - floor(x) - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum over 0 <= r < k of ((r/k))·((hr/k)), for k >= 1."""
    return sum((_sawtooth(Fraction(r, k)) * _sawtooth(Fraction(h * r, k)) for r in range(k)), Fraction(0))


def rademacher(m) -> Fraction:
    """Rademacher's function Psi of ``m = ((a, b), (c, d))`` in SL(2, Z), exact.

    In Rademacher and Grosswald's convention ("Dedekind Sums", 1972):
    Phi = b/d if c = 0, otherwise (a + d)/c - 12·sign(c)·s(a, |c|), and
    Psi = Phi - 3·sign(c·(a + d)).  Both are unchanged by m -> -m, since
    s(-a, k) = -s(a, k).  Ghys proved that Psi(m) is the linking number of
    m's modular knot with the trefoil.
    """
    (a, b), (c, d) = m

    def sign(x):
        return (x > 0) - (x < 0)

    if c == 0:
        phi = Fraction(b, d)
    else:
        phi = Fraction(a + d, c) - 12 * sign(c) * dedekind_sum(a, abs(c))
    return phi - 3 * sign(c * (a + d))

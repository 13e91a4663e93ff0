"""Independent brute-force oracles used to cross-check the fast paths.

These deliberately reuse only the sequence-comparison primitive and count
everything by definition, so they stay independent of the rank-based engines
they validate.  The kneading data that only tests use, of the open and the
Lorenz templates, are built here from their two stored bounds.  The
modular-knot oracles for (2, 3, r) and the triangle-group oracle at the end
share no code with the package.
"""

from fractions import Fraction
from functools import cache
from itertools import groupby, product
from math import ceil, floor, lcm

import numpy as np

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


# The triangle group (ROADMAP item 15).  The (p, q, r) orbifold's group is
# generated by elliptic A and B with tr A = 2cos(π/p), tr B = 2cos(π/q) and
# tr AB = -2cos(π/r), so that AB has order r in PSL(2, R); a ↦ A⁻¹ and b ↦ B
# send the syllable a^(p-1)b to -AB, as A^p = -I.  The orbifold's closed
# geodesics are the hyperbolic conjugacy classes, |tr| > 2.  The entries lie
# in Z[ζ], ζ = e^(iπ/N) for N = lcm(p, q, r), written as integer coefficient
# vectors modulo x^(2N) - 1; two are equal iff their residues modulo Φ_2N,
# ζ's minimal polynomial, are.
# Nothing here uses a float or the kneading tables.


@cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Φ_n's integer coefficients, lowest first: x^n - 1 divided by Φ_d for every d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            g = _cyclotomic(d)
            quotient = [0] * (len(poly) - len(g) + 1)
            for i in reversed(range(len(quotient))):  # g is monic
                quotient[i] = top = poly[i + len(g) - 1]
                for j, gj in enumerate(g):
                    poly[i + j] -= top * gj
            assert not any(poly), (n, d)
            poly = quotient
    return tuple(poly)


@cache
def _powers_mod_cyclotomic(n: int) -> np.ndarray:
    """Row k holds the coefficients of x^k mod Φ_2n, for k < n."""
    phi = _cyclotomic(2 * n)
    degree = len(phi) - 1
    rows, row = [], [1] + [0] * (degree - 1)
    for _ in range(n):
        rows.append(row)
        top, row = row[-1], [0] + row[:-1]  # times x, then x^degree = -(phi's lower terms)
        row = [c - top * f for c, f in zip(row, phi)]
    powers = np.array(rows, dtype=np.int64)
    powers.flags.writeable = False  # shared by every caller through the cache
    return powers


def _halve(v: np.ndarray) -> np.ndarray:
    """v modulo x^N + 1, which Φ_2N divides, as ζ^N = -1: N coefficients."""
    n = len(v) // 2
    return v[:n] - v[n:]


def cyclotomic_residue(v: np.ndarray) -> tuple[int, ...]:
    """The residue of a 2N-coefficient vector modulo Φ_2N: equal residues, equal elements of Z[ζ]."""
    u = _halve(v)
    powers = _powers_mod_cyclotomic(len(u))
    # each residue coefficient is at most |u|_1 · max|powers| in size
    assert int(np.abs(u).sum()) * int(np.abs(powers).max()) < 2**63
    return tuple((u @ powers).tolist())


def triangle_matrix(word: str, p: int, q: int, r: int) -> np.ndarray:
    """The word's element of the (p, q, r) triangle group, a ↦ A⁻¹ and b ↦ B, as a (2, 2, 2N) array.

    With λ = ζ^(N/p), μ = ζ^(N/q) and ν = ζ^(N/r), A⁻¹ = [[λ⁻¹, -1], [0, λ]]
    and B = [[μ, 0], [c, μ⁻¹]] with c = -(ν + ν⁻¹ + λμ + λ⁻¹μ⁻¹): then
    tr A = λ + λ⁻¹ = 2cos(π/p), tr B = 2cos(π/q) and tr AB = λμ + c + λ⁻¹μ⁻¹
    = -2cos(π/r).  The letters ``A`` and ``B`` stand for a⁻¹ and b⁻¹, so
    they map to A = [[λ, 1], [0, λ⁻¹]] and B⁻¹ = [[μ⁻¹, 0], [-c, μ]].  Each
    letter multiplies the columns by monomials, which are cyclic shifts, and
    by the four-term c.  A letter a or A at most doubles the largest
    |coefficient|_1 of an entry and a letter b or B at most quintuples it, so
    the int64 entries hold while 2^(#a + #A)·5^(#b + #B) < 2^62.
    """
    letters = word.lower()
    if 2 ** letters.count("a") * 5 ** letters.count("b") >= 2**62:
        raise ValueError(f"{word!r} is too long for int64 coefficients")
    n = lcm(p, q, r)
    lam, mu, nu = n // p, n // q, n // r
    m = np.zeros((2, 2, 2 * n), dtype=np.int64)
    m[0, 0, 0] = m[1, 1, 0] = 1
    for letter in word:
        left, right = m[:, 0], m[:, 1]
        sign = 1 if letter.islower() else -1  # a letter or its inverse
        if letter in "aA":
            shift = sign * lam
            m = np.stack([np.roll(left, -shift, axis=1), np.roll(right, shift, axis=1) - sign * left], axis=1)
        else:
            shift = sign * mu
            c_right = -sum(np.roll(right, s, axis=1) for s in (nu, -nu, lam + mu, -lam - mu))
            m = np.stack([np.roll(left, shift, axis=1) + sign * c_right, np.roll(right, -shift, axis=1)], axis=1)
    return m


def inverse_word(word: str) -> str:
    """The word of the inverse element: the letters reversed, with their case swapped."""
    return word[::-1].swapcase()


def triangle_trace(word: str, p: int, q: int, r: int) -> np.ndarray:
    """The trace of :func:`triangle_matrix`, 2N integer coefficients: a class function of the word."""
    m = triangle_matrix(word, p, q, r)
    return m[0, 0] + m[1, 1]


def _pi_bounds(bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits·π <= hi, from Machin's formula π = 16·arctan(1/5) - 4·arctan(1/239).

    Each arctan(1/x) = Σ (-1)^k / ((2k + 1)·x^(2k + 1)) alternates with
    decreasing terms, so its last two partial sums bracket it.
    """

    def arctan_inverse(x: int) -> tuple[Fraction, Fraction]:
        before, total, k = Fraction(0), Fraction(0), 0
        while k == 0 or abs(total - before) * (1 << bits) >= 1:
            before, total = total, total + Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
            k += 1
        return min(before, total), max(before, total)

    (lo5, hi5), (lo239, hi239) = arctan_inverse(5), arctan_inverse(239)
    return floor((16 * lo5 - 4 * hi239) * (1 << bits)), ceil((16 * hi5 - 4 * lo239) * (1 << bits))


def _cos_bound(y: int, scale: int, bits: int, upper: bool) -> int:
    """An integer below (or above) 2^bits·cos(y/2^scale), for 0 <= y/2^scale < √12.

    The Taylor series Σ (-1)^m y^(2m)/(2m)! alternates, and for y² < 12 its
    terms decrease from the first on, so a partial sum that ends on a positive
    term lies above cos and one that ends on a negative term below.  A sum is
    taken once the next term is under 2^-bits; ``num/den`` is it exactly.
    """
    num = den = power = 1  # the partial sum S_0 = 1 and the term y^0
    m = 0
    while True:
        step = (2 * m + 1) * (2 * m + 2) << 2 * scale  # the next term is power·y²/(den·step)
        power *= y * y
        if (m % 2 == 0) == upper and power << bits < den * step:
            return -(-(num << bits) // den) if upper else (num << bits) // den
        num, den, m = num * step + (-1) ** (m + 1) * power, den * step, m + 1


@cache
def _cos_bounds(n: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integers lo[k] <= 2^bits·cos(kπ/n) <= hi[k] for k < n."""
    scale = bits + 8
    pi_lo, pi_hi = _pi_bounds(scale)
    lo, hi = [], []
    for k in range(n):
        # kπ/n lies in [y_lo, y_hi]·2^-scale inside [0, π], where cos decreases
        y_lo, y_hi = k * pi_lo // n, -(-k * pi_hi // n)
        lo.append(_cos_bound(y_hi, scale, bits, upper=False))
        hi.append(_cos_bound(y_lo, scale, bits, upper=True))
    return tuple(lo), tuple(hi)


def is_hyperbolic(trace: np.ndarray) -> bool:
    """|tr| > 2 for a real trace of 2N coefficients with tr ≠ ±2, from exact rational enclosures.

    Modulo x^N + 1 the trace is Σ u_k ζ^k, k < N, whose real part, the trace,
    is Σ u_k cos(kπ/N).  It is enclosed between integer bounds at 2^-bits, and
    the bits double until the enclosure lies inside (-2, 2) or outside
    [-2, 2], as it does at last since tr ≠ ±2.
    """
    u = _halve(trace).tolist()
    bits = 64
    while True:
        lo, hi = _cos_bounds(len(u), bits)
        t_lo = sum(c * (lo[k] if c > 0 else hi[k]) for k, c in enumerate(u))
        t_hi = sum(c * (hi[k] if c > 0 else lo[k]) for k, c in enumerate(u))
        two = 2 << bits
        if t_lo > two or t_hi < -two:
            return True
        if -two < t_lo and t_hi < two:
            return False
        bits *= 2

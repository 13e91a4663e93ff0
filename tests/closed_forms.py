"""Closed-form linking identities and crossing bounds that the tests check.

:func:`surgery_linking` is the general surgery formula lk_s3 + Q'(x, y)/delta
on Hopf linking vectors, the oracle for the package's reduced form Q and for
its template linking numbers.
:func:`instances` yields, for one triple, each catalog entry's instances
``(entry, word1, word2, value)``, the value being delta * lk of the two orbit
words as the printed closed form gives it; the tests compare it with the
exact crossing-plus-form pipeline.  Some quantities are recorded in two
circulating variants that differ by sign or coefficient slips; both are kept
and the tests pin which of them the pipeline confirms.
:func:`refined_bound_failures` checks the refined crossing lower bound, and
:func:`superadditivity_instances` samples the cut instances of
superadditivity, a check that reads no triple.
:func:`free_product_counts` counts the run-limited Lyndon words by length
from a generating function, with no word built.
:func:`limit_linking` is the r = infinity limit of template linking and
:func:`cusp_winding` the factor of the rank-one term that the surgery
identity of :func:`templink.linking.template_linking` adds at finite r.
"""

import random
from fractions import Fraction

from templink.crossing import enumerate_cuts, word_crossing
from templink.kneading import Triple
from templink.linking import qprime_matrix
from templink.words import canonicalize

# corner name -> its point (i, j, i', j'), the expanded and the factored
# polynomial, and whether it applies; all four are functions of (p, q, r)
CORNERS = {
    "diag_1_1": (
        lambda p, q, r: (1, 1, 1, 1),
        lambda p, q, r: -p * q * r + p * q + 2 * p * r + 2 * q * r - p - q - 4 * r,
        lambda p, q, r: -(p - 2) * (q - 2) * (r - 2) - (p - 3) * (q - 3) + 1,
        lambda p, q, r: True,
    ),
    "diag_p2_1": (
        lambda p, q, r: (p - 2, 1, p - 2, 1),
        lambda p, q, r: -p * q * r + 2 * p * q + p * r + 2 * q * r - p - 4 * q - r,
        lambda p, q, r: -(p - 2) * (q - 2) * (r - 2) - (p - 3) * (r - 3) + 1,
        lambda p, q, r: p >= 3,
    ),
    "p2_q1_vs_p2_1": (
        lambda p, q, r: (p - 2, q - 1, p - 2, 1),
        lambda p, q, r: -p * q * r + p * q + p * r + 3 * q * r + p - 4 * q - r,
        lambda p, q, r: -(p - 3) * (q - 1) * (r - 2) - (p - 2) * (q - 3),
        lambda p, q, r: p >= 3,
    ),
    "two_q1_vs_two_1": (
        lambda p, q, r: (2, q - 1, 2, 1),
        lambda p, q, r: -p * q * r + p * q + p * r + 3 * q * r + p - 4 * q - r,
        lambda p, q, r: -(p - 3) * (q - 1) * (r - 2) - (p - 2) * (q - 3),
        lambda p, q, r: p >= 3,
    ),
    "one_q1_vs_one_1": (
        lambda p, q, r: (1, q - 1, 1, 1),
        lambda p, q, r: p * r + 2 * p - q + 2 * r,
        lambda p, q, r: -(p - 2) * (r - 2) - q + 4,
        lambda p, q, r: True,
    ),
    "one_q2_vs_p2_1": (
        lambda p, q, r: (1, q - 2, p - 2, 1),
        lambda p, q, r: -p * q + 2 * p + 2 * q - r,
        lambda p, q, r: -(p - 2) * (q - 2) - r + 4,
        lambda p, q, r: p >= 3 and q >= 3,
    ),
    "two_q1_vs_p2_1": (
        lambda p, q, r: (2, q - 1, p - 2, 1),
        lambda p, q, r: -p * q - q * r + p + 4 * q + r,
        lambda p, q, r: -(q - 1) * (p + r - 4) + 4,
        lambda p, q, r: p >= 4,
    ),
}


def qprime_form(t: Triple, x: tuple[int, int, int], y: tuple[int, int, int]) -> int:
    """The surgery form Q'(x, y) = x^T M y, for the matrix M of ``qprime_matrix(t)``."""
    m = qprime_matrix(t)
    return sum(x[i] * m[i][j] * y[j] for i in range(3) for j in range(3))


def surgery_linking(
    t: Triple, lk_s3: Fraction | int, x: tuple[int, int, int], y: tuple[int, int, int]
) -> Fraction:
    """Linking number after surgery: lk_s3 + Q'(x, y) / delta, exactly.

    ``x`` and ``y`` are the linking vectors of the two links with the three
    Hopf components before surgery.
    """
    return Fraction(lk_s3) + Fraction(qprime_form(t, x, y), t.delta)


def _syl(i: int, j: int) -> str:
    return "a" * i + "b" * j


def instances(t: Triple):
    """(entry, word1, word2, closed-form delta * lk) of every catalog instance at t."""
    p, q, r, d = t.p, t.q, t.r, t.delta
    P, Q = t.syllables
    for i in range(1, p):
        for j in range(1, q):
            yield "scalar_qi_minus_pj", P, _syl(i, j), Fraction(q * i - p * j)
    for i in range(1, p):
        for i2 in range(i + 1, p):
            for j in range(1, q):
                for j2 in range(j + 1, q):
                    w1, w2 = _syl(i, j), _syl(i2, j2)
                    val = -(i * (q * r - q - r) - j * r) * (p - i2) - (
                        j * (p * r - p - r) - i * r
                    ) * (q - j2)
                    yield "nested_bilinear", w1, w2, Fraction(val)
                    # variant with a q where the exact form has a p in the second factor
                    first = -Fraction(i * q * r) * (
                        1 - Fraction(1, q) - Fraction(1, r) - Fraction(j, i * q)
                    ) * (p - i2)
                    second = -Fraction(j * p * r) * (
                        1 - Fraction(1, p) - Fraction(1, r) - Fraction(i, j * q)
                    ) * (q - j2)
                    yield "nested_bilinear_alt", w1, w2, first + second
    for i in range(1, p):
        for i2 in range(i, p):
            for j in range(1, q):
                for j2 in range(1, j + 1):
                    val = (
                        -((q * r - q - r) * i - r * j2) * (p - i2)
                        - ((p * r - p - r) * j2 - r * i) * (q - j)
                        - r * (i2 - i) * (j - j2)
                        + d
                    )
                    yield "straddling_bilinear", _syl(i, j), _syl(i2, j2), Fraction(val)
    for name, (point, expanded, factored, applicable) in CORNERS.items():
        if applicable(p, q, r):
            i, j, i2, j2 = point(p, q, r)
            w1, w2 = _syl(i, j), _syl(i2, j2)
            yield f"{name}_expanded", w1, w2, Fraction(expanded(p, q, r))
            yield f"{name}_factored", w1, w2, Fraction(factored(p, q, r))
    if p < 3:
        return
    repeats = range(1, t.max_repeats + 1)
    for k in repeats:
        for l in repeats:
            for k2 in repeats:
                for l2 in repeats:
                    val = (p * q - p - q) * (k - l) * (k2 - l2) - d * (
                        min(k, k2) + min(l, l2) - 1
                    )
                    yield "mixed_pair_closed_form", P * k + Q * l, P * k2 + Q * l2, Fraction(val)


def _repeat_block_words(t: Triple) -> list[tuple[int, int, int, str]]:
    """(k, i, j, word) for the primitive words (a^(p-1)b)^k a^i b^j in range."""
    p, q = t.p, t.q
    P = t.syllables[0]
    out = []
    for k in range(t.max_repeats + 1):
        for i in range(1, p):
            for j in range(1, q):
                if (i, j) == (p - 1, 1) and k >= 1:
                    continue  # (a^(p-1)b)^(k+1) is a power, not an orbit code
                out.append((k, i, j, P * k + _syl(i, j)))
    return out


def refined_bound_failures(t: Triple) -> tuple[int, list[str]]:
    """The pairs checked against the refined crossing lower bound, and those that fail it."""
    # cr((a^(p-1)b)^k a^i b^j, (a^(p-1)b)^k' a^i' b^j') >=
    #   k k' cr(P,P) + k cr(P, s') + k' cr(P, s) + cr(s, s') + 2 min(k, k')
    P = t.syllables[0]
    words = _repeat_block_words(t)
    cr_pp = word_crossing(P, P)
    # k = 0 lists every tail a^i b^j once
    cr_p = {(i, j): word_crossing(P, w) for k, i, j, w in words if k == 0}
    failures = []
    for k, i, j, w1 in words:
        for k2, i2, j2, w2 in words:
            lower = (
                k * k2 * cr_pp
                + k * cr_p[(i2, j2)]
                + k2 * cr_p[(i, j)]
                + word_crossing(_syl(i, j), _syl(i2, j2))
                + 2 * min(k, k2)
            )
            got = word_crossing(w1, w2)
            if got < lower:
                failures.append(f"cr({w1},{w2}) = {got} < refined lower bound {lower}")
    return len(words) ** 2, failures


def superadditivity_instances(samples: int, seed: int) -> list[tuple[str, str, str]]:
    """Seeded random (u, v, probe) cut instances for the superadditivity check:
    up to three cuts of each random word of length 4 to 14, each against a
    random probe of length 1 to 10."""
    rng = random.Random(seed)
    out: list[tuple[str, str, str]] = []
    while len(out) < samples:
        n = rng.randint(4, 14)
        raw = "".join(rng.choice("ab") for _ in range(n))
        if "a" not in raw or "b" not in raw:
            continue
        root, _ = canonicalize(raw)
        cuts = enumerate_cuts(root)
        rng.shuffle(cuts)
        for cut in cuts[:3]:
            probe = "".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
            out.append((cut.u, cut.v, probe))
            if len(out) >= samples:
                break
    return out


def _mobius(n: int) -> int:
    mu, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            mu = -mu
        k += 1
    return -mu if n > 1 else mu


def free_product_counts(p: int, q: int, max_len: int) -> list[int]:
    """Lyndon words with both letters and no cyclic a^p or b^q, by length 0..max_len.

    Such a word is a cyclic sequence of syllables ``a^i b^j`` with
    ``1 <= i < p`` and ``1 <= j < q``, a cyclically reduced word of the free
    product Z/p * Z/q.  With ``s(z) = (z + ... + z^(p-1)) (z + ... + z^(q-1))``
    the periodic points of period n number ``N_n = [z^n] z s'(z) / (1 - s(z))``
    (the syllable sequences, each counted once per letter over once per
    syllable), and the primitive cyclic words of length n are
    ``(1/n) sum_{d | n} mu(n/d) N_d``.
    """
    s = [0] * (max_len + 1)
    for i in range(1, p):
        for j in range(1, min(q, max_len + 1 - i)):
            s[i + j] += 1
    inverse = [1] + [0] * max_len  # 1 / (1 - s(z))
    for n in range(1, max_len + 1):
        inverse[n] = sum(s[k] * inverse[n - k] for k in range(1, n + 1))
    periodic = [sum(k * s[k] * inverse[n - k] for k in range(1, n + 1)) for n in range(max_len + 1)]
    return [0] + [
        sum(_mobius(n // d) * periodic[d] for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, max_len + 1)
    ]


def cusp_winding(p: int, q: int, w: str) -> int:
    """Psi(w) = q·u - p·v for a word with u a's and v b's."""
    return q * w.count("a") - p * w.count("b")


def limit_linking(p: int, q: int, w: str, w2: str) -> Fraction:
    """lk_inf = -cr/2 + [(q-1)uu' - (uv' + vu') + (p-1)vv'] / k, with k = pq - p - q."""
    u, v, u2, v2 = w.count("a"), w.count("b"), w2.count("a"), w2.count("b")
    form = (q - 1) * u * u2 - (u * v2 + v * u2) + (p - 1) * v * v2
    return Fraction(-word_crossing(w, w2), 2) + Fraction(form, p * q - p - q)

"""The exact triangle-group oracle: code words as elements of the (p, q, r) triangle group.

Every comparison is of residues modulo Φ_2N in Z[ζ], and every sign is
decided by integer enclosures; no float is used.  The complete census is
Duval's run-limited walk plus ``is_admissible``, as in the census tests.
"""

from math import lcm

import numpy as np

from oracles import (
    cyclotomic_residue,
    inverse_word,
    is_hyperbolic,
    reversed_code,
    triangle_matrix,
    triangle_trace,
)
from templink.census import extremal_orbits, lyndon_words, range_triples
from templink.kneading import Triple, is_admissible, kneading

CRITERION_10 = range_triples(4, 5, 7, include_p2=False) + range_triples(2, 9, 13)


def _monomial(n: int, k: int, c: int = 1) -> np.ndarray:
    """c·ζ^k as 2N coefficients."""
    v = np.zeros(2 * n, dtype=np.int64)
    v[k % (2 * n)] = c
    return v


def _complete_census(t: Triple, max_len: int) -> list[str]:
    k = kneading(t)
    return [w for w in lyndon_words(max_len, runs=(t.p, t.q)) if is_admissible(w, k)]


def _residues(m: np.ndarray) -> tuple:
    """The four entries of a triangle-group matrix as residues modulo Φ_2N."""
    return tuple(cyclotomic_residue(m[i, j]) for i in range(2) for j in range(2))


def test_inverse_letters_cancel():
    # A and B stand for a⁻¹ and b⁻¹: each letter times its inverse is I
    for t in CRITERION_10:
        identity = _residues(triangle_matrix("", t.p, t.q, t.r))
        for w in ("aA", "Aa", "bB", "Bb", "abAB" + inverse_word("abAB")):
            assert _residues(triangle_matrix(w, t.p, t.q, t.r)) == identity, (t, w)
    assert inverse_word("aabAb") == "BaBAA"


def test_relator_is_minus_identity():
    # A^p = -I, so a^(p-1)b ↦ -AB, whose trace is ν + ν⁻¹ = 2cos(π/r): the
    # syllable is elliptic, and its r-th power, the relator, is
    # (-1)^r·(AB)^r = (-1)^r·(-1)^(r-1)·I = -I.
    for t in CRITERION_10:
        n = lcm(t.p, t.q, t.r)
        syllable = "a" * (t.p - 1) + "b"
        trace = triangle_trace(syllable, t.p, t.q, t.r)
        assert cyclotomic_residue(trace) == cyclotomic_residue(_monomial(n, n // t.r) + _monomial(n, -n // t.r)), t
        assert not is_hyperbolic(trace), t
        m = triangle_matrix(syllable * t.r, t.p, t.q, t.r)
        minus_one = cyclotomic_residue(_monomial(n, 0, -1))
        assert cyclotomic_residue(m[0, 0]) == cyclotomic_residue(m[1, 1]) == minus_one, t
        assert not any(cyclotomic_residue(m[0, 1]) + cyclotomic_residue(m[1, 0])), t


def test_census_words_are_hyperbolic():
    # Each complete-census word of the criterion-10 triples, up to 10 letters,
    # codes a closed geodesic: its trace is real (it equals its conjugate, the
    # same vector at ζ⁻¹), tr² - 4 = (tr - 2)(tr + 2) is not 0, as neither
    # factor is 0 in the field Q(ζ), and |tr| > 2.
    words = 0
    for t in CRITERION_10:
        n = lcm(t.p, t.q, t.r)
        for w in _complete_census(t, 10):
            trace = triangle_trace(w, t.p, t.q, t.r)
            conjugate = np.roll(trace[::-1], 1)  # ζ^k -> ζ^-k
            assert cyclotomic_residue(trace) == cyclotomic_residue(conjugate), (t, w)
            assert any(cyclotomic_residue(trace - _monomial(n, 0, 2))), (t, w)
            assert any(cyclotomic_residue(trace + _monomial(n, 0, 2))), (t, w)
            assert is_hyperbolic(trace), (t, w)
            words += 1
    assert words == 1_711


def test_untouched_even_r_family_words_match_census_traces():
    # The 14 even-r family words that their own table rejects and the tie
    # rewrite leaves alone (test_rejected_even_r_family_words_under_the_tie_rewrite)
    # each share ± their trace with complete-census words of up to 12 letters.
    # A match is evidence, not yet a tie: g and g⁻¹ share a trace, and the
    # matches come in time-reversal pairs, such as ab and aabb for (3,3,4).
    untouched = {
        ((3, 3, 4), "aabab"): ["aabb", "ab"],
        ((3, 3, 4), "ababb"): ["aabb", "ab"],
        ((3, 3, 6), "aabaabab"): ["aabaabb", "aabab", "aabbabb", "ababb"],
        ((3, 3, 6), "ababbabb"): ["aabaabb", "aabab", "aabbabb", "ababb"],
        ((3, 4, 4), "aabab"): ["aabb", "abb"],
        ((3, 4, 4), "abbabbb"): ["aabbb", "ab"],
        ((3, 4, 6), "aabaabab"): ["aabaabb", "abbabbb"],
        ((3, 4, 6), "abbabbbabbb"): ["aabab", "aabbbabbb"],
        ((3, 5, 6), "aabaabab"): ["aabaabb", "abbbabbbb"],
        ((4, 4, 4), "aaabaab"): ["aaabb", "aaabbb", "aab", "aabbb", "ab", "abb"],
        ((4, 4, 4), "abbabbb"): ["aaabb", "aaabbb", "aab", "aabbb", "ab", "abb"],
        ((4, 4, 6), "aaabaaabaab"): ["aaabaaabb", "aaabaab", "aabbbabbb", "abbabbb"],
        ((4, 4, 6), "abbabbbabbb"): ["aaabaaabb", "aaabaab", "aabbbabbb", "abbabbb"],
        ((4, 5, 6), "aaabaaabaab"): ["aaabaaabb", "abbbabbbb"],
    }
    by_trace = {}
    for pqr in {pqr for pqr, _ in untouched}:
        for w in _complete_census(Triple(*pqr), 12):
            by_trace.setdefault((pqr, cyclotomic_residue(triangle_trace(w, *pqr))), []).append(w)
    for (pqr, w), expected in untouched.items():
        trace = triangle_trace(w, *pqr)
        matches = [m for sign in (1, -1) for m in by_trace.get((pqr, cyclotomic_residue(sign * trace)), [])]
        assert sorted(matches) == expected, (pqr, w, matches)
        assert sorted(reversed_code(m, *pqr[:2]) for m in matches) == expected, (pqr, w)


def test_rejected_family_words_are_second_codes_of_census_orbits():
    """Every family word that criterion 10's own table rejects codes a census orbit.

    For each of the 33 family words w of up to 12 letters that the table
    rejects (30 on even r, and one each on (2,3,7), (2,3,9) and (2,5,5)),
    a reduced conjugator c of at most 4 letters and a complete-census word x
    of at most 13 letters have M(c·w·c⁻¹) = ±M(x), entry by entry modulo
    Φ_2N.  The representation is the faithful one of the triangle group
    (its generators' traces fix it up to conjugacy), so equal matrices up to
    sign are equal elements of the group in PSL(2, R).  So w is conjugate to
    x, and codes the oriented closed geodesic that x codes: the tables are
    consistent on these words, and the families hold second codes.  The
    certificates came from a search over the 161 reduced conjugators of up
    to 4 letters; the test checks them and runs no search.
    """
    certificates = {
        ((3, 3, 4), "aabab"): ("bAb", "ab"),
        ((3, 3, 4), "ababb"): ("AbA", "ab"),
        ((3, 3, 4), "aabaabb"): ("ab", "aabb"),
        ((3, 3, 4), "aabbabb"): ("BA", "aabb"),
        ((3, 3, 6), "aabaabab"): ("aBAb", "ababb"),
        ((3, 3, 6), "ababbabb"): ("BabA", "aabab"),
        ((3, 3, 6), "aabaabaabb"): ("ab", "aabbabb"),
        ((3, 3, 6), "aabbabbabb"): ("BA", "aabaabb"),
        ((3, 4, 4), "aabab"): ("bAb", "abb"),
        ((3, 4, 4), "aabaabb"): ("ab", "aabbb"),
        ((3, 4, 4), "abbabbb"): ("AbA", "ab"),
        ((3, 4, 4), "aabaabbb"): ("abb", "ababbb"),
        ((3, 4, 4), "aabbbabbb"): ("BA", "aabb"),
        ((3, 4, 6), "aabaabab"): ("aBAb", "abbabbb"),
        ((3, 4, 6), "aabaabaabb"): ("ab", "aabbbabbb"),
        ((3, 4, 6), "aabaabaabbb"): ("abb", "ababbbabbb"),
        ((3, 4, 6), "abbabbbabbb"): ("BabA", "aabab"),
        ((3, 5, 6), "aabaabab"): ("aBAb", "abbbabbbb"),
        ((3, 5, 6), "aabaabaabb"): ("ab", "aabbbbabbbb"),
        ((3, 5, 6), "aabaabaabbb"): ("abb", "ababbbbabbbb"),
        ((3, 5, 6), "aabaabaabbbb"): ("aBB", "abbabbbbabbbb"),
        ((4, 4, 4), "aaabaab"): ("bAb", "abb"),
        ((4, 4, 4), "abbabbb"): ("AbA", "aab"),
        ((4, 4, 4), "aaabaaabb"): ("ab", "aabbb"),
        ((4, 4, 4), "aabbbabbb"): ("BA", "aaabb"),
        ((4, 4, 4), "aaabaaabbb"): ("abb", "ababbb"),
        ((4, 4, 4), "aaabbbabbb"): ("AbA", "aaabab"),
        ((4, 4, 6), "aaabaaabaab"): ("aBAb", "abbabbb"),
        ((4, 4, 6), "abbabbbabbb"): ("BabA", "aaabaab"),
        ((4, 5, 6), "aaabaaabaab"): ("aBAb", "abbbabbbb"),
        ((2, 3, 7), "ababbabb"): ("Baba", "ababb"),
        ((2, 3, 9), "ababbabbabb"): ("Baba", "abababb"),
        ((2, 5, 5), "abbbabbbb"): ("Baba", "abb"),
    }
    rejected = []
    for t in CRITERION_10:
        k = kneading(t)
        rejected += [((t.p, t.q, t.r), w) for w in extremal_orbits(t) if len(w) <= 12 and not is_admissible(w, k)]
    assert sorted(rejected) == sorted(certificates)
    census = {pqr: set(_complete_census(Triple(*pqr), 13)) for pqr in {pqr for pqr, _ in certificates}}
    for (pqr, w), (c, x) in certificates.items():
        assert len(c) <= 4 and all(c[i].swapcase() != c[i + 1] for i in range(len(c) - 1)), c
        assert x in census[pqr], (pqr, x)
        m, mx = triangle_matrix(c + w + inverse_word(c), *pqr), triangle_matrix(x, *pqr)
        assert _residues(m) in (_residues(mx), _residues(-mx)), (pqr, w, c, x)

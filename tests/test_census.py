import collections
import dataclasses
import hashlib
import json
import pickle
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import free_product_counts
from oracles import oracle_crossing, oracle_crossing_matrix, reversed_code, shift_sequences, tie_rewrite
from templink.census import (
    MAX_VERIFY_WORDS,
    PairReport,
    check_family_bound,
    check_letter_budget,
    enumerate_admissible,
    extremal_orbits,
    extremality_crosscheck,
    lyndon_words,
    range_triples,
    summarize,
    verify_pairs,
    verify_range,
    verify_triple,
)
from templink.cli import run
from templink.crossing import word_crossing
from templink.kneading import Triple, is_admissible, kneading
from templink.linking import q_form, template_linking
from templink.words import CyclicWord, canonicalize, compare


def test_lyndon_words_are_canonical_primitive():
    got = set(lyndon_words(7))
    brute = set()
    for n in range(1, 8):
        for bits in range(2**n):
            word = "".join("ab"[(bits >> i) & 1] for i in range(n))
            root, power = canonicalize(word)
            if power == 1:
                brute.add(root)
    assert got == brute


def test_enumerate_admissible_small():
    t = Triple(3, 3, 4)
    assert enumerate_admissible(t, 1) == []  # single letters never code orbits
    assert enumerate_admissible(t, 2) == ["ab"]
    assert enumerate_admissible(t, 3) == ["ab"]
    with pytest.raises(ValueError):
        enumerate_admissible(t, 0)


def test_lyndon_words_below_length_one_are_none():
    assert lyndon_words(1) == ["a", "b"]
    assert lyndon_words(0) == [] and lyndon_words(-3) == []


def _cyclic(word: str, factor: str) -> bool:
    return factor in word + word


def test_run_limited_lyndon_words_are_the_filtered_list():
    for max_len in range(15):
        every = lyndon_words(max_len)
        for p in range(2, 10):
            for q in range(p, 10):
                want = [
                    w
                    for w in every
                    if "a" in w and "b" in w
                    and not _cyclic(w, "a" * p) and not _cyclic(w, "b" * q)
                ]
                assert lyndon_words(max_len, runs=(p, q)) == want, (max_len, p, q)
    assert lyndon_words(2, runs=(3, 3)) == ["ab"]
    assert lyndon_words(3, runs=(2, 2)) == ["ab"]
    for max_len in (1, 0, -3):
        assert lyndon_words(max_len, runs=(2, 3)) == []


def test_run_limited_lyndon_words_match_the_free_product_count():
    # an independent count: the generating function of Z/p * Z/q, no word built
    for p in range(2, 7):
        for q in range(2, 9):
            by_length = collections.Counter(map(len, lyndon_words(14, runs=(p, q))))
            want = free_product_counts(p, q, 14)
            assert [by_length[n] for n in range(15)] == want, (p, q)


def _complete_census_by_length(t, max_len):
    # every admissible run-limited Lyndon word: no block screen, which drops
    # admissible words (ROADMAP item 1)
    k = kneading(t)
    words = lyndon_words(max_len, runs=(t.p, t.q))
    by_length = collections.Counter(len(w) for w in words if is_admissible(w, k))
    return [by_length[n] for n in range(max_len + 1)]


def _stable_bound(p, q, max_len):
    # the free product count less the syllable words a^(p-1) b and a b^(q-1)
    bound = free_product_counts(p, q, max_len)
    bound[p] -= 1
    bound[q] -= 1
    return bound


def test_complete_census_is_at_most_the_stable_bound():
    triples = [
        Triple(p, q, r)
        for p in range(2, 7)
        for q in range(p, 9)
        for r in range(q, 12)
        if p * q * r - p * q - q * r - p * r >= 1
    ]
    assert len(triples) == 139
    for t in triples:
        bound = _stable_bound(t.p, t.q, 12)
        census = _complete_census_by_length(t, 12)
        assert all(c <= b for c, b in zip(census, bound)), (t, census, bound)


# (p, q) -> the first r of the final run of r where the census equals the
# stable bound at every length, at max_len 10 and 12 (ROADMAP item 13)
STABLE_FROM = {
    (2, 3): (9, 11),
    (2, 5): (9, 11),
    (3, 3): (7, 9),
    (3, 4): (7, 9),
    (3, 5): (7, 9),
    (4, 4): (6, 7),
    (4, 5): (6, 7),
    (5, 6): (6, 6),
    (6, 8): (8, 8),
}


@pytest.mark.parametrize("pq", sorted(STABLE_FROM))
def test_census_is_the_stable_bound_from_its_table_entry(pq):
    p, q = pq
    for max_len, r0 in zip((10, 12), STABLE_FROM[pq]):
        bound = _stable_bound(p, q, max_len)
        for r in range(r0, max_len + 6):
            assert _complete_census_by_length(Triple(p, q, r), max_len) == bound, (pq, max_len, r)
        # the entry is the first r of the run: one r lower the census falls short
        if r0 > q:
            below_r0 = _complete_census_by_length(Triple(p, q, r0 - 1), max_len)
            assert below_r0 != bound, (pq, max_len)


def test_oversized_census_refused_before_generating(monkeypatch):
    import templink.census as census

    def never(max_len):
        raise AssertionError("generated words for an oversized census")

    monkeypatch.setattr(census, "lyndon_words", never)
    for max_len in (25, 64, 10**6):
        with pytest.raises(ValueError, match="census limit"):
            enumerate_admissible(Triple(3, 3, 4), max_len)


def test_family_bound_covers_every_family():
    triples = range_triples(6, 8, 10) + range_triples(2, 9, 13) + [Triple(3, 3, 41)]
    for t in triples:
        assert len(extremal_orbits(t)) == check_family_bound(t.p, t.q, t.r), t
    assert check_family_bound(6, 8, 10) == 313 and check_family_bound(2, 9, 13) == 91
    assert check_family_bound(3, 3, 81) == 1_679 <= MAX_VERIFY_WORDS
    with pytest.raises(ValueError, match="hold 2,599 words"):
        check_family_bound(3, 3, 101)


def test_oversized_verify_refused_before_any_engine_runs(monkeypatch):
    import templink.census as census

    def never(*args, **kwargs):
        raise AssertionError("an engine ran on an oversized verification")

    words = [w for w in lyndon_words(14) if "a" in w and "b" in w]
    words = words[: MAX_VERIFY_WORDS + 1]
    assert len(words) == MAX_VERIFY_WORDS + 1
    for name in ("extremal_orbits", "range_triples", "_crossing_matrix"):
        monkeypatch.setattr(census, name, never)
    with pytest.raises(ValueError, match="verify limit"):
        verify_pairs(Triple(3, 3, 4), words)
    for r in (301, 1001):
        with pytest.raises(ValueError, match="verify limit"):
            verify_triple(Triple(3, 3, r))
    with pytest.raises(ValueError, match="verify limit"):
        verify_range(1000, 1000, 1000, jobs=1)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        verify_range(3, 3, 4, jobs=0)


def test_range_is_bounded_by_its_reachable_corner():
    # p <= q <= r, so (100, 5, 9) holds only the triples of (5, 5, 9), whose
    # corner family has 107 words, not the 2,767 of (100, 5, 9)
    def untimed(summary):
        return [dataclasses.replace(s, elapsed_s=0.0) for s in summary.triples]

    wide = verify_range(100, 5, 9, jobs=1)
    assert len(wide.triples) == 38
    assert untimed(wide) == untimed(verify_range(5, 5, 9, jobs=1))


def test_empty_range_is_refused():
    with pytest.raises(ValueError, match="p <= 3, q <= 3, r <= 3"):
        verify_range(3, 3, 3, jobs=1)
    with pytest.raises(ValueError, match="p <= 2, q <= 9, r <= 13"):
        verify_range(2, 9, 13, include_p2=False, jobs=1)


@pytest.mark.parametrize("pqr", [(3, 3, 4), (2, 3, 7), (4, 5, 6), (3, 3, 5)])
def test_enumerate_admissible_in_length_then_text_order(pqr):
    words = enumerate_admissible(Triple(*pqr), 14)
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_enumerate_admissible_monotone_in_length():
    t = Triple(2, 3, 7)
    shorter = set(enumerate_admissible(t, 8))
    longer = set(enumerate_admissible(t, 10))
    assert shorter <= longer


def test_extremal_orbits_334():
    words = set(extremal_orbits(Triple(3, 3, 4)))
    assert words == {"ab", "aabb", "aabab", "ababb", "aababb", "aabaabb", "aabbabb"}


def test_extremal_orbits_p2():
    # q = 3 leaves only the mixed family
    words = set(extremal_orbits(Triple(2, 3, 7)))
    assert words == {canonicalize("ab" * k + "abb" * l)[0] for k in (1, 2) for l in (1, 2)}
    with pytest.raises(ValueError, match="p = 2 extremal families"):
        extremal_orbits(Triple(2, 5, 6))  # r even not covered for p = 2
    assert enumerate_admissible(Triple(2, 5, 6), 8)  # though its census is


# Golden p = 2 extremal orbits once q >= 5 brings in both rotation families.
P2_GOLDEN = {
    (2, 5, 7): [
        "abb", "abbb", "ababb", "ababbb", "abababb", "ababbbb", "abababbb",
        "abbabbbb", "abababbbb", "abbbabbbb", "ababbbbabbbb", "abbabbbbabbbb",
        "abababbbbabbbb", "abbbabbbbabbbb",
    ],
    (2, 7, 9): [
        "abb", "abbb", "ababb", "abbbb", "ababbb", "abbbbb", "abababb", "ababbbb",
        "abababbb", "ababbbbb", "ababababb", "abababbbb", "ababbbbbb", "ababababbb",
        "abababbbbb", "abbabbbbbb", "ababababbbb", "abababbbbbb", "abbbabbbbbb",
        "ababababbbbb", "abbbbabbbbbb", "ababababbbbbb", "abbbbbabbbbbb",
        "ababbbbbbabbbbbb", "abbabbbbbbabbbbbb", "abababbbbbbabbbbbb",
        "abbbabbbbbbabbbbbb", "abbbbabbbbbbabbbbbb", "ababababbbbbbabbbbbb",
        "abbbbbabbbbbbabbbbbb", "ababbbbbbabbbbbbabbbbbb", "abbabbbbbbabbbbbbabbbbbb",
        "abababbbbbbabbbbbbabbbbbb", "abbbabbbbbbabbbbbbabbbbbb",
        "abbbbabbbbbbabbbbbbabbbbbb", "ababababbbbbbabbbbbbabbbbbb",
        "abbbbbabbbbbbabbbbbbabbbbbb",
    ],
}


@pytest.mark.parametrize("pqr", sorted(P2_GOLDEN))
def test_extremal_orbits_p2_golden(pqr):
    assert extremal_orbits(Triple(*pqr)) == P2_GOLDEN[pqr]


def test_extremal_orbits_golden_over_the_range():
    rows = [(t.p, t.q, t.r, w) for t in range_triples(6, 8, 10) for w in extremal_orbits(t)]
    assert len(rows) == 8_666
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "da20af906d698ea2b2a57bd5aa290369877f713dcb72452e8e7bfaa1817a5af2"
    )


def test_extremal_words_are_primitive_and_sorted():
    for pqr in [(3, 3, 4), (4, 5, 7), (2, 5, 7), (2, 9, 13)]:
        words = extremal_orbits(Triple(*pqr))
        assert len(words) == len(set(words))
        assert words == sorted(words, key=lambda w: (len(w), w))


def test_extremal_orbits_hold_each_family():
    words = extremal_orbits(Triple(3, 3, 4))
    # rot_p ab (tail ab, k = 0), mixed aababb (P·Q), rot_q ababb (ab·Q)
    assert {"ab", "aababb", "ababb"} <= set(words)
    assert len(set(words)) == len(words)
    # p = 2 uses the same formula: tails a b^j, P = ab
    p2 = set(extremal_orbits(Triple(2, 5, 7)))
    # rot_p abb (ab², k = 0) and ababbb (P·ab³), rot_q abbabbbb (ab²·Q)
    assert {"abb", "ababbb", "abbabbbb"} <= p2


def test_extremal_family_words_admissible_for_odd_r():
    # for p >= 3 and r odd the whole family passes the kneading bounds
    # (for even r the k = (r-2)/2 members do not; see extremality_crosscheck)
    from templink.kneading import is_admissible, kneading

    for pqr in [(3, 3, 5), (3, 4, 7), (4, 5, 5)]:
        t = Triple(*pqr)
        k = kneading(t)
        for w in extremal_orbits(t):
            assert is_admissible(w, k), (pqr, w)


def test_even_r_families_are_the_next_odd_r_families():
    # the families read r only through (r-2)//2, and the r + 1 table admits them all
    from templink.kneading import is_admissible, kneading

    even = [t for t in range_triples(6, 8, 10, include_p2=False) if t.r % 2 == 0]
    assert len(even) == 49
    for t in even:
        odd = Triple(t.p, t.q, t.r + 1)
        words, k = extremal_orbits(t), kneading(odd)
        assert words == extremal_orbits(odd), t
        assert all(is_admissible(w, k) for w in words), t


def test_rejected_even_r_family_words_under_the_tie_rewrite():
    # The even-r family words of the criterion-10 triples, up to 12 letters,
    # that their own table rejects: 16 of the 30 rewrite across the relator's
    # half P^(r/2) = (P⁻¹)^(r/2) to exactly one word, which the table accepts;
    # the other 14 hold no cyclic run of r/2 copies of either syllable.
    triples = range_triples(4, 5, 7, include_p2=False) + range_triples(2, 9, 13)
    rewritten, untouched = {}, []
    for t in (t for t in triples if t.r % 2 == 0):
        k = kneading(t)
        for w in (w for w in extremal_orbits(t) if len(w) <= 12 and not is_admissible(w, k)):
            out = tie_rewrite(w, t.p, t.q, t.r)
            if out:
                assert len(out) == 1 and is_admissible(min(out), k), (t, w, out)
                rewritten[(t.p, t.q, t.r), w] = min(out)
            else:
                untouched.append(((t.p, t.q, t.r), w))
    assert rewritten == {
        ((3, 3, 4), "aabaabb"): "aabb",
        ((3, 3, 4), "aabbabb"): "aabb",
        ((3, 3, 6), "aabaabaabb"): "aabbabb",
        ((3, 3, 6), "aabbabbabb"): "aabaabb",
        ((3, 4, 4), "aabaabb"): "aabbb",
        ((3, 4, 4), "aabaabbb"): "ababbb",
        ((3, 4, 4), "aabbbabbb"): "aabb",
        ((3, 4, 6), "aabaabaabb"): "aabbbabbb",
        ((3, 4, 6), "aabaabaabbb"): "ababbbabbb",
        ((3, 5, 6), "aabaabaabb"): "aabbbbabbbb",
        ((3, 5, 6), "aabaabaabbb"): "ababbbbabbbb",
        ((3, 5, 6), "aabaabaabbbb"): "abbabbbbabbbb",
        ((4, 4, 4), "aaabaaabb"): "aabbb",
        ((4, 4, 4), "aabbbabbb"): "aaabb",
        ((4, 4, 4), "aaabaaabbb"): "ababbb",
        ((4, 4, 4), "aaabbbabbb"): "aaabab",
    }
    assert untouched == [
        ((3, 3, 4), "aabab"),
        ((3, 3, 4), "ababb"),
        ((3, 3, 6), "aabaabab"),
        ((3, 3, 6), "ababbabb"),
        ((3, 4, 4), "aabab"),
        ((3, 4, 4), "abbabbb"),
        ((3, 4, 6), "aabaabab"),
        ((3, 4, 6), "abbabbbabbb"),
        ((3, 5, 6), "aabaabab"),
        ((4, 4, 4), "aaabaab"),
        ((4, 4, 4), "abbabbb"),
        ((4, 4, 6), "aaabaaabaab"),
        ((4, 4, 6), "abbabbbabbb"),
        ((4, 5, 6), "aaabaaabaab"),
    ]


def test_verify_pairs_334_all_negative():
    t = Triple(3, 3, 4)
    reports = verify_pairs(t, extremal_orbits(t))
    assert len(reports) == 28
    assert all(r.negative for r in reports)
    assert max(r.lk for r in reports) == Fraction(-1, 3)


def test_verify_pairs_positive_control():
    t = Triple(3, 3, 4)
    reports = verify_pairs(t, ["aab"])
    assert len(reports) == 1
    assert reports[0].lk == 1 and not reports[0].negative



def test_pair_report_holds_only_what_the_pair_determines():
    assert PairReport._fields == ("word1", "word2", "cr", "lk2d", "two_delta")


def test_pair_table_keeps_the_clock_and_its_fields():
    t = Triple(3, 4, 5)
    table = verify_pairs(t, extremal_orbits(t))
    assert table.elapsed_s > 0
    assert summarize(t, table).elapsed_s == table.elapsed_s
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.cr = table.cr.copy()


def test_pair_report_is_immutable_and_summary_pickles():
    t = Triple(3, 3, 4)
    reports = verify_pairs(t, ["aab"])
    with pytest.raises(AttributeError):
        reports[0].cr = 0
    # process-pool results of verify_range(jobs > 1) travel this way
    summary = pickle.loads(pickle.dumps(summarize(t, reports)))
    assert summary.violations == tuple(reports) and summary.violations[0].lk == 1


def test_fraction_built_only_when_lk_is_read(monkeypatch):
    import templink.census as census

    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(census, "Fraction", counting_fraction)
    s = verify_triple(Triple(4, 5, 6))
    assert s.ok and s.n_pairs > 1
    assert len(built) == 1 and s.worst == Fraction(*built[0])  # the worst value only
    built.clear()
    t = Triple(3, 3, 4)
    reports = verify_pairs(t, ["aab"])
    assert built == []
    summary = summarize(t, reports)
    assert len(built) == 1 and summary.worst == 1  # the worst value only
    assert summary.violations[0].lk == 1 and len(built) == 2

@pytest.mark.parametrize(
    "t, words",
    [
        (Triple(3, 3, 4), ["aab"]),
        (Triple(3, 3, 4), ["abb", "aab", "ab"]),
        (Triple(3, 4, 5), extremal_orbits(Triple(3, 4, 5))),
        # words without a-shifts or without b-shifts: rows the sweep skips
        (Triple(3, 3, 4), ["b", "ab", "a", "aab"]),
    ],
)
def test_pair_table_is_a_faithful_lazy_sequence(t, words):
    table = verify_pairs(t, words)
    n = len(words)
    pairs = [(words[i], words[j]) for i in range(n) for j in range(i, n)]
    assert len(table) == len(pairs) == n * (n + 1) // 2
    rows = list(table)
    assert [(r.word1, r.word2) for r in rows] == pairs
    for r in rows:
        cr = word_crossing(r.word1, r.word2)
        q = q_form(t, *((w.count("a"), w.count("b")) for w in (r.word1, r.word2)))
        assert r == PairReport(r.word1, r.word2, cr, 2 * q - t.delta * cr, 2 * t.delta)
        assert [type(f) for f in r] == [str, str, int, int, int]
    assert [table[k] for k in range(len(table))] == rows
    assert table[-1] == rows[-1] and table[-len(table)] == rows[0]
    for k in (len(table), -len(table) - 1):
        with pytest.raises(IndexError):
            table[k]
    # a bool indexes as its int and a float is refused, as for a list
    if len(table) > 1:
        assert table[True] == table[1]
    with pytest.raises(TypeError):
        table[1.0]
    # bench/workloads.py samples the reports of a few triples
    sample = random.Random(0).sample(table, min(5, len(table)))
    assert len(sample) == min(5, len(table)) and all(r in rows for r in sample)


def test_summary_builds_only_the_worst_report(monkeypatch):
    import templink.census as census

    built = []

    class CountingReport(PairReport):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields[:2])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(census, "PairReport", CountingReport)
    s = verify_triple(Triple(4, 5, 6))
    assert s.ok and s.n_pairs > 1
    assert built == [s.worst_pair]


@pytest.mark.parametrize("r", [10**17, 10**20])
def test_pair_values_exact_past_int64(r):
    # delta·cr > 2^63 here: int64 keys would wrap (10^17) or refuse delta (10^20)
    t = Triple(3, 3, r)
    words = ["aabababbab", "aaababbabb", "aababbabbb"]
    table = verify_pairs(t, words)
    assert table.lk2d.dtype == object and min(table.cr) >= 30
    lks = [template_linking(t, w1, w2) for w1, w2, *_ in table]
    assert [rep.lk for rep in table] == lks
    assert summarize(t, table).worst == max(lks)


def test_pair_values_exact_past_32_bits():
    # delta = 2,999,991 and cr up to 180,600, so delta·cr passes 2^32 on the
    # int64 path: a key array narrowed to 32 bits by the in-place arithmetic
    # would wrap without a word, as NumPy takes a Python int scalar at the
    # array's dtype (NEP 50).
    t = Triple(3, 3, 10**6)
    words = ["ab" * 300 + "b", "a" + "ab" * 300]
    table = verify_pairs(t, words)
    assert t.delta == 2_999_991 and table.lk2d.dtype == table.cr.dtype == np.int64
    assert t.delta * max(table.cr) > 2**32
    for r in table:
        cr = word_crossing(r.word1, r.word2)
        q = q_form(t, *((w.count("a"), w.count("b")) for w in (r.word1, r.word2)))
        assert (r.cr, r.lk2d) == (cr, 2 * q - t.delta * cr), (r.word1, r.word2)


def test_range_pairs_take_the_int64_path():
    # the benchmark's range must measure the fast path, not the object fallback
    from templink.census import _lk2d_dtype

    triples = range_triples(6, 8, 10)
    for t in triples:
        assert _lk2d_dtype(t, max(map(len, extremal_orbits(t)))) is np.int64, t
    t = triples[-1]
    table = verify_pairs(t, extremal_orbits(t))
    assert table.cr.dtype == table.lk2d.dtype == np.int64


def test_verify_pairs_rejects_duplicates():
    t = Triple(3, 3, 4)
    with pytest.raises(ValueError):
        verify_pairs(t, ["ab", "ba"])


@pytest.mark.parametrize("words", [["abab"], ["ab", "ba"], ["ab", "ab"], [""], ["ab", ""], ["ac"]])
def test_verify_pairs_rejects_words_that_are_not_distinct_primitive_cyclic_words(words):
    with pytest.raises(ValueError):
        verify_pairs(Triple(3, 3, 4), words)


def test_verify_pairs_refuses_no_words(monkeypatch):
    import templink.census as census

    def never(*args, **kwargs):
        raise AssertionError("the pair kernel ran on no words")

    monkeypatch.setattr(census, "_crossing_matrix", never)
    with pytest.raises(ValueError, match="at least one word"):
        verify_pairs(Triple(3, 3, 4), [])


def test_verify_pairs_reports_any_rotation_as_given():
    t = Triple(3, 4, 5)
    rotated = verify_pairs(t, ["baab", "bab"])
    canonical = verify_pairs(t, ["aabb", "abb"])
    assert [(r.word1, r.word2) for r in rotated][:2] == [("baab", "baab"), ("baab", "bab")]
    assert [r[2:] for r in rotated] == [r[2:] for r in canonical]


def test_letter_budget_refused_before_ranking(monkeypatch):
    import templink.census as census

    def never(words):
        raise AssertionError("built the ranking's arrays over the letter budget")

    # the ranking's first array build
    monkeypatch.setattr(census, "_successors", never)
    words = extremal_orbits(Triple(2, 41, 43))
    assert len(words) == check_family_bound(2, 41, 43) == 1_958
    with pytest.raises(ValueError, match="958,447,640 letters"):
        verify_pairs(Triple(2, 41, 43), words)
    # the largest family verified in the docs stays within the budget
    words = extremal_orbits(Triple(3, 3, 87))
    assert sum(map(len, words)) * 2 * max(map(len, words)) <= census.MAX_LETTERS


def test_range_over_the_letter_budget_refused_before_any_triple_runs(monkeypatch):
    import templink.census as census

    def never(t):
        raise AssertionError(f"verified {t} in a range over the letter budget")

    monkeypatch.setattr(census, "verify_triple", never)
    # the corner's family passes the word limit, but (2, 19, 43) onward cannot be ranked
    assert check_family_bound(2, 41, 43) == 1_958
    with pytest.raises(ValueError, match="958,447,640 letters"):
        verify_range(2, 41, 43, jobs=1)


def test_last_triple_of_a_box_holds_the_most_letters():
    letters = {t: check_letter_budget(extremal_orbits(t)) for t in range_triples(6, 9, 12)}
    boxes = 0
    for p_max in range(2, 7):
        for q_max in range(p_max, 10):
            for r_max in range(q_max, 13):
                for include_p2 in (True, False):
                    triples = range_triples(p_max, q_max, r_max, include_p2=include_p2)
                    if triples:
                        boxes += 1
                        assert letters[triples[-1]] == max(map(letters.get, triples)), triples[-1]
    assert boxes > 100


def test_oversized_extremal_family_refused_before_any_word_is_built(monkeypatch):
    assert len(extremal_orbits(Triple(3, 3, 401))) == 40_399

    def never(t):
        raise AssertionError("built a family word past a refusal")

    # the syllables are read only after both refusals
    monkeypatch.setattr(Triple, "syllables", property(never))
    for r in (4001, 10**6):
        with pytest.raises(ValueError, match="letters"):
            extremal_orbits(Triple(3, 3, r))
    with pytest.raises(ValueError, match="p = 2 extremal families"):
        extremal_orbits(Triple(2, 5, 6))


def test_census_builds_cyclic_words_only_for_crosscheck_output(monkeypatch):
    built = []
    original = CyclicWord.__new__

    def counting(cls, word):
        built.append(word)
        return original(cls, word)

    monkeypatch.setattr(CyclicWord, "__new__", counting)
    t = Triple(3, 4, 5)
    enumerate_admissible(t, 12)
    extremal_orbits(t)
    verify_triple(t)
    verify_range(3, 4, 5, jobs=1)
    assert built == []
    family, independent = extremality_crosscheck(t, max_len=12)
    assert len(built) == len(family) + len(independent) > 0


def test_pair_engine_matches_definition_oracle():
    t = Triple(3, 4, 5)
    rng = random.Random(3)
    words = []
    while len(words) < 6:
        raw = "".join(rng.choice("ab") for _ in range(rng.randint(2, 9)))
        root, power = canonicalize(raw)
        if power == 1 and "a" in root and "b" in root and root not in words:
            words.append(root)
    reports = verify_pairs(t, words)
    for r in reports:
        assert r.cr == oracle_crossing(r.word1, r.word2)


primitive_words = st.text(alphabet="ab", min_size=1, max_size=10).map(
    lambda raw: canonicalize(raw)[0]
)


@given(
    st.sampled_from([Triple(3, 3, 4), Triple(2, 3, 7), Triple(4, 5, 6)]),
    st.lists(primitive_words, min_size=1, max_size=7, unique=True),
)
@settings(max_examples=100, deadline=None)
# positive controls: lk(aab, aab) = 1 on (3,3,4), so violations are not empty
@example(Triple(3, 3, 4), ["aab"])
@example(Triple(3, 3, 4), ["ab", "aab", "abb", "aaab"])
def test_pair_kernel_matches_oracle_and_exact_formula(t, words):
    reports = verify_pairs(t, words)
    n = len(words)
    expected_order = [(words[i], words[j]) for i in range(n) for j in range(i, n)]
    assert [(r.word1, r.word2) for r in reports] == expected_order
    assert len(reports) == n * (n + 1) // 2
    for r in reports:
        assert r.cr == oracle_crossing(r.word1, r.word2)
        q = q_form(t, *((w.count("a"), w.count("b")) for w in (r.word1, r.word2)))
        assert r.lk == Fraction(-r.cr, 2) + Fraction(q, t.delta)
        assert r.lk2d == r.lk * r.two_delta and r.two_delta == 2 * t.delta
        assert r.negative == (r.lk < 0)
    summary = summarize(t, reports)
    assert (summary.n_words, summary.n_pairs) == (n, len(reports))
    worst = max(r.lk for r in reports)
    first = next(r for r in reports if r.lk == worst)
    assert summary.worst == worst
    assert summary.worst_pair == (first.word1, first.word2)
    assert summary.violations == tuple(r for r in reports if r.lk >= 0)


def test_only_a_shift_b_shift_pairs_swap_order():
    # The lemma behind verify_pairs, from the definitions: shifts with the same
    # first letter keep their order, and every a-shift sorts below every
    # b-shift, so a crossing is an a-shift x and a b-shift y with σx > σy.
    words = ["a", "b"] + [w for w in lyndon_words(8) if "a" in w and "b" in w]
    shifts = {w: shift_sequences(w) for w in words}
    # crossing numbers are symmetric, so each unordered pair is checked once
    for v, x in combinations_with_replacement(words, 2):
        sv, sx = shifts[v], shifts[x]
        inversions = 0
        for s, s_next in zip(sv, sv[1:] + sv[:1]):
            for u, u_next in zip(sx, sx[1:] + sx[:1]):
                before, after = compare(s, u), compare(s_next, u_next)
                if s.prefix(1) == u.prefix(1):
                    assert before == after, (v, x, s, u)
                elif s.prefix(1) == "a":
                    assert before < 0
                    inversions += after > 0
                else:
                    inversions += after < 0
        assert oracle_crossing(v, x) == inversions, (v, x)


@pytest.mark.parametrize(
    "texts",
    [
        ["a", "b", "ab", "aab", "abb"],
        ["ab", "a", "aab", "b", "abb"],
        ["ab", "aab", "abb", "a", "b"],
        ["b", "ab", "aab", "abb", "a"],
        ["ab", "b", "aab", "a", "abb"],
        ["ab", "aab", "abb", "b", "a"],
    ],
)
def test_pair_kernel_words_missing_a_letter(texts):
    # single-letter words have no b-shifts (or no a-shifts) at the start, the
    # middle or the end of the word list; each must count zero there
    t = Triple(3, 3, 4)
    reports = verify_pairs(t, texts)
    n = len(texts)
    assert len(reports) == n * (n + 1) // 2
    for r in reports:
        assert r.cr == oracle_crossing(r.word1, r.word2), (r.word1, r.word2)


def test_pair_kernel_counts_past_a_byte():
    # a b-shift's successor below the successors of more than 255 a-shifts of
    # one word: its column sum no longer fits in a byte
    t = Triple(3, 3, 4)
    words = ["a" * 300 + "b", "a" * 257 + "bb"]
    for r in verify_pairs(t, words):
        assert r.cr == word_crossing(r.word1, r.word2)


@given(st.lists(primitive_words, min_size=1, max_size=7, unique=True))
@settings(max_examples=100, deadline=None)
@example(["a", "b"])
@example(["b", "ab", "a", "aab"])
@example(["ab", "aab", "b"])
@example(["a", "aab", "ab"])
@example(["ab", "b", "aab"])  # b, with no a-shift, is an empty segment between two words
def test_crossing_matrix_matches_definition(words):
    # Each cell P[i, j], i <= j, at its place in pair order, not only cr = 2·P[i, j],
    # so a count put in the wrong cell shows.  The lower triangle is not
    # computed: P is symmetric (test_crossing_matrix_oracle_is_symmetric).
    # One-column chunks take the chunked path.
    import templink.census as census

    expected = oracle_crossing_matrix(words)
    n = len(words)
    upper = [expected[i][j] for i in range(n) for j in range(i, n)]
    for cells in (census._CHUNK_CELLS, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "_CHUNK_CELLS", cells)
            p = census._crossing_matrix(words)
        assert p.dtype == np.uint32 and p.tolist() == upper, cells


@given(st.lists(primitive_words, min_size=1, max_size=7, unique=True))
@settings(max_examples=100, deadline=None)
@example(["ab" * 5 + "b", "a" + "ab" * 5, "aab", "b"])
def test_crossing_matrix_oracle_is_symmetric(words):
    # The lemma that lets the sweep skip the lower triangle and verify_pairs
    # read cr = 2·P[i, j]: (x, y) -> (σx, σy) permutes the shift pairs of words
    # i and j, so the pairs with x < y and σx > σy, P[i, j] of them, are as many
    # as those with x > y and σx < σy, P[j, i].
    p = oracle_crossing_matrix(words)
    assert p == [list(column) for column in zip(*p)]


def _ranks_by_definition(words):
    shifts = [s for w in words for s in shift_sequences(w)]
    order = sorted(range(len(shifts)), key=cmp_to_key(lambda i, j: compare(shifts[i], shifts[j])))
    rank = [0] * len(shifts)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


# words of up to 123 letters that repeat a short block, so shifts of two words
# can agree far past the 64 letters one packed code holds
repeated_words = st.builds(
    lambda block, times, tail: canonicalize(block * times + tail)[0],
    st.text(alphabet="ab", min_size=1, max_size=3),
    st.integers(1, 40),
    st.text(alphabet="ab", max_size=3),
)


@given(st.lists(primitive_words | repeated_words, min_size=1, max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
# horizons 84, 162, 144 and 204: 64-letter codes tie, and one, two or three
# doubling rounds decide; the last tie persists through 192 letters
@example(["a" * 40 + "b", "a" * 41 + "b"])
@example(["ab" * 40 + "b", "a" + "ab" * 40])
@example(["a" * 70 + "b", "a" * 71 + "b"])
@example(["a" * 100 + "b", "a" * 101 + "b"])
def test_shift_ranks_match_definition(words):
    import templink.census as census

    rank = census._shift_ranks(words)
    assert rank.dtype == np.intp
    assert rank.tolist() == _ranks_by_definition(words)


@given(st.lists(primitive_words | repeated_words, min_size=1, max_size=6, unique=True))
@settings(max_examples=100, deadline=None)
@example(["a" * 40 + "b", "a" * 41 + "b"])
@example(["ab" * 40 + "b", "a" + "ab" * 40])
@example(["a" * 70 + "b", "a" * 71 + "b"])
@example(["a" * 100 + "b", "a" * 101 + "b"])
def test_sweep_counts_are_rank_differences(words):
    # The lemma of _crossing_matrix: for an a-shift x, rank[σx] - rank[x] is the
    # number of b-shifts whose successors rank below σx, and for a b-shift y,
    # rank[y] - N_a is its place among the b-shifts; both counted by definition.
    import templink.census as census

    rank = census._shift_ranks(words).tolist()
    by_definition = _ranks_by_definition(words)
    text = "".join(words)
    starts = accumulate(map(len, words), initial=0)
    succ = [s + (i + 1) % len(w) for s, w in zip(starts, words) for i in range(len(w))]
    b_shifts = [y for y, letter in enumerate(text) if letter == "b"]
    b_next = [by_definition[succ[y]] for y in b_shifts]
    for x, letter in enumerate(text):
        if letter == "a":
            below = sum(r < by_definition[succ[x]] for r in b_next)
            assert rank[succ[x]] - rank[x] == below, (words, x)
    n_a = len(text) - len(b_shifts)
    assert [r < n_a for r in rank] == [c == "a" for c in text], words
    for place, y in enumerate(sorted(b_shifts, key=by_definition.__getitem__)):
        assert rank[y] - n_a == place, (words, y)


@pytest.mark.parametrize(
    "words",
    [
        ["abab"],
        ["ab", "ba"],
        # a power and two rotations whose ties last through two doubling rounds
        [("a" * 40 + "b") * 2],
        ["a" * 70 + "b", "a" * 35 + "b" + "a" * 35],
    ],
)
def test_shift_ranks_refuse_equal_shifts(words):
    import templink.census as census

    with pytest.raises(ValueError, match="proper power, or two words are rotations"):
        census._shift_ranks(words)


def test_one_column_chunks_give_the_same_matrix(monkeypatch):
    import templink.census as census

    words = extremal_orbits(Triple(6, 8, 10))
    n = len(words)
    whole = census._crossing_matrix(words)
    assert whole.dtype == np.uint32 and whole.shape == (n * (n + 1) // 2,)
    # 313 words in chunks of 36 columns at the default budget: the last chunk is partial
    assert census._CHUNK_CELLS // (sum(map(len, words)) + 1) == 36
    # sampled cells at pos(i, j) = i·W - i(i-1)/2 + (j - i) against the reference engine
    cells = list(combinations_with_replacement(range(n), 2))
    for i, j in random.Random(5).sample(cells, 200):
        cell = whole[i * n - i * (i - 1) // 2 + (j - i)]
        assert 2 * int(cell) == word_crossing(words[i], words[j]), (i, j)
    monkeypatch.setattr(census, "_CHUNK_CELLS", 1)
    assert np.array_equal(census._crossing_matrix(words), whole)


def test_pair_kernel_counts_past_sixteen_bits():
    # a^300 b^300 has 300 b-shifts, and |A|·|B| = 90,000 for its self-pair.
    # Each of the 300 a-shifts of (ab)^300 b steps to a b-shift, which ranks
    # above the successor of each of the 300 b-shifts of a(ab)^300, an
    # a-shift, so P[0, 1] of that pair passes 65,535.
    import templink.census as census

    t = Triple(3, 3, 4)
    alternating = ["ab" * 300 + "b", "a" + "ab" * 300]
    for words in (["a" * 300 + "b" * 300, "a" * 257 + "bb"], alternating):
        for r in verify_pairs(t, words):
            assert r.cr == word_crossing(r.word1, r.word2), (len(r.word1), len(r.word2))
    # pair order (0, 0), (0, 1), (1, 1): P[0, 1] is the second cell
    assert census._crossing_matrix(alternating)[1] > 2**16


def test_crossing_matrix_memory_is_bounded(monkeypatch):
    # Beside its ranking the sweep holds the W(W + 1)/2 uint32 result, one
    # column chunk of at most _CHUNK_CELLS 4-byte cells, and a slack of 64 bytes
    # per shift for the O(N) index arrays and the chunk's row sums and their
    # places: 1.71 MB here, where the sweep peaks at 1.32 MB.  An unchunked
    # (N + 1) x W table with its gathered rows peaks at 9.5 MB.
    import tracemalloc

    import templink.census as census

    words = extremal_orbits(Triple(6, 8, 10))
    rank = census._shift_ranks(words)
    monkeypatch.setattr(census, "_shift_ranks", lambda words: rank)
    n, w = len(rank), len(words)
    tracemalloc.start()
    try:
        census._crossing_matrix(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= w * (w + 1) // 2 * 4 + census._CHUNK_CELLS * 4 + 64 * n, peak


def test_shift_ranking_memory_per_shift():
    # The ranking holds at most three 8-byte arrays of N at once, beside the
    # 8-byte jumps and a byte of rises: (3, 3, 63)'s 89,646 shifts peak at
    # 33 bytes a shift.  Keeping the packed codes beside the keys, or the
    # argsort order beside the next key, passes 40.
    import tracemalloc

    import templink.census as census

    words = extremal_orbits(Triple(3, 3, 63))
    n = sum(map(len, words))
    tracemalloc.start()
    try:
        census._shift_ranks(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 89_646
    assert peak <= 40 * n, peak / n


def test_verify_pairs_memory_per_pair(monkeypatch):
    # The table's arrays take 16 bytes a pair, the 8-byte cr and lk2d, and it
    # finds a pair's words from its W row starts.  Beside them verify_pairs
    # holds only one chunk of _CHUNK_CELLS 8-byte products delta·cr, so 1,022
    # words, 522,753 pairs, peak at 10.5 MB, 20.0 bytes a pair; one per-pair
    # temporary in the key arithmetic would exceed the bound.  q_form's values
    # do not change any array's size, and its pure-Python calls are most of
    # the traced time, so a stub stands in for it.
    import tracemalloc

    import templink.census as census

    t = Triple(3, 3, 63)
    words = extremal_orbits(t)
    monkeypatch.setattr(census, "q_form", lambda t, c1, c2: 0)
    tracemalloc.start()
    try:
        table = verify_pairs(t, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 1_022 and len(table) == 522_753
    assert peak <= 16 * len(table) + 8 * census._CHUNK_CELLS + 2**18, peak
    # summarize copies no key array: argmax on the writable lk2d takes none, so
    # the only transient left is the violations mask, a byte a pair
    tracemalloc.start()
    try:
        summarize(t, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(table) + 2**16, peak


# triples of time-reversal checks, p = 2 and p = q among them, with their
# run-limited Lyndon words of up to 10 letters
RUN_LIMITED = {
    Triple(*pqr): lyndon_words(10, runs=pqr[:2])
    for pqr in ((3, 3, 4), (3, 4, 5), (4, 5, 6), (3, 3, 7), (2, 3, 7), (2, 5, 5))
}
two_run_limited_words = st.sampled_from(list(RUN_LIMITED)).flatmap(
    lambda t: st.tuples(
        st.just(t), st.lists(st.sampled_from(RUN_LIMITED[t]), min_size=2, max_size=2, unique=True)
    )
)


@given(two_run_limited_words)
@settings(max_examples=100, deadline=None)
@example((Triple(3, 4, 5), ["aab", "abbb"]))
@example((Triple(2, 3, 7), ["ab", "abb"]))
def test_time_reversal_keeps_linking(case):
    # The flip (x, v) -> (x, -v) of the unit tangent bundle is isotopic to the
    # identity and takes each orbit to its reverse, coded by reversed_code, so
    # reversing both orbits keeps lk; cr and Q change on their own, so this ties
    # the crossing sweep to the surgery form.  All three reports of each table
    # (self-pairs included) and the reference engine agree.
    t, words = case
    reversed_words = [reversed_code(w, t.p, t.q) for w in words]
    table, reversed_table = verify_pairs(t, words), verify_pairs(t, reversed_words)
    assert [r.lk2d for r in reversed_table] == [r.lk2d for r in table], (words, reversed_words)
    assert template_linking(t, *reversed_words) == template_linking(t, *words) == table[1].lk


def test_time_reversal_moves_crossings():
    # lk is kept above while cr changes on most pairs, so that test is not
    # vacuous: over whole tables of words up to 7 letters, cr moves on more than half.
    for t, words in RUN_LIMITED.items():
        words = [w for w in words if len(w) <= 7]
        table = verify_pairs(t, words)
        reversed_table = verify_pairs(t, [reversed_code(w, t.p, t.q) for w in words])
        assert np.array_equal(reversed_table.lk2d, table.lk2d), t
        assert 2 * np.count_nonzero(reversed_table.cr != table.cr) > len(table), t


def test_odd_r_censuses_are_closed_under_time_reversal():
    # Reversal maps orbits to orbits, so a census word's reversed code is
    # admissible under the same table.  That holds for every odd-r triple with
    # p >= 3 in the box; the even-r and p = 2 tables break it (README,
    # criterion 10), as (3,3,4)'s aababab, the control, shows.  The census is
    # the complete one, as the block screen drops admissible words of odd-r
    # triples (ROADMAP item 1): 9 of these 22,159.
    def complete_census(t):
        k = kneading(t)
        return k, [w for w in lyndon_words(12, runs=(t.p, t.q)) if is_admissible(w, k)]

    k, census = complete_census(Triple(3, 3, 4))
    assert "aababab" in census
    assert not is_admissible(reversed_code("aababab", 3, 3), k)
    triples = [t for t in range_triples(6, 8, 11, include_p2=False) if t.r % 2 == 1]
    words = 0
    for t in triples:
        k, census = complete_census(t)
        words += len(census)
        assert [w for w in census if not is_admissible(reversed_code(w, t.p, t.q), k)] == [], t
    assert (len(triples), words) == (56, 22_159)


def test_pair_reports_golden_largest_triple():
    # 49,141 pairs of words up to 56 letters: far beyond the hypothesis sizes
    t = Triple(6, 8, 10)
    words = extremal_orbits(t)
    reports = verify_pairs(t, words)
    rows = [(r.word1, r.word2, r.cr, r.lk2d) for r in reports]
    assert len(rows) == 49_141
    # the row-start lookup walks the nested-loop pair order
    n = len(words)
    assert [row[:2] for row in rows] == [(words[i], words[j]) for i in range(n) for j in range(i, n)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "41023d6efdffb0d906679f080f4085205f2164fd89bf19d380f666267decba3b"
    )


def test_linking_subadditive_under_admissible_cuts():
    # lk(w, x) <= lk(u, x) + lk(v, x) for admissible cuts (u, v) of w
    from templink.crossing import enumerate_cuts, is_admissible_cut
    from templink.kneading import kneading
    from templink.linking import template_linking

    t = Triple(3, 3, 4)
    k = kneading(t)
    words = enumerate_admissible(t, 9)
    probes = words[:6]
    for w in words:
        for cut in enumerate_cuts(w):
            if not is_admissible_cut(cut, k):
                continue
            u = canonicalize(cut.u)[0]
            v = canonicalize(cut.v)[0]
            for x in probes:
                lk_w = template_linking(t, w, x)
                assert lk_w <= template_linking(t, u, x) + template_linking(t, v, x)


@pytest.mark.parametrize("pqr", [(3, 3, 4), (2, 5, 7), (4, 4, 5)])
def test_crosscheck_tests_each_string_once_per_call(monkeypatch, pqr):
    # once per census call and once per cut-search call: the two share no table
    import templink.census as census
    from collections import Counter

    from templink.kneading import kneading, satisfies_block_constraints

    t, max_len = Triple(*pqr), 12
    k = kneading(t)
    words = enumerate_admissible(t, max_len)
    screened = Counter(
        w for w in lyndon_words(max_len, runs=(t.p, t.q)) if satisfies_block_constraints(w, t)
    )
    tested = Counter()
    admissible = census.is_admissible

    def counted(word, k):
        tested[word] += 1
        return admissible(word, k)

    monkeypatch.setattr(census, "is_admissible", counted)
    census._cutless(words, k)
    assert tested and max(tested.values()) == 1
    tested.clear()
    first = extremality_crosscheck(t, max_len)
    per_call, tested = tested, Counter()
    # the census tests each screened Lyndon word, the cut search each factor once
    assert screened <= per_call
    assert set((per_call - screened).values()) == {1}
    # no verdict outlives the call: the same call tests the same strings again
    assert extremality_crosscheck(t, max_len) == first
    assert tested == per_call


def test_csv_schema(capsys):
    t = Triple(3, 3, 4)
    reports = verify_pairs(t, ["ab", "aabb"])
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "--format", "csv", "ab", "aabb"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "word1,word2,cr,na1,nb1,na2,nb2,lk_num,lk_den,negative"
    assert lines[1].split(",")[:2] == ["ab", "ab"]
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["word2"] == "aabb" and row["negative"] == "true"
    # dict form is JSON-serializable with the same fields
    payload = json.dumps([r.as_dict() for r in reports])
    assert json.loads(payload)[0]["lk_den"] == 3


def test_range_triples_selection():
    ts = range_triples(4, 5, 7, include_p2=False)
    assert all(t.p >= 3 and t.p <= t.q <= t.r and t.delta >= 1 for t in ts)
    assert len(ts) == 18
    p2 = range_triples(2, 9, 13)
    assert all(t.p == 2 and t.q % 2 == 1 and t.r % 2 == 1 for t in p2)
    assert len(p2) == 16
    as_tuples = {(t.p, t.q, t.r) for t in p2}
    assert (2, 3, 7) in as_tuples and (2, 3, 5) not in as_tuples


@pytest.mark.parametrize("include_p2", [True, False])
@pytest.mark.parametrize("bounds", [(1, 9, 9), (2, 9, 13), (4, 5, 7), (6, 8, 10), (5, 4, 3)])
def test_range_triples_is_the_filtered_box_in_order(bounds, include_p2):
    p_max, q_max, r_max = bounds
    brute = [
        (p, q, r)
        for p in range(2, p_max + 1)
        for q in range(2, q_max + 1)
        for r in range(2, r_max + 1)
        if p <= q <= r
        and p * q * r - p * q - q * r - p * r >= 1
        and (p >= 3 or (include_p2 and q % 2 == 1 and r % 2 == 1))
    ]
    got = [(t.p, t.q, t.r) for t in range_triples(*bounds, include_p2=include_p2)]
    assert got == brute  # brute is in (p, q, r) order, which verify_range keeps


def test_verify_triple_summary():
    s = verify_triple(Triple(3, 3, 4))
    assert (s.n_words, s.n_pairs) == (7, 28)
    assert s.ok and s.worst == Fraction(-1, 3)


def test_verify_range_deterministic_across_jobs():
    # every field but the timings: words, pairs, violations, worst value and pair, totals
    def untimed(summary):
        doc = summary.as_dict()
        del doc["elapsed_s"]
        for triple in doc["triples"]:
            del triple["elapsed_s"]
        return doc

    s1, s2 = (verify_range(4, 5, 7, jobs=jobs) for jobs in (1, 2))
    assert untimed(s1) == untimed(s2)
    assert [t.violations for t in s1.triples] == [t.violations for t in s2.triples]
    assert s1.ok and len(s1.triples) == 21


def test_verify_range_caps_the_pool(monkeypatch):
    # A recording stand-in for the pool: no process is ever started.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert len(range_triples(3, 4, 5)) == 4
    serial = verify_range(3, 4, 5, jobs=1)
    assert sizes == []
    assert verify_range(3, 4, 5, jobs=5000).triples[0].worst == serial.triples[0].worst
    assert sizes == [3]  # capped at the processors
    verify_range(3, 4, 5)
    assert sizes == [3, 3]  # default: one worker per processor
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    verify_range(3, 4, 5, jobs=5000)
    assert sizes == [3, 3, 4]  # capped at the triples
    assert len(verify_range(3, 3, 4, jobs=5000).triples) == 1
    assert sizes == [3, 3, 4]  # one triple runs serially


def test_extremality_crosscheck_returns_both_sets():
    family, independent = extremality_crosscheck(Triple(2, 9, 13), max_len=12)
    assert {w.word for w in family} == {w.word for w in independent}
    assert all(len(w) <= 12 for w in family)


def test_extremality_crosscheck_surfaces_mismatches():
    # under the printed kneading table, the k = (r-2)/2 family words of even-r
    # triples are not admissible, so the two characterizations must differ
    family, independent = extremality_crosscheck(Triple(3, 3, 4), max_len=12)
    fam = {w.word for w in family}
    indep = {w.word for w in independent}
    assert "aabab" in fam - indep
    assert fam != indep


def test_extremality_crosscheck_independent_list_is_the_eager_definition():
    # every cut listed, then both factors tested: no memo, no early exit
    from templink.crossing import enumerate_cuts, is_admissible_cut
    from templink.kneading import kneading

    triples = range_triples(4, 5, 7, include_p2=False) + range_triples(2, 9, 13)
    assert len(triples) == 34  # the triples of acceptance criterion 10
    for t in triples:
        k = kneading(t)
        want = [
            w
            for w in enumerate_admissible(t, 10)
            if not any(is_admissible_cut(c, k) for c in enumerate_cuts(w))
        ]
        _, independent = extremality_crosscheck(t, 10)
        assert [w.word for w in independent] == want, t

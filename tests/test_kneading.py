from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    kneading_unbounded,
    lorenz_kneading,
    oracle_admissible,
    oracle_block_constraints,
    syllables,
)
from templink.census import range_triples
from templink.crossing import Cut, is_admissible_cut
from templink.kneading import (
    MAX_TABLE_LETTERS,
    KneadingData,
    Triple,
    is_admissible,
    kneading,
    satisfies_block_constraints,
)
from templink.words import CyclicWord, PeriodicSequence, canonicalize, compare


def test_triple_validation():
    assert Triple(3, 3, 4).delta == 3
    with pytest.raises(ValueError):
        Triple(3, 2, 4)  # not ordered
    with pytest.raises(ValueError):
        Triple(2, 3, 6)  # 1/2 + 1/3 + 1/6 = 1, not hyperbolic
    with pytest.raises(ValueError):
        Triple(2, 2, 100)
    with pytest.raises(ValueError, match="^r must be an integer, got 4.0$"):
        Triple(3, 3, 4.0)
    with pytest.raises(ValueError, match="^p must be an integer, got True$"):
        Triple(True, 3, 4)


@pytest.mark.parametrize(
    "pqr, u_L, v_R",
    [
        ((3, 3, 4), "|aababaabb", "|bbababbaa"),  # r even
        ((3, 3, 5), "|aabaabb", "|bbabbaa"),  # r odd
        ((2, 5, 7), "|abababb", "b|bbbabbbba"),  # p = 2, r odd
        ((2, 5, 6), "|ababb", "b|bbbabbbba"),  # p = 2, r even
    ],
)
def test_kneading_table_rows(pqr, u_L, v_R):
    k = kneading(Triple(*pqr))
    assert str(k.u_L) == u_L
    assert str(k.v_R) == v_R


def test_kneading_table_golden_digest():
    # every table of a 12,839-triple box, hashed: the rows are spelled as they were pinned
    import hashlib

    lines = []
    for p in range(2, 10):
        for q in range(p, 31):
            for r in range(q, 81):
                try:
                    t = Triple(p, q, r)
                except ValueError:  # not hyperbolic
                    continue
                k = kneading(t)
                lines.append(f"{p},{q},{r} {k.u_L} {k.v_R}")
    assert len(lines) == 12_839
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == "f93d39dbb58e48fffc555a8fbb2c087fab96e4d5e4a15e57a5ed4db142f52c52"


def test_kneading_bounds_widen_with_r():
    # kneading()'s lemma, strictness included: u_L(r+1) < u_L(r) except from
    # odd r for p = 2, and v_R(r) < v_R(r+1) except from even r for p = 2
    steps = 0
    for p in range(2, 9):
        for q in range(p, 30):
            tables = {}
            for r in range(q, 120):
                try:
                    tables[r] = kneading(Triple(p, q, r))
                except ValueError:  # not hyperbolic
                    continue
            for r, k in tables.items():
                if r + 1 not in tables:
                    continue
                k1 = tables[r + 1]
                assert compare(k1.u_L, k.u_L) == (0 if p == 2 and r % 2 else -1), (p, q, r)
                assert compare(k.v_R, k1.v_R) == (0 if p == 2 and r % 2 == 0 else -1), (p, q, r)
                steps += 1
    assert steps == 17_741


def test_complete_census_grows_with_r():
    # the bounds widen, so census(r) is contained in census(r + 1): the
    # complete census, with no block screen, odd and even r for every p
    from templink.census import lyndon_words

    steps = 0
    for p in range(2, 7):
        for q in range(p, 9):
            words = lyndon_words(12, runs=(p, q))
            census = {}
            for r in range(q, 18):
                try:
                    k = kneading(Triple(p, q, r))
                except ValueError:  # not hyperbolic
                    continue
                census[r] = {w for w in words if is_admissible(w, k)}
            for r in census:
                if r + 1 in census:
                    assert census[r] <= census[r + 1], (p, q, r)
                    steps += 1
    assert steps == 259


def test_kneading_structure_relations():
    # the bounds keep their strict orders, and the template contains its
    # boundary orbits: the period of each of the four bounds is admissible
    p2 = [Triple(2, q, r) for q in range(3, 10) for r in range(q, 14) if q * r > 2 * (q + r)]
    for t in dict.fromkeys(range_triples(9, 9, 13) + p2):
        k = kneading(t)
        assert compare(k.u_L, k.u_R) < 0
        assert compare(k.v_L, k.v_R) < 0
        for bound in (k.u_L, k.u_R, k.v_L, k.v_R):
            assert oracle_admissible(bound.period, k), (t, bound)


def test_table_letter_bound_covers_every_table():
    # the refusal's bound 2r(p+q) must cover the four sequences of every table it admits
    for p in (2, 3, 5):
        for q in range(p, 12):
            for r in range(q, 40):
                try:
                    k = kneading(Triple(p, q, r))
                except ValueError:  # not hyperbolic
                    continue
                bounds = (k.u_L, k.u_R, k.v_L, k.v_R)
                assert sum(len(b.preperiod) + len(b.period) for b in bounds) <= 2 * r * (p + q)
    assert 2 * 89 * (3 + 89) <= MAX_TABLE_LETTERS < 2 * 90 * (3 + 89)
    kneading(Triple(3, 89, 89))
    with pytest.raises(ValueError, match="16,560 letters, over the limit of 16,384"):
        kneading(Triple(3, 89, 90))


def test_table_domain_implied_by_hyperbolicity():
    # the table's p = 2 rows need q > 2 and r > 4; no hyperbolic triple
    # violates either, so Triple's own validation fences the domain
    with pytest.raises(ValueError):
        Triple(2, 2, 9)
    with pytest.raises(ValueError):
        Triple(2, 4, 4)
    with pytest.raises(ValueError):
        Triple(2, 3, 4)


def test_kneading_unbounded_and_lorenz():
    k = kneading_unbounded(3, 4)
    assert str(k.u_L) == "|aab"
    assert str(k.v_R) == "|bbba"
    lk = lorenz_kneading()
    # trivial bounds admit everything
    for w in ("a", "b", "ab", "aabbbab"):
        assert is_admissible(canonicalize(w)[0], lk)


def test_admissibility_examples():
    k = kneading(Triple(3, 3, 4))
    assert is_admissible(CyclicWord("ab"), k)
    assert not is_admissible(CyclicWord("aab"), k)
    assert not is_admissible(CyclicWord("abb"), k)
    assert not is_admissible(CyclicWord("a"), k)
    # boundary orbits are inclusive
    assert is_admissible(CyclicWord(k.u_L.period), k)
    assert is_admissible(CyclicWord(k.v_R.period), k)


@pytest.mark.parametrize("pqr", [(3, 3, 4), (3, 3, 5), (3, 4, 6), (2, 5, 7), (2, 3, 7)])
def test_boundary_periods_admissible(pqr):
    k = kneading(Triple(*pqr))
    assert is_admissible(canonicalize(k.u_L.period)[0], k)
    assert is_admissible(canonicalize(k.v_R.period)[0], k)


# Every bound shape: p >= 3 with odd and even r, p = 2 (v_R has a nonempty
# preperiod) with odd and even r, the open template, the Lorenz bounds, and
# hand-built bounds whose u_L has a nonempty preperiod, which no table row has.
KNEADINGS = [
    kneading(Triple(3, 3, 4)),
    kneading(Triple(3, 4, 7)),
    kneading(Triple(4, 5, 6)),
    kneading(Triple(2, 5, 7)),
    kneading(Triple(2, 5, 6)),
    kneading(Triple(2, 7, 9)),
    kneading_unbounded(3, 4),
    kneading_unbounded(2, 3),
    lorenz_kneading(),
    KneadingData(PeriodicSequence("a", "ab"), PeriodicSequence("", "bba")),
]


@pytest.mark.parametrize("k", KNEADINGS)
def test_bound_prefixes_read_letter_by_letter(k):
    for bound in (k.u_L, k.u_R, k.v_L, k.v_R):
        pre, per = bound.preperiod, bound.period
        letters = [pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)] for i in range(40)]
        for n in range(41):
            assert bound.prefix(n) == "".join(letters[:n]), (bound, n)


@given(st.text(alphabet="ab", min_size=1, max_size=12), st.sampled_from(KNEADINGS))
@settings(max_examples=300)
def test_admissibility_matches_oracle_and_rotation_invariant(word, k):
    root, _ = canonicalize(word)
    got = is_admissible(root, k)
    assert got == oracle_admissible(root.word, k)
    for i in range(len(root.word)):
        rot = root.word[i:] + root.word[:i]
        assert oracle_admissible(rot, k) == got


@pytest.mark.parametrize("k", KNEADINGS)
def test_admissibility_matches_oracle_on_all_short_words(k):
    from templink.census import lyndon_words

    for word in lyndon_words(10):
        assert is_admissible(CyclicWord(word), k) == oracle_admissible(word, k)



@pytest.mark.parametrize("k", KNEADINGS)
def test_admissibility_of_raw_strings_matches_canonical_root(k):
    # a str is read as it stands: any rotation or power of a word answers as its root
    for n in range(1, 11):
        for bits in range(2**n):
            word = "".join("ab"[(bits >> i) & 1] for i in range(n))
            assert is_admissible(word, k) == is_admissible(canonicalize(word)[0], k), word

def test_triple_syllables_and_max_repeats():
    assert Triple(3, 3, 4).syllables == ("aab", "abb")
    assert Triple(3, 3, 4).max_repeats == 1
    assert Triple(2, 5, 7).syllables == ("ab", "abbbb")
    assert Triple(2, 5, 7).max_repeats == 2
    assert Triple(4, 5, 6).syllables == ("aaab", "abbbb")
    assert Triple(4, 5, 6).max_repeats == 2


def test_syllables_decomposition():
    assert syllables("aabab") == [(2, 1), (1, 1)]
    assert syllables("ababb") == [(1, 1), (1, 2)]
    with pytest.raises(ValueError):
        syllables("aaa")


def test_block_constraints_match_syllable_walk_oracle():
    # p = 2, even and odd r, and the smallest triple (3,3,4)
    pqrs = ((2, 3, 7), (2, 5, 6), (2, 9, 13), (3, 3, 4), (3, 4, 7), (4, 5, 6))
    triples = [Triple(*pqr) for pqr in pqrs]
    for n in range(1, 13):
        for bits in range(2**n):
            word = "".join("ab"[(bits >> i) & 1] for i in range(n))
            for t in triples:
                want = oracle_block_constraints(word, t)
                assert satisfies_block_constraints(word, t) == want, (word, t)


def test_block_constraints_necessary():
    t = Triple(3, 3, 4)
    k = kneading(t)
    # single letters and pure syllable words fail
    for w in ("a", "b", "aab", "abb"):
        assert not satisfies_block_constraints(canonicalize(w)[0].word, t)
    # every admissible word satisfies the constraints
    from templink.census import lyndon_words

    for word in lyndon_words(9):
        if "a" not in word or "b" not in word:
            continue
        w = CyclicWord(word)
        if is_admissible(w, k):
            assert satisfies_block_constraints(w.word, t)


def test_no_p_run_in_admissible_words():
    # admissible words never contain p consecutive a's
    t = Triple(3, 4, 5)
    k = kneading(t)
    from templink.census import enumerate_admissible

    for w in enumerate_admissible(t, 9):
        assert "a" * t.p not in w * 2


def test_kneading_data_validates_order():
    # the premises of is_admissible's interval test: u_L starts with a
    # (else u_L > u_R = a.v_R) and v_R starts with b (else v_L = b.u_L > v_R)
    a, b = PeriodicSequence("", "a"), PeriodicSequence("", "b")
    for u_L, v_R in ((b, b), (a, a)):
        with pytest.raises(ValueError, match="out of order"):
            KneadingData(u_L=u_L, v_R=v_R)


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_admissible("", kneading(Triple(3, 3, 4))),
        lambda: satisfies_block_constraints("", Triple(3, 3, 4)),
        lambda: is_admissible_cut(Cut("", "ab", 0, 0), kneading(Triple(3, 3, 4))),
    ],
)
def test_empty_word_raises_value_error(call):
    with pytest.raises(ValueError, match="nonempty word"):
        call()


VALUE_TRIPLES = [(3, 3, 4), (2, 5, 7), (2, 5, 6), (4, 5, 6)]


@pytest.mark.parametrize("pqr", VALUE_TRIPLES)
def test_bound_prefix_store_leaves_identity_unchanged(pqr):
    # the table keeps no bound-prefix store: it is a plain value, whatever is_admissible has read
    import dataclasses
    import pickle

    from templink.census import lyndon_words

    t = Triple(*pqr)
    fresh, used = kneading(t), kneading(t)
    for word in lyndon_words(10):
        is_admissible(word, used)
    # u_R, v_L, reach and the runs are derived at construction and kept outside the dataclass fields
    bounds = (fresh.u_L, fresh.v_R)
    assert vars(fresh)["reach"] == max(len(b.preperiod) + len(b.period) for b in bounds)
    for n in range(1, 41):
        assert vars(fresh)["u_R"].prefix(n) == "a" + fresh.v_R.prefix(n - 1)
        assert vars(fresh)["v_L"].prefix(n) == "b" + fresh.u_L.prefix(n - 1)
    # every table row starts u_L with a^(p-1) b and v_R with b^(q-1) a
    assert vars(fresh)["runs"] == ("a" * (t.p - 1), "b" * (t.q - 1))
    assert used.reach == fresh.reach and vars(used) == vars(fresh)
    assert [f.name for f in dataclasses.fields(KneadingData)] == ["u_L", "v_R"]
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    unpickled = pickle.loads(pickle.dumps(used))
    assert unpickled == fresh and vars(unpickled) == vars(fresh)


@pytest.mark.parametrize("pqr", VALUE_TRIPLES)
def test_triple_derived_values_leave_identity_unchanged(pqr):
    # verify_range's pool pickles triples, derived values and all
    import dataclasses
    import pickle

    p, q, r = pqr
    t = Triple(*pqr)
    assert [f.name for f in dataclasses.fields(Triple)] == ["p", "q", "r"]
    assert vars(t) == {
        "p": p,
        "q": q,
        "r": r,
        "delta": p * q * r - p * q - q * r - p * r,
        "q_coefficients": (q * r - q - r, r, p * r - p - r),
        "max_repeats": (r - 2) // 2,
    }
    assert t == Triple(p, q, r) and hash(t) == hash((p, q, r))
    assert repr(t) == f"Triple(p={p}, q={q}, r={r})"
    unpickled = pickle.loads(pickle.dumps(t))
    assert unpickled == t and vars(unpickled) == vars(t)


def test_triple_of_huge_parameters_spells_out_no_syllables():
    # the syllables hold p + q letters, so they are built only when read: a
    # Triple of q = r = 10^20 is cheap, and so is its linking number
    from templink.crossing import word_crossing
    from templink.linking import template_linking

    p, n = 3, 10**20
    t = Triple(p, n, n)
    assert "syllables" not in vars(t) and t.max_repeats == (n - 2) // 2
    # Q((1, 1), (2, 1)) with (a, b, c) = (qr - q - r, r, pr - p - r)
    a, b, c = n * n - 2 * n, n, p * n - p - n
    q_value = 2 * a - 3 * b + c
    want = Fraction(-word_crossing("ab", "aab"), 2) + Fraction(q_value, t.delta)
    assert template_linking(t, "ab", "aab") == want


def test_only_shifts_starting_with_a_leading_run_are_compared():
    # is_admissible's lemma: a shift that starts with neither of k.runs lies in
    # [u_L, v_R].  The shifts of words up to 10 letters are the strings up to
    # 10 letters, each read as s^inf; the tables are every shape of KNEADINGS
    # and an odd-r, an even-r and a p = 2 row outside it.
    from itertools import product

    tables = KNEADINGS + [kneading(Triple(*pqr)) for pqr in ((3, 3, 5), (3, 4, 6), (2, 3, 7))]
    words = ["".join(w) for n in range(1, 11) for w in product("ab", repeat=n)]
    roots = {word: canonicalize(word)[0] for word in words}
    for k in tables:
        longest = max(map(len, k.runs))
        # oracle_admissible reads the shifts of w^inf, which a word shares with its root
        want = {root: oracle_admissible(root, k) for root in set(roots.values())}
        for word in words:
            assert is_admissible(word, k) == want[roots[word]], (word, k)
            shift = PeriodicSequence("", word)
            if not shift.prefix(longest).startswith(k.runs):
                assert compare(k.u_L, shift) <= 0 <= compare(k.v_R, shift), (word, k)


@pytest.mark.parametrize("pqr", VALUE_TRIPLES)
def test_admissibility_independent_of_word_order(pqr):
    from templink.census import lyndon_words

    t = Triple(*pqr)
    words = sorted((w for w in lyndon_words(11) if "a" in w and "b" in w), key=len)
    k = kneading(t)
    ascending = [is_admissible(w, k) for w in words]
    descending = [is_admissible(w, k) for w in reversed(words)][::-1]
    fresh = kneading(t)
    assert ascending == descending == [is_admissible(w, fresh) for w in reversed(words)][::-1]
    # the bound orbits lie on the template: equality with a bound is admitted,
    # which needs the bound prefixes at the shift's own horizon
    assert is_admissible(k.u_L.period, k) and is_admissible(k.v_R.period, k)

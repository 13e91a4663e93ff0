import collections
import itertools
import random
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lorenz_kneading, oracle_crossing, oracle_cuts, shift_sequences
from templink import census, crossing
from templink.census import lyndon_words
from templink.crossing import Cut, enumerate_cuts, is_admissible_cut, word_crossing
from templink.kneading import Triple, kneading
from templink.words import CyclicWord, canonicalize, compare, primitive_root

words = st.text(alphabet="ab", min_size=1, max_size=10)


def test_crossing_closed_form_examples():
    # 2(i+j) for nested exponents, 2(i+j'-1) for straddling ones
    assert word_crossing("ab", "aabb") == 4
    assert word_crossing("abb", "aab") == 2
    assert word_crossing("ab", "aab") == 2


def test_self_crossing_examples():
    assert word_crossing("ab", "ab") == 2
    assert word_crossing("aab", "aab") == 4
    assert word_crossing("a", "a") == 0


def test_word_crossing_multiplicity():
    # a word traversing an orbit k times counts as k parallel strands
    assert word_crossing("abab", "aabb") == 2 * word_crossing("ab", "aabb")
    assert word_crossing("abab", "abab") == 4 * word_crossing("ab", "ab")
    assert word_crossing("ab", "ab") == 2


def test_crossing_entry_point_rejects_foreign_letters():
    from templink.linking import template_linking

    message = "may only contain letters 'a' and 'b', got 'c'"
    for v, x in (("ac", "ab"), ("ab", "ac"), ("c", "c")):
        with pytest.raises(ValueError, match=message):
            word_crossing(v, x)
    with pytest.raises(ValueError, match=message):
        template_linking(Triple(3, 3, 4), "ac", "ab")
    with pytest.raises(ValueError, match=message):
        CyclicWord("ac")
    with pytest.raises(ValueError, match="^crossing numbers need nonempty words$"):
        word_crossing("", "ab")


@given(words, words)
@settings(max_examples=150)
# tied shifts: powers, shared roots and rotations of one word
@example("abab", "ab")
@example("ab", "ba")
@example("aabaab", "aab")
@example("abab", "baba")
@example("aab", "aba")
def test_word_crossing_matches_oracle(v, x):
    assert word_crossing(v, x) == oracle_crossing(v, x)


@given(words, words)
def test_crossing_symmetry(v, x):
    assert word_crossing(v, x) == word_crossing(x, v)


@given(st.text(alphabet="ab", min_size=1, max_size=9))
def test_self_crossing_even(word):
    root, _ = canonicalize(word)
    assert word_crossing(root.word, root.word) % 2 == 0


def test_cuts_of_two_letter_word():
    cuts = enumerate_cuts(CyclicWord("ab"))
    assert [(c.u, c.v) for c in cuts] == [("a", "b")]


def test_cut_needs_u_inf_below_v_inf():
    # no split that _cuts checks reaches this branch, so it is tested directly
    assert crossing._is_valid_cut("a", "b")
    assert not crossing._is_valid_cut("b", "a")
    assert not crossing._is_valid_cut("ab", "ab")


@pytest.mark.parametrize("word", ["ba", "abab", "ac", "bab", ""])
def test_cuts_refuse_words_that_are_not_primitive_least_rotations(word):
    with pytest.raises(ValueError):
        enumerate_cuts(word)


def test_cuts_of_aabb():
    pairs = {(c.u, c.v) for c in enumerate_cuts(CyclicWord("aabb"))}
    assert ("a", "abb") in pairs
    assert ("aa", "bb") in pairs


def test_cut_example_with_long_word():
    # aa|abb|abbababbab splits into abbababbabaa and abb
    w = CyclicWord("aaabbabbababbab")
    pairs = {(c.u, c.v) for c in enumerate_cuts(w)}
    assert ("abbababbabaa", "abb") in pairs


def test_cut_invariants_hold_for_enumerated_cuts():
    rng = random.Random(7)
    from templink.words import PeriodicSequence, compare

    for _ in range(60):
        raw = "".join(rng.choice("ab") for _ in range(rng.randint(2, 12)))
        if "a" not in raw or "b" not in raw:
            continue
        w = canonicalize(raw)[0]
        for c in enumerate_cuts(w):
            rot = w[c.rotation :] + w[: c.rotation]
            assert c.u + c.v == rot
            assert c.u[-1] == "a" and c.v[-1] == "b"
            su, sv = PeriodicSequence("", c.u), PeriodicSequence("", c.v)
            assert compare(su, sv) < 0
            for factor in (c.u, c.v):
                for i in range(len(factor)):
                    s = PeriodicSequence("", factor[i:] + factor[:i])
                    assert not (compare(su, s) < 0 and compare(s, sv) < 0)


def _cut_tuples(w: CyclicWord) -> list[tuple]:
    return [tuple(c) for c in enumerate_cuts(w)]


@given(st.text(alphabet="ab", min_size=2, max_size=14))
@settings(max_examples=200)
def test_enumerated_cuts_match_oracle(raw):
    if "a" not in raw or "b" not in raw:
        return
    w = canonicalize(raw)[0]
    assert _cut_tuples(w) == oracle_cuts(w.word)


def test_cuts_match_oracle_with_non_primitive_factors():
    # each word has a cut with a factor that is a proper power: aa|bb, baba|b, ...
    for word in ("aabb", "aaabbb", "ababb", "aabaabbb", "abababbb"):
        w = CyclicWord(word)
        cuts = _cut_tuples(w)
        assert cuts == oracle_cuts(word)
        assert any(canonicalize(u)[1] > 1 or canonicalize(v)[1] > 1 for u, v, _, _ in cuts)


def _two_letter_lyndon_words(max_len: int) -> list[str]:
    return [w for w in lyndon_words(max_len) if "a" in w and "b" in w]


def test_cuts_match_oracle_on_every_word_up_to_12():
    for word in _two_letter_lyndon_words(12):
        assert _cut_tuples(CyclicWord(word)) == oracle_cuts(word), word


def _suffix_and_rotation_orders(w: str) -> tuple[list[int], list[int]]:
    n = len(w)
    suffixes = sorted(range(n), key=lambda k: w[k:])
    return suffixes, sorted(range(n), key=lambda k: w[k:] + w[:k])


def test_lyndon_suffixes_sort_as_rotations_on_every_word_up_to_14():
    # the lemma _cuts takes its rotation order from
    lyndon = _two_letter_lyndon_words(14)
    assert len(lyndon) == 2536
    for word in lyndon:
        suffixes, rotations = _suffix_and_rotation_orders(word)
        assert suffixes == rotations, word


@given(st.text(alphabet="ab", min_size=1, max_size=60))
@settings(max_examples=200)
# suffix ab is a prefix of suffix abaabab
@example("aabaabab")
def test_lyndon_suffixes_sort_as_rotations(raw):
    root = canonicalize(raw)[0].word
    suffixes, rotations = _suffix_and_rotation_orders(root)
    assert suffixes == rotations


def test_cuts_refuse_exactly_the_words_that_are_not_lyndon():
    # empty, a proper power, or not its own least rotation, as canonicalize decides
    for n in range(11):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            lyndon = bool(word) and canonicalize(word) == (word, 1)
            try:
                list(crossing._cuts(word))
            except ValueError:
                assert not lyndon, word
            else:
                assert lyndon, word


def _successor_splits(w: str) -> list[tuple[int, str, str, int]]:
    # (rotation, u, v, m) by definition: rotation x ends in b, y is what its successor
    # in rank puts before it, rot = u y^m with m greatest, and u ends in a
    n = len(w)
    rotations = sorted(range(n), key=lambda k: w[k:] + w[:k])
    splits = []
    for x, s in zip(rotations, rotations[1:]):
        rot = w[x:] + w[:x]
        y, m = rot[(s - x) % n :], 1
        while rot.endswith(y * (m + 1)):
            m += 1
        u = rot[: n - m * len(y)]
        if rot[-1] == "b" and u[-1] == "a":
            splits.append((x, u, rot[len(u) :], m))
    return splits


def _check_successor_splits(w: str) -> list[tuple[int, str, str, int]]:
    # _cuts yields only valid cuts, and among them every successor split
    cuts = set(crossing._cuts(w))
    assert all(crossing._is_valid_cut(u, v) for _, u, v in cuts), w
    splits = _successor_splits(w)
    for x, u, v, _ in splits:
        assert crossing._is_valid_cut(u, v) and (x, u, v) in cuts, (w, x, u, v)
    return splits


def test_successor_splits_are_cuts_on_every_word_up_to_16():
    # m = 1 are the "ba" splits of adjacent rotations, m > 1 those whose v is a power
    counts = collections.Counter()
    for word in _two_letter_lyndon_words(16):
        counts.update(m > 1 for *_, m in _check_successor_splits(word))
    assert counts == {False: 33204, True: 6865}


@given(st.text(alphabet="ab", min_size=1, max_size=60))
@settings(max_examples=200)
# successor splits a|(ab)^3 and aba|(ab)^2, with m = 3 and 2
@example("aababab")
def test_successor_splits_are_cuts(raw):
    _check_successor_splits(canonicalize(raw)[0].word)


def test_adjacent_split_with_one_letter_before_both_rotations_is_no_cut():
    # rotations 1 and 2 of aaaaaaab are adjacent in rank and both preceded by a;
    # the split between them leaves the shift (aaaaaab)^inf of v^inf between the factors
    w = "aaaaaaab"
    rotations = sorted(range(8), key=lambda k: w[k:] + w[:k])
    assert rotations[1:3] == [1, 2] and w[0] == w[1] == "a"
    assert not crossing._is_valid_cut("a", "aaaaaba")
    assert (1, "a", "aaaaaba") not in set(crossing._cuts(w))


def test_shifts_between_the_factors_of_a_cut_are_the_power_chains():
    # the power-split lemma of _cuts, checked by definition: with u = z^j and v = y^m,
    # the shifts strictly between X = (uv)^inf and Y = (vu)^inf are z^(j-i)Y
    # and y^(m-i)X, so the successor of X starts at x+|z|, x+n-|y| or x+l
    for word in _two_letter_lyndon_words(10):
        n = len(word)
        shifts = shift_sequences(word)
        order = sorted(range(n), key=cmp_to_key(lambda a, b: compare(shifts[a], shifts[b])))
        for u, v, x, split in oracle_cuts(word):
            (z, j), (y, m) = primitive_root(u), primitive_root(v)
            X, Y = shifts[x], shifts[(x + split) % n]
            between = {k for k in range(n) if compare(X, shifts[k]) < 0 < compare(Y, shifts[k])}
            chains = {(x + i * len(z)) % n for i in range(1, j)}
            chains |= {(x + split + i * len(y)) % n for i in range(1, m)}
            assert between == chains, (word, u, v)
            successor = order[order.index(x) + 1]
            assert successor in {(x + len(z)) % n, (x + n - len(y)) % n, (x + split) % n}


def test_admissible_cut_examples():
    lorenz = lorenz_kneading()
    w = CyclicWord("aaabbabbababbab")
    cut = next(c for c in enumerate_cuts(w) if (c.u, c.v) == ("abbababbabaa", "abb"))
    assert is_admissible_cut(cut, lorenz)

    k334 = kneading(Triple(3, 3, 4))
    # a factor equal to a^(p-1)b is off the template
    bad = Cut(u="aba", v="ab", rotation=0, split=3)
    assert not is_admissible_cut(bad, k334)


def test_extremal_words_have_no_admissible_cut():
    t = Triple(3, 3, 4)
    words = census.extremal_orbits(t)
    assert census._cutless(words, kneading(t)) == words


def _census_words():
    from templink.census import enumerate_admissible

    for pqr in ((3, 3, 4), (3, 3, 5), (2, 5, 7), (4, 4, 5)):
        t = Triple(*pqr)
        for w in enumerate_admissible(t, 11):
            yield kneading(t), w


def test_lazy_cuts_match_the_full_list():
    # the cut search draws the cuts lazily; its verdict is the full list's
    for k, w in _census_words():
        cutless = census._cutless([w], k) == [w]
        assert cutless == (not any(is_admissible_cut(c, k) for c in enumerate_cuts(w)))


def test_admissible_cut_search_stops_at_the_first(monkeypatch):
    drawn = [0]
    cuts = crossing._cuts

    def counted(w):
        for cut in cuts(w):
            drawn[0] += 1
            yield cut

    monkeypatch.setattr(crossing, "_cuts", counted)
    t = Triple(3, 3, 4)
    k = kneading(t)
    w = CyclicWord("aababbabab")
    enumerate_cuts(w)
    listed, drawn[0] = drawn[0], 0
    assert census._cutless([w], k) == []
    assert 0 < drawn[0] < listed


def test_cut_search_validates_few_of_the_letter_filtered_splits(monkeypatch):
    from templink.census import enumerate_admissible

    validated = [0]
    valid = crossing._is_valid_cut

    def counted(*args):
        validated[0] += 1
        return valid(*args)

    monkeypatch.setattr(crossing, "_is_valid_cut", counted)
    filtered = 0
    for pqr in ((3, 3, 4), (2, 5, 7), (4, 4, 5)):
        for w in enumerate_admissible(Triple(*pqr), 12):
            enumerate_cuts(w)
            rotations = [w[k:] + w[:k] for k in range(len(w))]
            filtered += sum(
                rot[split - 1] == "a" for rot in rotations if rot[-1] == "b" for split in range(1, len(w))
            )
    assert 0 < 4 * validated[0] <= filtered


@given(words, words, words)
@settings(max_examples=60)
def test_superadditivity_on_random_cuts(part1, part2, probe):
    raw = part1 + part2
    if "a" not in raw or "b" not in raw:
        return
    w = canonicalize(raw)[0]
    for cut in enumerate_cuts(w)[:4]:
        whole = word_crossing(cut.u + cut.v, probe)
        assert whole >= word_crossing(cut.u, probe) + word_crossing(cut.v, probe)

import doctest

import pytest
from hypothesis import given
from hypothesis import strategies as st

import templink.words
from oracles import shift_sequences
from templink.words import (
    EQUAL,
    GREATER,
    LESS,
    CyclicWord,
    PeriodicSequence,
    canonicalize,
    compare,
)

words = st.text(alphabet="ab", min_size=1, max_size=12)
primitive_words = words.map(lambda s: canonicalize(s)[0])


def test_doctests():
    assert doctest.testmod(templink.words).failed == 0


def test_canonicalize_least_rotation():
    assert canonicalize("ba") == (CyclicWord("ab"), 1)
    assert canonicalize("aabab")[0] == "aabab"


def test_cyclic_word_is_the_string_of_its_least_rotation():
    w = CyclicWord("babaa")
    assert isinstance(w, str) and w == "aabab" and len(w) == 5
    assert w.word == "aabab" and type(w.word) is str
    assert {w: 1}["aabab"] == 1  # hashes as its string


def test_canonicalize_reports_power():
    root, power = canonicalize("abab")
    assert (root, power) == ("ab", 2)
    root, power = canonicalize("aaa")
    assert (root, power) == ("a", 3)


def test_canonicalize_rejects_empty_and_bad_letters():
    with pytest.raises(ValueError):
        canonicalize("")
    with pytest.raises(ValueError):
        canonicalize("abc")


def test_bad_letter_named_in_error():
    for raw, bad in (("abc", "c"), ("xab", "x"), ("aXb", "X"), ("ab\n", "\n")):
        with pytest.raises(ValueError) as excinfo:
            CyclicWord(raw)
        assert str(excinfo.value) == f"word may only contain letters 'a' and 'b', got {bad!r}"
    with pytest.raises(ValueError, match="^period may only contain"):
        PeriodicSequence("", "abz")
    with pytest.raises(ValueError, match="^period must be nonempty$"):
        PeriodicSequence("a", "")


def test_cyclic_word_rejects_powers():
    with pytest.raises(ValueError):
        CyclicWord("abab")


@given(words, st.integers(min_value=0, max_value=11))
def test_canonicalize_rotation_invariant(s, k):
    k %= len(s)
    assert canonicalize(s)[0] == canonicalize(s[k:] + s[:k])[0]


@given(words)
def test_canonicalize_idempotent(s):
    root, _ = canonicalize(s)
    again, power = canonicalize(root)
    assert again == root and power == 1


def test_sequence_normalization():
    # preperiod absorbed when it matches the period's tail
    assert PeriodicSequence("b", "aababaabb") == PeriodicSequence("", "baababaab")
    # periods reduce to their primitive root
    assert PeriodicSequence("", "abab") == PeriodicSequence("", "ab")
    assert PeriodicSequence("a", "b").preperiod == "a"


def test_prefix_inside_the_preperiod():
    s = PeriodicSequence("aab", "a")
    assert s.prefix(0) == ""
    assert s.prefix(2) == "aa"
    assert s.prefix(5) == "aabaa"


def test_compare_examples():
    ab = PeriodicSequence("", "ab")
    aab = PeriodicSequence("", "aab")
    assert compare(ab, aab) == GREATER
    assert compare(ab, PeriodicSequence("", "abab")) == EQUAL
    # a.(b2abab2a2)^inf vs (ab)^inf diverges with a b against an a
    s = PeriodicSequence("a", "bbababbaa")
    assert compare(s, ab) == GREATER
    assert compare(aab, ab) == LESS


def test_letter_counts():
    for raw, counts in (("aba", (2, 1)), ("ba", (1, 1)), ("abbaba", (3, 3))):
        w = CyclicWord(raw)
        assert (w.count("a"), w.count("b")) == counts


@given(primitive_words)
def test_shifts_of_primitive_word_distinct(word):
    shifts = shift_sequences(word)
    for i in range(len(shifts)):
        for j in range(len(shifts)):
            assert (compare(shifts[i], shifts[j]) == EQUAL) == (i == j)


@given(words.map(lambda s: PeriodicSequence("", s)),
       words.map(lambda s: PeriodicSequence("", s)),
       words.map(lambda s: PeriodicSequence("", s)))
def test_compare_total_order(a, b, c):
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0
    # consistency with finite-prefix comparison
    n = 40
    assert compare(a, b) == (a.prefix(n) > b.prefix(n)) - (a.prefix(n) < b.prefix(n))


@given(st.text(alphabet="ab", max_size=4), words)
def test_compare_equal_iff_identical(pre, per):
    s = PeriodicSequence(pre, per)
    t = PeriodicSequence(pre, per * 2)
    assert compare(s, t) == EQUAL
    assert s == t

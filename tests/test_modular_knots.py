"""(2, 3, r) against Ghys's modular knots, an oracle that shares no code with the package.

For (2, 3), k = pq - p - q = 1, so the r = inf manifold is S^3 and the cusp
is the trefoil.  A code word in the syllables ab and abb is a modular knot:
its syllable word over x < y is its Lorenz word, and its element of SL(2, Z)
is a product of -R and -L, whose Rademacher function is the knot's linking
with the trefoil (É. Ghys, "Knots and dynamics", Proc. ICM 2006).  With the
surgery identity of ``linking.template_linking`` (delta_r = r - 6), this
gives

    lk_r(w, w') = -lk_Lorenz(W, W') + Psi(M_w)·Psi(M_w')/(r - 6).
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from closed_forms import cusp_winding, limit_linking
from oracles import lorenz_linking, modular_matrix, rademacher, syllable_word
from templink.census import verify_pairs
from templink.kneading import Triple
from templink.linking import template_linking

syllable_lists = st.lists(st.sampled_from(["ab", "abb"]), min_size=2, max_size=7).map("".join)
# primitive: not a proper power, so the word is found in its square only at both ends
modular_words = syllable_lists.filter(lambda w: w not in (w + w)[1:-1])


@given(modular_words, modular_words)
@settings(max_examples=200)
@example("ababb", "ababb")
@example("abababb", "ababbabb")
def test_limit_linking_is_minus_lorenz_linking(w, w2):
    # the template at r = inf against the Lorenz braid, self-pairs included
    assert limit_linking(2, 3, w, w2) == -lorenz_linking(syllable_word(w), syllable_word(w2))
    for v in (w, w2):
        assert limit_linking(2, 3, v, v) == -lorenz_linking(syllable_word(v), syllable_word(v))


@given(st.sampled_from([7, 9, 11, 10**6 + 1]), modular_words, modular_words)
@settings(max_examples=200, deadline=None)
@example(7, "ababb", "ababbabb")
def test_linking_is_lorenz_linking_plus_the_trefoil_term(r, w, w2):
    # two distinct orbits, so neither word is a rotation of the other
    assume(not (len(w) == len(w2) and w2 in w + w))
    t = Triple(2, 3, r)
    psi = rademacher(modular_matrix(w)) * rademacher(modular_matrix(w2))
    expected = -lorenz_linking(syllable_word(w), syllable_word(w2)) + psi / (r - 6)
    assert template_linking(t, w, w2) == expected
    cross = verify_pairs(t, [w, w2])[1]  # pair order (w, w), (w, w2), (w2, w2)
    assert (cross.word1, cross.word2) == (w, w2)
    assert cross.lk == expected


@given(st.lists(st.sampled_from(["ab", "abb"]), min_size=1, max_size=12).map("".join))
@settings(max_examples=200)
def test_rademacher_is_the_cusp_winding(w):
    # Psi(M_w) = 3u - 2v = #ab - #abb, the linking with the trefoil, powers included
    m = modular_matrix(w)
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    assert rademacher(m) == cusp_winding(2, 3, w)


def test_cusp_words_are_parabolic():
    # the cusp words, which the stable census leaves out: (ab)^k = (-R)^k and
    # (abb)^k = (-L)^k have |trace| 2 and give Psi = k and -k
    for k in range(1, 8):
        for syllable, sign, cusp in (("ab", 1, ((1, k), (0, 1))), ("abb", -1, ((1, 0), (k, 1)))):
            m = modular_matrix(syllable * k)
            assert m == tuple(tuple((-1) ** k * x for x in row) for row in cusp)
            assert rademacher(m) == Fraction(sign * k)

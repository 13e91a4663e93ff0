import pickle
from dataclasses import fields, replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from closed_forms import cusp_winding, limit_linking, qprime_form, surgery_linking
from templink import census
from templink.crossing import word_crossing
from templink.kneading import Triple
from templink.linking import homology_order, q_form, qprime_matrix, template_linking
from templink.words import CyclicWord

small_ints = st.integers(min_value=-6, max_value=6)
vectors = st.tuples(small_ints, small_ints, small_ints)
pairs = st.tuples(small_ints, small_ints)
triples = st.sampled_from([Triple(3, 3, 4), Triple(2, 3, 7), Triple(4, 5, 6), Triple(2, 5, 7)])


def test_delta_examples():
    assert Triple(2, 3, 7).delta == 1
    assert Triple(3, 3, 4).delta == 3
    assert Triple(2, 5, 7).delta == 11


def test_q_form_examples():
    t = Triple(3, 3, 4)
    assert q_form(t, (1, 1), (1, 1)) == 2
    assert q_form(t, (2, 1), (2, 1)) == 9
    assert q_form(t, (0, 0), (5, -3)) == 0


hyperbolic_triples = (
    st.tuples(st.integers(2, 12), st.integers(2, 12), st.integers(2, 60))
    .map(sorted)
    .filter(lambda s: s[0] * s[1] * s[2] - s[0] * s[1] - s[1] * s[2] - s[0] * s[2] >= 1)
    .map(lambda s: Triple(*s))
)
counts = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@given(hyperbolic_triples, counts, counts)
def test_q_form_is_the_expanded_formula(t, uv, uv2):
    p, q, r = t.p, t.q, t.r
    u, v = uv
    u2, v2 = uv2
    expanded = (q * r - q - r) * u * u2 - r * (u * v2 + v * u2) + (p * r - p - r) * v * v2
    assert q_form(t, uv, uv2) == expanded


def test_triple_keeps_its_coefficients_outside_its_fields():
    # delta and the coefficients are derived at construction, before any read;
    # verify_range sends triples to worker processes by pickle
    t = Triple(4, 5, 6)
    assert vars(t)["delta"] == 46 and vars(t)["q_coefficients"] == (19, 6, 14)
    fresh = Triple(4, 5, 6)
    assert [f.name for f in fields(t)] == ["p", "q", "r"]
    for copy in (t, pickle.loads(pickle.dumps(t))):
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
        assert copy.delta == 46 and copy.q_coefficients == (19, 6, 14)
    assert {fresh: "found"}[t] == "found"
    assert qprime_matrix(t)[:2] == [[19, 6, 5], [6, 14, 4]]
    # replace builds a new triple, which derives its own numbers
    other = replace(t, r=7)
    assert other.delta == 4 * 5 * 7 - 4 * 5 - 5 * 7 - 4 * 7
    assert other.q_coefficients == (5 * 7 - 5 - 7, 7, 4 * 7 - 4 - 7)


def test_qprime_examples():
    t = Triple(3, 3, 4)
    p, q, r = 3, 3, 4
    assert qprime_form(t, (1, 1, 1), (1, 1, 1)) == p * q + q * r + p * r
    assert qprime_form(t, (1, 0, 0), (1, 0, 0)) == q * r - q - r


@given(triples, pairs, pairs)
def test_qprime_restricts_to_q_form(t, uv, uv2):
    u, v = uv
    u2, v2 = uv2
    assert qprime_form(t, (-u, v, 0), (-u2, v2, 0)) == q_form(t, (u, v), (u2, v2))


@given(triples, pairs, pairs, pairs)
def test_q_form_bilinear_symmetric(t, x, y, z):
    assert q_form(t, x, y) == q_form(t, y, x)
    xs = (x[0] + z[0], x[1] + z[1])
    assert q_form(t, xs, y) == q_form(t, x, y) + q_form(t, z, y)


@given(triples, vectors, vectors, vectors)
def test_qprime_bilinear_symmetric(t, x, y, z):
    assert qprime_form(t, x, y) == qprime_form(t, y, x)
    xs = tuple(a + b for a, b in zip(x, z))
    assert qprime_form(t, xs, y) == qprime_form(t, x, y) + qprime_form(t, z, y)


def test_surgery_linking_examples():
    t = Triple(3, 3, 4)
    assert surgery_linking(t, 1, (1, 1, 1), (1, 1, 1)) == Fraction(36, 3)
    assert surgery_linking(t, Fraction(5, 7), (0, 0, 0), (2, 3, 4)) == Fraction(5, 7)


def test_surgery_matrix_inverse_identity():
    # M·S = -delta·I for M = qprime_matrix(t) and S = [[1-p,1,1],[1,1-q,1],[1,1,1-r]].
    # Proof that these 8 triples suffice: every entry of M and delta has degree
    # <= 1 in each of p, q and r.  The k-th variable appears in S only at S[k][k],
    # and column k of M never holds it (M[0][0] = qr-q-r, M[1][0] = r and
    # M[2][0] = q have no p, and so on), so (M·S)[i][j] = sum of M[i][k]·S[k][j]
    # has degree <= 1 in each variable too, and so has each entry of M·S + delta·I.
    # Such a polynomial that vanishes on {3,4}x{5,6}x{7,8} vanishes everywhere, so
    # the identity holds for every p, q and r.
    for p, q, r in product((3, 4), (5, 6), (7, 8)):
        t = Triple(p, q, r)
        m = qprime_matrix(t)
        s = [[1 - p, 1, 1], [1, 1 - q, 1], [1, 1, 1 - r]]
        ms = [[sum(m[i][k] * s[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        assert ms == [[-t.delta if i == j else 0 for j in range(3)] for i in range(3)], t


def test_template_linking_examples():
    t = Triple(3, 3, 4)
    assert template_linking(t, CyclicWord("aab"), CyclicWord("aab")) == 1
    assert template_linking(t, CyclicWord("ab"), CyclicWord("ab")) == Fraction(-1, 3)


@pytest.mark.parametrize("pqr", [(3, 3, 4), (2, 5, 7), (4, 5, 6)])
def test_template_linking_on_strings(pqr):
    t = Triple(*pqr)
    ws = [CyclicWord(w) for w in ("ab", "aabb", "aababb", "abb", "aabab")]
    for w in ws:
        for x in ws:
            lk = template_linking(t, w, x)
            for k in range(len(w)):
                assert template_linking(t, w[k:] + w[:k], x.word) == lk
            for k in (2, 3):
                assert template_linking(t, w.word * k, x) == k * lk


@pytest.mark.parametrize("pqr", [(3, 3, 4), (3, 4, 5), (4, 5, 7), (2, 5, 7)])
def test_scalar_linking_identity(pqr):
    t = Triple(*pqr)
    w1 = CyclicWord("a" * (t.p - 1) + "b")
    for i in range(1, t.p):
        for j in range(1, t.q):
            w2 = CyclicWord("a" * i + "b" * j)
            lk = template_linking(t, w1, w2)
            assert lk * t.delta == t.q * i - t.p * j


def test_template_linking_symmetry_and_surgery_consistency():
    t = Triple(3, 4, 5)
    ws = [CyclicWord(w) for w in ("ab", "aabb", "aababb", "abb")]
    for w1 in ws:
        for w2 in ws:
            lk = template_linking(t, w1, w2)
            assert lk == template_linking(t, w2, w1)
            cr = word_crossing(w1.word, w2.word)
            na1, nb1 = w1.count("a"), w1.count("b")
            na2, nb2 = w2.count("a"), w2.count("b")
            assert lk == surgery_linking(
                t, Fraction(-cr, 2), (-na1, nb1, 0), (-na2, nb2, 0)
            )


def test_denominator_divides_delta():
    t = Triple(3, 3, 4)
    ws = [CyclicWord(w) for w in ("ab", "aabb", "aababb", "aabab", "ababb")]
    for w1 in ws:
        for w2 in ws:
            lk = template_linking(t, w1, w2)
            assert (2 * t.delta * lk).denominator == 1
            if w1 != w2:
                assert (t.delta * lk).denominator == 1


def test_fiber_linking():
    # two generic fibers link each other and each Hopf component once in S^3,
    # and each other by -1/chi = pqr/delta after surgery
    fiber = (1, 1, 1)
    assert surgery_linking(Triple(3, 3, 4), 1, fiber, fiber) == 12
    assert surgery_linking(Triple(2, 3, 7), 1, fiber, fiber) == 42
    for pqr in [(3, 3, 4), (2, 5, 9), (4, 6, 11)]:
        t = Triple(*pqr)
        assert surgery_linking(t, 1, fiber, fiber) == Fraction(t.p * t.q * t.r, t.delta)


# (p, q) of the stable censuses and a p = 2 pair past them
LIMIT_PAIRS = [(2, 3), (2, 5), (3, 3), (3, 4), (4, 5), (6, 8), (2, 7)]


@given(
    st.sampled_from(LIMIT_PAIRS),
    st.integers(min_value=2, max_value=40) | st.integers(min_value=2, max_value=10**20),
    st.text(alphabet="ab", min_size=1, max_size=10),
    st.text(alphabet="ab", min_size=1, max_size=10),
)
@settings(max_examples=300)
def test_surgery_identity(pq, r, w, w2):
    # template_linking's lemma: lk_r = lk_inf + Psi(w)·Psi(w')/(k·delta_r), with
    # delta_r = r·k - pq written out, so neither side reads Triple.delta
    p, q = pq
    k = p * q - p - q
    assume(r >= q and r * k > p * q)
    rank_one = Fraction(cusp_winding(p, q, w) * cusp_winding(p, q, w2), k * (r * k - p * q))
    assert template_linking(Triple(p, q, r), w, w2) == limit_linking(p, q, w, w2) + rank_one


# (p, q), max length and size of the stable census: the run-limited Lyndon
# words but the two cusp words a^(p-1) b and a b^(q-1)
STABLE_CENSUSES = [
    ((2, 3), 24, 163),
    ((2, 5), 16, 188),
    ((3, 3), 14, 175),
    ((3, 4), 13, 260),
    ((4, 5), 12, 392),
    ((6, 8), 11, 370),
]


@pytest.mark.parametrize("pq, max_len, size", STABLE_CENSUSES)
def test_limit_linking_is_at_most_minus_one_over_k(pq, max_len, size):
    # on every pair, self-pairs included, k·lk_inf is an integer <= -1 and -1
    # is reached; lk_inf comes from the package's lk_r at one r through the
    # surgery identity, so q_form and delta are both on the path
    p, q = pq
    k = p * q - p - q
    cusps = ("a" * (p - 1) + "b", "a" + "b" * (q - 1))
    assert [cusp_winding(p, q, w) for w in cusps] == [k, -k]
    words = [w for w in census.lyndon_words(max_len, runs=pq) if w not in cusps]
    assert len(words) == size
    t = Triple(p, q, q + 5)
    counts = [(w.count("a"), w.count("b")) for w in words]
    psi = [cusp_winding(p, q, w) for w in words]
    half_cr = iter(census._crossing_matrix(words).tolist())  # cr/2 in pair order
    worst, worst_pair = None, None
    for i, w in enumerate(words):
        for j in range(i, len(words)):
            # k·lk_inf = k·lk_r - Psi·Psi'/delta_r, with lk_r = -cr/2 + Q/delta_r
            limit = k * q_form(t, counts[i], counts[j]) - psi[i] * psi[j]
            assert limit % t.delta == 0, (w, words[j])
            value = limit // t.delta - k * next(half_cr)
            if worst is None or value > worst:
                worst, worst_pair = value, (w, words[j])
    assert worst == -1
    assert k * limit_linking(p, q, *worst_pair) == -1


def test_homology_order():
    assert homology_order([2, 3, 7]) == 1
    assert homology_order([2, 3, 5]) == 1
    assert homology_order([3, 3, 4]) == 3
    assert homology_order([2, 2, 3, 3]) == 12
    # Euclidean orders: orbifold Euler characteristic 0, so H_1 is infinite
    for orders in ([3, 3, 3], [2, 3, 6], [2, 4, 4]):
        assert homology_order(orders) == 0
    with pytest.raises(ValueError):
        homology_order([2, 3])
    with pytest.raises(ValueError):
        homology_order([1, 3, 7])

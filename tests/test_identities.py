from fractions import Fraction

import pytest

from closed_forms import instances, refined_bound_failures, superadditivity_instances
from templink.census import range_triples
from templink.crossing import word_crossing
from templink.kneading import Triple
from templink.linking import template_linking

T334 = Triple(3, 3, 4)


def compared(t, name):
    """(pipeline, closed form) values of delta * lk for each instance of entry ``name`` at t."""
    return [
        (t.delta * template_linking(t, w1, w2), value)
        for entry, w1, w2, value in instances(t)
        if entry == name
    ]


def test_hard_requirements_pass():
    assert refined_bound_failures(T334) == (49, [])


@pytest.mark.parametrize("pqr", [(3, 4, 5), (2, 5, 7), (4, 5, 6)])
def test_hard_requirements_other_triples(pqr):
    _, failures = refined_bound_failures(Triple(*pqr))
    assert not failures


def test_exact_identities_match():
    for name in (
        "scalar_qi_minus_pj",
        "nested_bilinear",
        "straddling_bilinear",
        "diag_1_1_expanded",
        "diag_1_1_factored",
        "diag_p2_1_factored",
        "one_q2_vs_p2_1_expanded",
        "one_q2_vs_p2_1_factored",
    ):
        pairs = compared(T334, name)
        assert pairs, name
        assert all(got == value for got, value in pairs), name


def test_known_misprints_are_flagged():
    # the (1, q-1) corner value disagrees in both recorded variants: the exact
    # pipeline gives 0 at (3,3,4), and neither printed polynomial does
    for name in ("one_q1_vs_one_1_expanded", "one_q1_vs_one_1_factored"):
        pairs = compared(T334, name)
        assert pairs and all(got != value for got, value in pairs)
    assert compared(T334, "one_q1_vs_one_1_expanded")[0][0] == 0
    for name in ("p2_q1_vs_p2_1_expanded", "two_q1_vs_two_1_expanded"):
        assert any(got != value for got, value in compared(T334, name))


def test_fractional_variant_flagged_only_when_p_differs_from_q():
    assert all(got == value for got, value in compared(Triple(3, 3, 5), "nested_bilinear_alt"))
    assert any(got != value for got, value in compared(Triple(3, 4, 5), "nested_bilinear_alt"))


def test_mixed_pair_form_bounds_pipeline_from_above():
    # the mixed-family closed form is exact except at symmetric nested
    # parameters, where the pipeline value is strictly more negative
    pairs = compared(Triple(4, 5, 6), "mixed_pair_closed_form")
    assert pairs
    assert all(got <= value for got, value in pairs)
    assert any(got != value for got, value in pairs)


# entry -> which of its instances over range_triples(4, 5, 7) the pipeline confirms
VERDICTS = {
    "scalar_qi_minus_pj": "all",
    "nested_bilinear": "all",
    "nested_bilinear_alt": "some",
    "straddling_bilinear": "all",
    "diag_1_1_expanded": "all",
    "diag_1_1_factored": "all",
    "diag_p2_1_expanded": "all",
    "diag_p2_1_factored": "all",
    "p2_q1_vs_p2_1_expanded": "none",
    "p2_q1_vs_p2_1_factored": "all",
    "two_q1_vs_two_1_expanded": "none",
    "two_q1_vs_two_1_factored": "all",
    "one_q1_vs_one_1_expanded": "none",
    "one_q1_vs_one_1_factored": "none",
    "one_q2_vs_p2_1_expanded": "all",
    "one_q2_vs_p2_1_factored": "all",
    "two_q1_vs_p2_1_expanded": "all",
    "two_q1_vs_p2_1_factored": "all",
    "mixed_pair_closed_form": "some",
}


@pytest.fixture(scope="module")
def range_matches():
    matches = {}
    for t in range_triples(4, 5, 7):
        for entry, w1, w2, value in instances(t):
            matches.setdefault(entry, []).append(t.delta * template_linking(t, w1, w2) == value)
    return matches


@pytest.mark.parametrize("entry", VERDICTS)
def test_catalog_verdicts_over_a_range(range_matches, entry):
    assert range_matches.keys() == VERDICTS.keys()
    matches = range_matches[entry]
    verdict = "all" if all(matches) else "some" if any(matches) else "none"
    assert verdict == VERDICTS[entry]


def test_refined_bound_exhaustive_grids():
    # full grids for the three pinned triples, primitive parameter combos only
    for pqr, expected in [((3, 3, 4), 49), ((3, 4, 5), 121), ((2, 5, 7), 100)]:
        assert refined_bound_failures(Triple(*pqr)) == (expected, [])


def test_refined_bound_records_an_undercounted_pair(monkeypatch):
    # positive control: the bound is tight here, so a crossing count 2 short fails it
    import closed_forms

    def short(v, x):
        return word_crossing(v, x) - 2 * ((v, x) == ("aabab", "aabaabb"))

    monkeypatch.setattr(closed_forms, "word_crossing", short)
    assert refined_bound_failures(T334) == (
        49,
        ["cr(aabab,aabaabb) = 14 < refined lower bound 16"],
    )


def test_superadditivity_instances_deterministic():
    a = superadditivity_instances(25, seed=11)
    b = superadditivity_instances(25, seed=11)
    assert a == b and len(a) == 25
    for u, v, x in a:
        assert word_crossing(u + v, x) >= word_crossing(u, x) + word_crossing(v, x)


def test_identity_values_are_exact_fractions():
    for _, w1, w2, value in instances(T334):
        got = T334.delta * template_linking(T334, w1, w2)
        assert isinstance(got, Fraction) and isinstance(value, Fraction)

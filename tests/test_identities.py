import dataclasses
import inspect
from fractions import Fraction

import pytest

from templink.crossing import word_crossing
from templink.identities import IdentityReport, check_identities, superadditivity_instances
from templink.kneading import Triple


def by_name(report, name):
    return [r for r in report.identities if r.name == name]


@pytest.fixture(scope="module")
def report_334():
    return check_identities(Triple(3, 3, 4))


def test_hard_requirements_pass(report_334):
    assert report_334.ok
    assert report_334.bound_checked == 49 and not report_334.bound_failures


def test_check_identities_reads_only_its_triple():
    assert list(inspect.signature(check_identities).parameters) == ["t"]
    fields = [f.name for f in dataclasses.fields(IdentityReport)]
    assert fields == ["triple", "bound_checked", "bound_failures", "identities"]
    assert not IdentityReport((3, 3, 4), bound_failures=["cr(ab,ab) = 0 < 2"]).ok


@pytest.mark.parametrize("pqr", [(3, 4, 5), (2, 5, 7), (4, 5, 6)])
def test_hard_requirements_other_triples(pqr):
    rep = check_identities(Triple(*pqr))
    assert rep.ok


def test_exact_identities_match(report_334):
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
        results = by_name(report_334, name)
        assert results, name
        assert all(r.match for r in results), name


def test_known_misprints_are_flagged(report_334):
    # the (1, q-1) corner value disagrees in both recorded variants: the exact
    # pipeline gives 0 at (3,3,4), and neither printed polynomial does
    for name in ("one_q1_vs_one_1_expanded", "one_q1_vs_one_1_factored"):
        results = by_name(report_334, name)
        assert results and all(not r.match for r in results)
    got = by_name(report_334, "one_q1_vs_one_1_expanded")[0]
    assert got.pipeline == 0

    disagreeing = {r.name for r in report_334.disagreements}
    assert "p2_q1_vs_p2_1_expanded" in disagreeing
    assert "two_q1_vs_two_1_expanded" in disagreeing


def test_fractional_variant_flagged_only_when_p_differs_from_q():
    rep_eq = check_identities(Triple(3, 3, 5))
    assert all(r.match for r in by_name(rep_eq, "nested_bilinear_alt"))
    rep_ne = check_identities(Triple(3, 4, 5))
    assert any(not r.match for r in by_name(rep_ne, "nested_bilinear_alt"))


def test_mixed_pair_form_bounds_pipeline_from_above():
    # the mixed-family closed form is exact except at symmetric nested
    # parameters, where the pipeline value is strictly more negative
    rep = check_identities(Triple(4, 5, 6))
    results = by_name(rep, "mixed_pair_closed_form")
    assert results
    assert all(r.pipeline <= r.closed_form for r in results)
    assert any(not r.match for r in results)


def test_refined_bound_exhaustive_grids():
    # full grids for the three pinned triples, primitive parameter combos only
    for pqr, expected in [((3, 3, 4), 49), ((3, 4, 5), 121), ((2, 5, 7), 100)]:
        rep = check_identities(Triple(*pqr))
        assert rep.bound_checked == expected
        assert not rep.bound_failures


def test_refined_bound_records_an_undercounted_pair(monkeypatch):
    # positive control: the bound is tight here, so a crossing count 2 short fails it
    import templink.identities as identities

    def short(v, x):
        return word_crossing(v, x) - 2 * ((v, x) == ("aabab", "aabaabb"))

    monkeypatch.setattr(identities, "word_crossing", short)
    rep = check_identities(Triple(3, 3, 4))
    assert rep.bound_failures == ["cr(aabab,aabaabb) = 14 < refined lower bound 16"]
    assert rep.ok is False and rep.bound_checked == 49


def test_superadditivity_instances_deterministic():
    a = superadditivity_instances(25, seed=11)
    b = superadditivity_instances(25, seed=11)
    assert a == b and len(a) == 25
    for u, v, x in a:
        assert word_crossing(u + v, x) >= word_crossing(u, x) + word_crossing(v, x)


def test_identity_values_are_exact_fractions(report_334):
    for r in report_334.identities:
        assert isinstance(r.pipeline, Fraction) and isinstance(r.closed_form, Fraction)

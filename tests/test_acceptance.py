"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 10 asserts
that the closed-form extremal families coincide with the independent
admissible-and-cutless characterization; under the kneading table as printed
the two genuinely disagree for most triples (see the repository notes), and
the test reports the exact discrepancy rather than weakening the check.
"""

from fractions import Fraction

from closed_forms import refined_bound_failures, superadditivity_instances, surgery_linking
from templink.census import (
    enumerate_admissible,
    extremality_crosscheck,
    range_triples,
    verify_pairs,
    verify_range,
)
from templink.crossing import enumerate_cuts, is_admissible_cut, word_crossing
from templink.kneading import Triple, is_admissible, kneading
from templink.linking import homology_order, qprime_matrix, template_linking
from templink.words import CyclicWord


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {tag} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def hyperbolic_triples(p_hi, q_hi, r_hi):
    """All hyperbolic triples in the box, p = 2 with even q or r included."""
    out = []
    for p in range(2, p_hi + 1):
        for q in range(p, q_hi + 1):
            for r in range(q, r_hi + 1):
                if p * q * r - p * q - q * r - p * r >= 1:
                    out.append(Triple(p, q, r))
    return out


def test_criterion_1_scalar_linking_closed_form():
    checked = 0
    for t in range_triples(9, 9, 9, include_p2=False):
        w1 = CyclicWord("a" * (t.p - 1) + "b")
        for i in range(1, t.p):
            for j in range(1, t.q):
                w2 = CyclicWord("a" * i + "b" * j)
                lk = template_linking(t, w1, w2)
                assert t.delta * lk == t.q * i - t.p * j, (t, i, j)
                checked += 1
    _report(1, True, f"({checked} exact identities)")


def test_criterion_2_crossing_closed_forms():
    checked = 0
    for i in range(1, 9):
        for j in range(1, 9):
            w1 = "a" * i + "b" * j
            for i2 in range(i, 9):
                for j2 in range(1, 9):
                    w2 = "a" * i2 + "b" * j2
                    if i < i2 and j < j2:
                        expected = 2 * (i + j)
                    elif i <= i2 and j >= j2 and (i, j) != (i2, j2):
                        expected = 2 * (i + j2 - 1)
                    else:
                        continue
                    assert word_crossing(w1, w2) == expected, (i, j, i2, j2)
                    checked += 1
    _report(2, True, f"({checked} crossing numbers)")


def test_criterion_3_fiber_identity_and_matrix_inverse():
    triples = hyperbolic_triples(50, 50, 50)
    for t in triples:
        assert surgery_linking(t, 1, (1, 1, 1), (1, 1, 1)) == Fraction(
            t.p * t.q * t.r, t.delta
        )
        m = qprime_matrix(t)
        s = [[1 - t.p, 1, 1], [1, 1 - t.q, 1], [1, 1, 1 - t.r]]
        for i in range(3):
            for j in range(3):
                entry = sum(m[i][k] * s[k][j] for k in range(3))
                assert entry == (-t.delta if i == j else 0)
    _report(3, True, f"({len(triples)} triples, r <= 50)")


def test_criterion_4_verification_run():
    main = verify_range(4, 5, 7, include_p2=False, jobs=1)
    p2 = verify_range(2, 9, 13, jobs=1)
    ok = main.ok and p2.ok
    detail = (
        f"({len(main.triples)}+{len(p2.triples)} triples, "
        f"{main.total_pairs + p2.total_pairs} pairs, "
        f"{main.total_violations + p2.total_violations} violations, "
        f"{main.elapsed_s + p2.elapsed_s:.1f}s)"
    )
    _report(4, ok, detail)


def test_criterion_5_extended_run():
    summary = verify_range(6, 8, 10, jobs=None)
    _report(
        5,
        summary.ok,
        f"({len(summary.triples)} triples, {summary.total_pairs} pairs, "
        f"{summary.elapsed_s:.0f}s)",
    )


def test_criterion_6_small_census_negative():
    total = 0
    for pqr in [(3, 3, 4), (2, 3, 7)]:
        t = Triple(*pqr)
        words = enumerate_admissible(t, 12)
        reports = verify_pairs(t, words)
        assert all(r.negative for r in reports), pqr
        total += len(reports)
    _report(6, True, f"({total} pairs over both censuses)")


def test_criterion_7_superadditivity_and_refined_bound():
    instances = superadditivity_instances(1000, seed=2024)
    assert len(instances) >= 1000
    for u, v, x in instances:
        assert word_crossing(u + v, x) >= word_crossing(u, x) + word_crossing(v, x)
    bound_checks = 0
    for pqr in [(3, 3, 4), (3, 4, 5), (2, 5, 7)]:
        checked, failures = refined_bound_failures(Triple(*pqr))
        assert not failures, pqr
        bound_checks += checked
    _report(7, True, f"({len(instances)} cut instances, {bound_checks} bound checks)")


def test_criterion_8_positive_control():
    t = Triple(3, 3, 4)
    w = CyclicWord("aab")
    assert template_linking(t, w, w) == 1
    assert not is_admissible(w, kneading(t))
    _report(8, True, "(lk(a2b, a2b) = +1, a2b off-template)")


def test_criterion_9_homology_orders():
    assert homology_order([2, 3, 5]) == 1
    assert homology_order([2, 3, 7]) == 1
    for t in hyperbolic_triples(50, 50, 50):
        assert homology_order([t.p, t.q, t.r]) == t.delta
    _report(9, True)


def _classify_disagreements(t, family_only, independent_only):
    """Sort the words on which the two characterizations disagree into classes.

    A family-only word is either not admissible or has an admissible cut,
    which is shown as ``word=u|v``; an independent-only word is admissible
    and cutless.  A word that fits no class, such as a cutless admissible
    family word that the census dropped, is unclassified.
    """
    k = kneading(t)
    names = ("not admissible", "admissible cut", "cutless outside families", "unclassified")
    classes = {name: [] for name in names}

    def admissible_cut(w):
        return next((c for c in enumerate_cuts(w) if is_admissible_cut(c, k)), None)

    for w in sorted(family_only):
        if not is_admissible(w, k):
            classes["not admissible"].append(w)
        elif cut := admissible_cut(w):
            classes["admissible cut"].append(f"{w}={cut.u}|{cut.v}")
        else:
            classes["unclassified"].append(w)
    for w in sorted(independent_only):
        if is_admissible(w, k) and not admissible_cut(w):
            classes["cutless outside families"].append(w)
        else:
            classes["unclassified"].append(w)
    return {name: words for name, words in classes.items() if words}


def test_criterion_10_extremality_crossvalidation():
    triples = range_triples(4, 5, 7, include_p2=False) + range_triples(2, 9, 13)
    mismatches = []
    totals = {}
    for t in triples:
        family, independent = extremality_crosscheck(t, max_len=12)
        fam = {w.word for w in family}
        indep = {w.word for w in independent}
        if fam != indep:
            classes = _classify_disagreements(t, fam - indep, indep - fam)
            for name, words in classes.items():
                totals[name] = totals.get(name, 0) + len(words)
            mismatches.append(
                f"{t}: " + "; ".join(f"{name} {words}" for name, words in classes.items())
            )
    detail = f"({len(triples)} triples, {len(mismatches)} disagree"
    detail += "".join(f", {n} {name}" for name, n in totals.items()) + ")"
    if mismatches:
        detail += "\n  " + "\n  ".join(mismatches)
    _report(10, not mismatches, detail)

"""The benchmark's workloads: their inputs, the timed operation and its checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  The seed reorders inputs wherever the
API takes a list; it never changes what is computed, so one set of pinned
outputs (``expected.json``) serves every seed.

Operations run on one process.  Each workload runs at two sizes: ``full``
is what the benchmark measures and ``tiny`` warms the code paths before
timing and keeps the benchmark's own tests fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from templink import census
from templink.crossing import word_crossing
from templink.kneading import Triple
from templink.linking import q_form

# Pairs per operation re-derived with the pure-Python reference engine, drawn
# from this many sampled triples.
REFERENCE_SAMPLES = 256
TRIPLE_SAMPLES = 8


def criterion_10_triples() -> list[Triple]:
    """The 34 triples of acceptance criterion 10, in the suite's order."""
    return census.range_triples(4, 5, 7, include_p2=False) + census.range_triples(2, 9, 13)


def _key(t) -> str:
    return f"{t.p},{t.q},{t.r}"


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def reference_lk(t: Triple, w1: str, w2: str) -> Fraction:
    """Linking number from the pure-Python crossing engine and the form Q."""
    counts1 = (w1.count("a"), w1.count("b"))
    counts2 = (w2.count("a"), w2.count("b"))
    cr = word_crossing(w1, w2)
    return Fraction(-cr, 2) + Fraction(q_form(t, counts1, counts2), t.delta)


class Checks:
    """Tally of checked outputs; a check that raises counts as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, what: str, test) -> None:
        self.attempted += 1
        try:
            ok = test()
        except Exception as exc:  # a crashing check is a failed output, not a crash
            ok, what = False, f"{what}: raised {exc!r}"
        if not ok:
            self.failed += 1
            self.messages.append(what)


class RangeWorkload:
    """``census.verify_range`` over p <= 6, q <= 8, r <= 10: 94 triples, 629,947 pairs."""

    item = "pairs"
    sizes = {"full": (6, 8, 10), "tiny": (3, 4, 5)}

    def inputs(self, size: str, seed: int):
        return self.sizes[size]

    def op(self, bounds, jobs: int = 1):
        return census.verify_range(*bounds, jobs=jobs)

    def items(self, result) -> int:
        return result.total_pairs

    def digest(self, result) -> dict:
        return {
            _key(s): [s.n_words, s.n_pairs, len(s.violations), _fmt(s.worst)]
            for s in result.triples
        }

    def check(self, result, expected: dict, seed: int) -> Checks:
        checks = Checks()
        got = self.digest(result)
        checks.check("triple set", lambda: sorted(got) == sorted(expected))
        for key, want in expected.items():
            checks.check(f"triple {key}", lambda: got.get(key) == want)
        # The worst pair is re-derived rather than pinned: any pair that attains
        # the worst linking number is a correct report.
        for s in result.triples:
            t = Triple(s.p, s.q, s.r)
            if s.n_pairs:
                checks.check(
                    f"worst pair of {_key(s)} re-derived",
                    lambda: reference_lk(t, *s.worst_pair) == s.worst,
                )
        # verify_range reports summaries only, so for a few sampled triples the
        # pair engine's per-pair values are recomputed and held against both
        # the summary and the reference engine.
        rng = random.Random(seed)
        per_triple = REFERENCE_SAMPLES // TRIPLE_SAMPLES
        for s in rng.sample(result.triples, min(TRIPLE_SAMPLES, len(result.triples))):
            t = Triple(s.p, s.q, s.r)
            reports = census.verify_pairs(t, census.extremal_orbits(t))
            checks.check(
                f"{_key(s)} summary matches its pairs",
                lambda: len(reports) == s.n_pairs and max(r.lk for r in reports) == s.worst,
            )
            for r in rng.sample(reports, min(per_triple, len(reports))):
                checks.check(
                    f"{_key(s)} pair ({r.word1}, {r.word2}) re-derived",
                    lambda: word_crossing(r.word1, r.word2) == r.cr
                    and reference_lk(t, r.word1, r.word2) == r.lk,
                )
        return checks


class CrosscheckWorkload:
    """``census.extremality_crosscheck`` at length 14 over the 34 criterion-10 triples.

    The pinned outputs record the criterion-10 discrepancy as it stands: the
    check is that the program still computes it, not that it is resolved.
    """

    item = "words"
    sizes = {"full": 14, "tiny": 8}

    def inputs(self, size: str, seed: int):
        triples = criterion_10_triples()
        if size == "tiny":
            triples = triples[:3]
        random.Random(seed).shuffle(triples)
        max_len = self.sizes[size]
        # Candidates screened: every Lyndon word that has both letters.
        candidates = len(triples) * (len(census.lyndon_words(max_len)) - 2)
        return triples, max_len, candidates

    def op(self, inputs):
        triples, max_len, candidates = inputs
        out = [(t, *census.extremality_crosscheck(t, max_len=max_len)) for t in triples]
        return out, candidates

    def items(self, result) -> int:
        return result[1]

    def digest(self, result) -> dict:
        return {
            _key(t): {
                "family": sorted(w.word for w in family),
                "independent": sorted(w.word for w in independent),
            }
            for t, family, independent in result[0]
        }

    def check(self, result, expected: dict, seed: int) -> Checks:
        checks = Checks()
        got = self.digest(result)
        checks.check("triple set", lambda: sorted(got) == sorted(expected))
        for key, want in expected.items():
            for part in ("family", "independent"):
                checks.check(
                    f"{key} {part}", lambda: got.get(key, {}).get(part) == want[part]
                )
        return checks


WORKLOADS = {
    "extremal-range": RangeWorkload(),
    "census-crosscheck": CrosscheckWorkload(),
}


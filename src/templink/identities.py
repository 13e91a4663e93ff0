"""Closed-form linking identities used as pipeline cross-checks.

Each catalog entry produces instances ``(label, word1, word2, closed_form)``
for a given parameter triple, the value being delta * lk of the two orbit
words; :func:`check_identities` re-derives it through the exact
crossing-plus-form pipeline and records agreement, next to a hard check of
the refined crossing lower bound.  :func:`superadditivity_instances` samples
the cut instances of superadditivity, a check that reads no triple.

Some quantities are recorded in two circulating variants that differ by sign
or coefficient slips; both are kept and the checker reports, never assumes,
which variant the exact pipeline confirms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from .crossing import enumerate_cuts, word_crossing
from .kneading import Triple
from .linking import template_linking
from .words import canonicalize

# Instance of one identity: label, the two words, the closed-form value.
Instance = tuple[str, str, str, Fraction]


def _syl(i: int, j: int) -> str:
    return "a" * i + "b" * j


def _scalar(t: Triple) -> Iterator[Instance]:
    p, q = t.p, t.q
    w1 = t.syllables[0]
    for i in range(1, p):
        for j in range(1, q):
            yield f"i={i},j={j}", w1, _syl(i, j), Fraction(q * i - p * j)


def _nested_range(t: Triple):
    p, q = t.p, t.q
    for i in range(1, p):
        for i2 in range(i + 1, p):
            for j in range(1, q):
                for j2 in range(j + 1, q):
                    yield i, j, i2, j2


def _nested_bilinear(t: Triple) -> Iterator[Instance]:
    p, q, r = t.p, t.q, t.r
    for i, j, i2, j2 in _nested_range(t):
        val = -(i * (q * r - q - r) - j * r) * (p - i2) - (
            j * (p * r - p - r) - i * r
        ) * (q - j2)
        yield f"i={i},j={j},i'={i2},j'={j2}", _syl(i, j), _syl(i2, j2), Fraction(val)


def _nested_bilinear_alt(t: Triple) -> Iterator[Instance]:
    # variant with a q where the exact form has a p in the second factor
    p, q, r = t.p, t.q, t.r
    for i, j, i2, j2 in _nested_range(t):
        first = -Fraction(i * q * r) * (
            1 - Fraction(1, q) - Fraction(1, r) - Fraction(j, i * q)
        ) * (p - i2)
        second = -Fraction(j * p * r) * (
            1 - Fraction(1, p) - Fraction(1, r) - Fraction(i, j * q)
        ) * (q - j2)
        yield f"i={i},j={j},i'={i2},j'={j2}", _syl(i, j), _syl(i2, j2), first + second


def _straddling_bilinear(t: Triple) -> Iterator[Instance]:
    p, q, r = t.p, t.q, t.r
    d = t.delta
    for i in range(1, p):
        for i2 in range(i, p):
            for j in range(1, q):
                for j2 in range(1, j + 1):
                    val = (
                        -((q * r - q - r) * i - r * j2) * (p - i2)
                        - ((p * r - p - r) * j2 - r * i) * (q - j)
                        - r * (i2 - i) * (j - j2)
                        + d
                    )
                    yield (
                        f"i={i},j={j},i'={i2},j'={j2}",
                        _syl(i, j),
                        _syl(i2, j2),
                        Fraction(val),
                    )


def _corner(name, point, expanded, factored, applicable):
    """Two catalog entries (expanded and factored polynomial) for one corner point.

    ``point``, the two polynomials and ``applicable`` are functions of (p, q, r).
    """

    def make(formula):
        def gen(t: Triple) -> Iterator[Instance]:
            pqr = (t.p, t.q, t.r)
            if not applicable(*pqr):
                return
            i, j, i2, j2 = point(*pqr)
            yield f"i={i},j={j},i'={i2},j'={j2}", _syl(i, j), _syl(i2, j2), Fraction(
                formula(*pqr)
            )

        return gen

    return {f"{name}_expanded": make(expanded), f"{name}_factored": make(factored)}


def _mixed_pair(t: Triple) -> Iterator[Instance]:
    if t.p < 3:
        return
    p, q = t.p, t.q
    d = t.delta
    kmax = t.max_repeats
    P, Q = t.syllables
    for k in range(1, kmax + 1):
        for l in range(1, kmax + 1):
            for k2 in range(1, kmax + 1):
                for l2 in range(1, kmax + 1):
                    val = (p * q - p - q) * (k - l) * (k2 - l2) - d * (
                        min(k, k2) + min(l, l2) - 1
                    )
                    yield (
                        f"k={k},l={l},k'={k2},l'={l2}",
                        P * k + Q * l,
                        P * k2 + Q * l2,
                        Fraction(val),
                    )


# identity name -> its instance generator
CATALOG: dict[str, Callable[[Triple], Iterator[Instance]]] = {
    "scalar_qi_minus_pj": _scalar,
    "nested_bilinear": _nested_bilinear,
    "nested_bilinear_alt": _nested_bilinear_alt,
    "straddling_bilinear": _straddling_bilinear,
    **_corner(
        "diag_1_1",
        lambda p, q, r: (1, 1, 1, 1),
        lambda p, q, r: -p * q * r + p * q + 2 * p * r + 2 * q * r - p - q - 4 * r,
        lambda p, q, r: -(p - 2) * (q - 2) * (r - 2) - (p - 3) * (q - 3) + 1,
        lambda p, q, r: True,
    ),
    **_corner(
        "diag_p2_1",
        lambda p, q, r: (p - 2, 1, p - 2, 1),
        lambda p, q, r: -p * q * r + 2 * p * q + p * r + 2 * q * r - p - 4 * q - r,
        lambda p, q, r: -(p - 2) * (q - 2) * (r - 2) - (p - 3) * (r - 3) + 1,
        lambda p, q, r: p >= 3,
    ),
    **_corner(
        "p2_q1_vs_p2_1",
        lambda p, q, r: (p - 2, q - 1, p - 2, 1),
        lambda p, q, r: -p * q * r + p * q + p * r + 3 * q * r + p - 4 * q - r,
        lambda p, q, r: -(p - 3) * (q - 1) * (r - 2) - (p - 2) * (q - 3),
        lambda p, q, r: p >= 3,
    ),
    **_corner(
        "two_q1_vs_two_1",
        lambda p, q, r: (2, q - 1, 2, 1),
        lambda p, q, r: -p * q * r + p * q + p * r + 3 * q * r + p - 4 * q - r,
        lambda p, q, r: -(p - 3) * (q - 1) * (r - 2) - (p - 2) * (q - 3),
        lambda p, q, r: p >= 3,
    ),
    **_corner(
        "one_q1_vs_one_1",
        lambda p, q, r: (1, q - 1, 1, 1),
        lambda p, q, r: p * r + 2 * p - q + 2 * r,
        lambda p, q, r: -(p - 2) * (r - 2) - q + 4,
        lambda p, q, r: True,
    ),
    **_corner(
        "one_q2_vs_p2_1",
        lambda p, q, r: (1, q - 2, p - 2, 1),
        lambda p, q, r: -p * q + 2 * p + 2 * q - r,
        lambda p, q, r: -(p - 2) * (q - 2) - r + 4,
        lambda p, q, r: p >= 3 and q >= 3,
    ),
    **_corner(
        "two_q1_vs_p2_1",
        lambda p, q, r: (2, q - 1, p - 2, 1),
        lambda p, q, r: -p * q - q * r + p + 4 * q + r,
        lambda p, q, r: -(q - 1) * (p + r - 4) + 4,
        lambda p, q, r: p >= 4,
    ),
    "mixed_pair_closed_form": _mixed_pair,
}


@dataclass(frozen=True)
class IdentityResult:
    """One closed-form comparison: exact pipeline value vs catalog value.

    Values are delta * lk, computed through the crossing-plus-form pipeline
    on one side and the cataloged polynomial on the other.
    """

    name: str
    label: str
    pipeline: Fraction
    closed_form: Fraction

    @property
    def match(self) -> bool:
        return self.pipeline == self.closed_form


@dataclass
class IdentityReport:
    """Outcome of the refined lower bound and the catalog for one triple.

    The refined crossing lower bound is the hard requirement (``ok``); the
    identity comparisons are informational and mismatching variants are
    listed in ``disagreements`` rather than failing the report.
    """

    triple: tuple[int, int, int]
    bound_checked: int = 0
    bound_failures: list[str] = field(default_factory=list)
    identities: list[IdentityResult] = field(default_factory=list)

    @property
    def disagreements(self) -> list[IdentityResult]:
        return [r for r in self.identities if not r.match]

    @property
    def ok(self) -> bool:
        return not self.bound_failures


def _repeat_block_words(t: Triple) -> list[tuple[int, int, int, str]]:
    """(k, i, j, word) for the primitive words (a^(p-1)b)^k a^i b^j in range."""
    p, q = t.p, t.q
    P = t.syllables[0]
    out = []
    for k in range(t.max_repeats + 1):
        for i in range(1, p):
            for j in range(1, q):
                if (i, j) == (p - 1, 1) and k >= 1:
                    continue  # (a^(p-1)b)^(k+1) is a power, not an orbit code
                out.append((k, i, j, P * k + _syl(i, j)))
    return out


def _check_refined_bound(t: Triple, report: IdentityReport) -> None:
    # cr((a^(p-1)b)^k a^i b^j, (a^(p-1)b)^k' a^i' b^j') >=
    #   k k' cr(P,P) + k cr(P, s') + k' cr(P, s) + cr(s, s') + 2 min(k, k')
    P = t.syllables[0]
    words = _repeat_block_words(t)
    cr_pp = word_crossing(P, P)
    # k = 0 lists every tail a^i b^j once
    cr_p = {(i, j): word_crossing(P, w) for k, i, j, w in words if k == 0}
    for k, i, j, w1 in words:
        for k2, i2, j2, w2 in words:
            lower = (
                k * k2 * cr_pp
                + k * cr_p[(i2, j2)]
                + k2 * cr_p[(i, j)]
                + word_crossing(_syl(i, j), _syl(i2, j2))
                + 2 * min(k, k2)
            )
            report.bound_checked += 1
            got = word_crossing(w1, w2)
            if got < lower:
                report.bound_failures.append(
                    f"cr({w1},{w2}) = {got} < refined lower bound {lower}"
                )


def superadditivity_instances(samples: int, seed: int) -> list[tuple[str, str, str]]:
    """Seeded random (u, v, probe) cut instances for the superadditivity check:
    up to three cuts of each random word of length 4 to 14, each against a
    random probe of length 1 to 10."""
    rng = random.Random(seed)
    out: list[tuple[str, str, str]] = []
    while len(out) < samples:
        n = rng.randint(4, 14)
        raw = "".join(rng.choice("ab") for _ in range(n))
        if "a" not in raw or "b" not in raw:
            continue
        root, _ = canonicalize(raw)
        cuts = enumerate_cuts(root)
        rng.shuffle(cuts)
        for cut in cuts[:3]:
            probe = "".join(rng.choice("ab") for _ in range(rng.randint(1, 10)))
            out.append((cut.u, cut.v, probe))
            if len(out) >= samples:
                break
    return out


def check_identities(t: Triple) -> IdentityReport:
    """The refined crossing lower bound and the closed-form identity catalog for one triple."""
    report = IdentityReport(triple=(t.p, t.q, t.r))
    _check_refined_bound(t, report)
    for name, instances in CATALOG.items():
        for label, w1, w2, value in instances(t):
            report.identities.append(
                IdentityResult(
                    name=name,
                    label=label,
                    pipeline=t.delta * template_linking(t, w1, w2),
                    closed_form=value,
                )
            )
    return report

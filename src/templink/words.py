"""Cyclic binary words and eventually periodic sequences over the alphabet {a, b}.

A periodic orbit of a two-ribbon template is coded by a primitive cyclic word
over the ribbon labels ``a`` and ``b`` (left ribbon before right ribbon, so
``a < b``).  Its successive returns to the branch line are the shifts of the
purely periodic sequence ``w^inf``; kneading bounds are eventually periodic
sequences.  Everything here is an immutable value and safe to share.

Serialization: a cyclic word is the ASCII string of its least rotation over
``{a, b}``, and every engine takes it as a plain ``str``;
sequences use the ``"preperiod|period"`` format (the preperiod may be empty,
e.g. ``"|ab"`` for ``(ab)^inf``).

Horizon lemma.  Two eventually periodic sequences with preperiods m, m' and
periods l, l' that agree on max(m, m') + l + l' letters are equal.  Proof:
past max(m, m') both are purely periodic, and two periodic sequences with
periods l and l' that agree on l + l' - gcd(l, l') letters are equal
(Fine-Wilf).  So prefixes of at least that many letters differ exactly when
the sequences do, at the same first letter, and compare as plain strings
exactly as the sequences do, equality included.  Every engine that compares
shifts through fixed-length prefixes states its horizon and cites this
lemma.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHABET = "ab"

# Comparison outcomes, mirroring cmp()-style conventions.
LESS, EQUAL, GREATER = -1, 0, 1


def _check_letters(s: str, what: str = "word") -> None:
    if s.strip(ALPHABET):
        ch = next(ch for ch in s if ch not in ALPHABET)
        raise ValueError(f"{what} may only contain letters 'a' and 'b', got {ch!r}")


def primitive_root(s: str) -> tuple[str, int]:
    """Split ``s`` into (root, power) with ``s == root * power`` and root primitive.

    Uses the classical doubling trick: the least offset at which ``s`` occurs
    in ``s + s`` is the least period, and it divides ``len(s)``.
    """
    if not s:
        raise ValueError("empty word has no primitive root")
    d = (s + s).find(s, 1)
    return s[:d], len(s) // d


class CyclicWord(str):
    """A primitive cyclic word: the string of its least rotation.

    The constructor accepts any rotation and canonicalizes it; proper powers
    are rejected since they code the same orbit as their root (use
    :func:`canonicalize` to split a power into root and exponent).  Being a
    ``str``, it goes wherever a word does; ``.word`` is the plain string.
    """

    __slots__ = ()

    def __new__(cls, word: str) -> "CyclicWord":
        _check_letters(word)
        root, power = primitive_root(word)
        if power != 1:
            raise ValueError(
                f"{word!r} is the {power}-th power of {root!r}; "
                "cyclic words store primitive roots only"
            )
        # the least rotation by a direct scan of the doubled word: words are short
        ww, n = word + word, len(word)
        return super().__new__(cls, min(ww[i : i + n] for i in range(n)))

    @property
    def word(self) -> str:
        return str(self)


def canonicalize(raw: str) -> tuple[CyclicWord, int]:
    """Primitive root of ``raw`` in least rotation, plus the power it was raised to.

    >>> canonicalize("ba")
    ('ab', 1)
    >>> canonicalize("abab")
    ('ab', 2)
    """
    root, power = primitive_root(raw)
    return CyclicWord(root), power


@dataclass(frozen=True)
class PeriodicSequence:
    """An eventually periodic one-sided infinite sequence ``preperiod . period^inf``.

    Stored in normal form: the period is primitive and the preperiod is as
    short as possible (its last letter differs from the period's last letter),
    so structural equality coincides with letterwise equality of sequences.
    """

    preperiod: str
    period: str

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        _check_letters(self.preperiod, "preperiod")
        _check_letters(self.period, "period")
        per, _ = primitive_root(self.period)
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            per = per[-1] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def __str__(self) -> str:
        return f"{self.preperiod}|{self.period}"

    def prefix(self, n: int) -> str:
        """The first ``n`` letters."""
        return (self.preperiod + self.period * (n // len(self.period) + 1))[:n]


def compare(s: PeriodicSequence, t: PeriodicSequence) -> int:
    """Lexicographic comparison (a < b); returns -1, 0 or 1.

    The horizon, both preperiods plus both periods, is at least the horizon
    lemma's (module docstring), so EQUAL means identical sequences.
    """
    horizon = len(s.preperiod) + len(t.preperiod) + len(s.period) + len(t.period)
    a, b = s.prefix(horizon), t.prefix(horizon)
    if a < b:
        return LESS
    if a > b:
        return GREATER
    return EQUAL

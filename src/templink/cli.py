"""Command-line surface: linking, crossings, censuses and verification runs.

Exit codes: 0 on success (for ``verify``: all pairs negative), 1 when a
verification finds a non-negative pair, 2 on usage or domain errors and on
an ``--out`` path that cannot be written, which is refused before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census
from .crossing import Cut, enumerate_cuts, word_crossing
from .kneading import Triple, is_admissible, kneading
from .linking import homology_order, template_linking
from .words import canonicalize

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2

# Longest word accepted: engine cost grows with its square.  On a 2-vCPU KVM guest `cr w w` on a
# random word took 0.25-0.29 s / 32 MB peak RSS at 2,000 letters and 1.0-1.1 s / 78 MB at 4,000,
# `cuts` 0.11-0.15 s / 28 MB on a random 4,000-letter word with 989 cuts and 2.5 s / 64 MB on
# a^2000 b^2000, whose 3,999 cuts print 16 M letters; word_crossing at 20,000 letters would hold
# 1.6 G characters of shift prefixes.
MAX_WORD_LEN = 4_096

# Most pairs single-triple `verify` reports: it holds every report as a record, a table of cells
# and the rendered text at once.  On a 2-vCPU KVM guest (3, 3, 46), 165,025 pairs, peaked at
# 441 MB with --format json, and 632 words of 325 letters, 199,396 pairs at the letter budget,
# at 766 MB (json) and 851 MB (text); 707 words of 300 letters, 249,778 pairs, reached 1,005 MB.
MAX_REPORT_PAIRS = 200_000

# Most `violation:` lines single-triple `verify` writes to stderr; the report holds them all.
MAX_VIOLATION_LINES = 10


def _parse_word(text: str) -> str:
    if len(text) > MAX_WORD_LEN:
        raise ValueError(f"word of {len(text):,} letters exceeds the limit of {MAX_WORD_LEN:,}")
    root, _ = canonicalize(text)  # powers code the same orbit as their root
    return root


def _triple(args) -> Triple:
    return Triple(args.p, args.q, args.r)


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, without creating or truncating it."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise OSError(f"cannot write --out {path}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _render(rows: list[dict], fmt: str, doc=None, fields=()) -> str:
    """The one output path: records as CSV, aligned text or JSON.

    CSV and text show ``rows``, one record per line under a header of
    ``fields`` (by default the first row's keys, so an empty list has a header
    only when given its fields); text drops the header of a one-column list and
    appends the scalar fields of ``doc``.  JSON shows ``doc``, which defaults
    to the rows.
    """
    if fmt == "json":
        return json.dumps(rows if doc is None else doc, indent=2) + "\n"
    header = list(fields) or list(rows[0] if rows else ())
    table = [header] if header else []
    table += [[_cell(v) for v in row.values()] for row in rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in table)
    if table and len(table[0]) == 1:
        table = table[1:]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in table]
    if isinstance(doc, dict):
        lines += [f"{k}: {_cell(v)}" for k, v in doc.items() if not isinstance(v, list)]
    return "".join(line + "\n" for line in lines)


def _cmd_lk(args) -> int:
    t = _triple(args)
    w1, w2 = _parse_word(args.word1), _parse_word(args.word2)
    print(template_linking(t, w1, w2))
    return EXIT_OK


def _cmd_cr(args) -> int:
    w1, w2 = _parse_word(args.word1), _parse_word(args.word2)
    print(word_crossing(w1, w2))
    return EXIT_OK


def _cmd_admissible(args) -> int:
    k = kneading(_triple(args))
    for text in args.words:
        w = _parse_word(text)
        print(f"{w} {str(is_admissible(w, k)).lower()}")
    return EXIT_OK


def _emit_words(words: list[str], args) -> int:
    _emit(_render([{"word": w} for w in words], args.format, words, ["word"]), args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    return _emit_words(census.enumerate_admissible(_triple(args), args.max_len), args)


def _cmd_extremal(args) -> int:
    return _emit_words(census.extremal_orbits(_triple(args)), args)


def _cmd_cuts(args) -> int:
    cuts = enumerate_cuts(_parse_word(args.word))
    if args.format == "text":
        text = "".join(f"{c.u}|{c.v} (rotation {c.rotation}, split {c.split})\n" for c in cuts)
    else:
        text = _render([c._asdict() for c in cuts], args.format, fields=Cut._fields)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    k = kneading(_triple(args))
    for name in ("u_L", "u_R", "v_L", "v_R"):
        print(f"{name} = {getattr(k, name)}")
    return EXIT_OK


def _cmd_homology(args) -> int:
    print(homology_order(args.orders))
    return EXIT_OK


def _verify_single(args) -> int:
    t = _triple(args)
    if args.words:
        words = list(dict.fromkeys(_parse_word(w) for w in args.words))
    else:
        census.check_family_bound(t.p, t.q, t.r)
        words = census.extremal_orbits(t)
    census.check_letter_budget(words)  # the ranking's own refusal, given before the report limit's
    pairs = len(words) * (len(words) + 1) // 2
    if pairs > MAX_REPORT_PAIRS:
        raise ValueError(
            f"{len(words):,} words make {pairs:,} pair reports, "
            f"over the report limit of {MAX_REPORT_PAIRS:,}"
        )
    reports = census.verify_pairs(t, words)
    summary = census.summarize(t, reports)
    rows = [r.as_dict() for r in reports]
    _emit(_render(rows, args.format, {**summary.as_dict(), "reports": rows}), args.out)
    shown = summary.violations[:MAX_VIOLATION_LINES]
    if shown:
        count = len(summary.violations)
        print(f"violations: {count:,} ({len(shown)} listed below)", file=sys.stderr)
    for r in shown:
        print(f"violation: lk({r.word1},{r.word2}) = {r.lk} >= 0", file=sys.stderr)
    return EXIT_OK if summary.ok else EXIT_VIOLATION


def _verify_over_range(args) -> int:
    summary = census.verify_range(
        args.p_max, args.q_max, args.r_max, include_p2=not args.no_p2, jobs=args.jobs
    )
    doc = summary.as_dict()
    _emit(_render(doc["triples"], args.format, doc), args.out)
    return EXIT_OK if summary.ok else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    # each mode is chosen by any of its three flags, so flags of both modes are refused
    single, bounds = (args.p, args.q, args.r), (args.p_max, args.q_max, args.r_max)
    range_mode = bounds != (None, None, None)
    if range_mode == (single != (None, None, None)):
        raise ValueError("verify needs either --p/--q/--r or --p-max/--q-max/--r-max")
    if range_mode:
        if None in bounds:
            raise ValueError("range mode needs --p-max, --q-max and --r-max")
        if args.words:
            raise ValueError("explicit words only make sense with a single triple")
        return _verify_over_range(args)
    if None in single:
        raise ValueError("single-triple mode needs --p, --q and --r")
    if args.no_p2:
        raise ValueError("--no-p2 only makes sense in range mode")
    if args.jobs is not None:
        raise ValueError("--jobs only makes sense in range mode")
    return _verify_single(args)


def _add_triple_flags(sp, required: bool = True) -> None:
    sp.add_argument("--p", type=int, required=required)
    sp.add_argument("--q", type=int, required=required)
    sp.add_argument("--r", type=int, required=required)


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templink",
        description="Exact crossing and linking numbers of two-ribbon template orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lk", help="linking number of two orbits on the (p,q,r)-template")
    _add_triple_flags(sp)
    sp.add_argument("word1")
    sp.add_argument("word2")
    sp.set_defaults(func=_cmd_lk)

    sp = sub.add_parser("cr", help="crossing number of two orbit words (template-free)")
    sp.add_argument("word1")
    sp.add_argument("word2")
    sp.set_defaults(func=_cmd_cr)

    sp = sub.add_parser("admissible", help="test words against the kneading bounds")
    _add_triple_flags(sp)
    sp.add_argument("words", nargs="+")
    sp.set_defaults(func=_cmd_admissible)

    sp = sub.add_parser("enumerate", help="all admissible orbits up to a length bound")
    _add_triple_flags(sp)
    sp.add_argument("--max-len", type=int, required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("extremal", help="the extremal orbits of the (p,q,r)-template")
    _add_triple_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_extremal)

    sp = sub.add_parser("cuts", help="all cuts of a cyclic word (template-free)")
    sp.add_argument("word")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_cuts)

    sp = sub.add_parser(
        "verify",
        help="check negativity of all orbit pairs (extremal by default)",
    )
    _add_triple_flags(sp, required=False)
    sp.add_argument("--p-max", type=int, default=None)
    sp.add_argument("--q-max", type=int, default=None)
    sp.add_argument("--r-max", type=int, default=None)
    sp.add_argument("--no-p2", action="store_true", help="skip the p = 2 families in range mode")
    sp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="at most N worker processes in range mode, never more than the usable "
        "processors or the triples (default: one per processor)",
    )
    sp.add_argument("words", nargs="*", help="explicit orbit words (single-triple mode)")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("table", help="print the four kneading sequences of (p,q,r)")
    _add_triple_flags(sp)
    sp.set_defaults(func=_cmd_table)

    text = "order of H_1 for an n-conic sphere, n >= 3 (0: H_1 is infinite)"
    sp = sub.add_parser("homology", help=text, description=text)
    sp.add_argument("orders", type=int, nargs="+")
    sp.set_defaults(func=_cmd_homology)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

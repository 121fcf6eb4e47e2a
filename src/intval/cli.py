"""Batch command-line front end.

Three subcommands:

    integrate   refine a piecewise function's unit-interval integral until
                the enclosure width reaches a target, emitting one row per
                level of lebesgue.refine (n, lo, hi, width) as JSON or CSV
    eval        evaluate a valuation literal against a test function
    laws        run the law suites and print a pass/fail table

All numbers in reports are exact rational strings, past Python's 4300-digit
str() limit too (algebra.decimal_str); an optional --approx-decimals
column, with at most literals.MAX_DIGITS digits after the point, adds
clearly-labeled decimal approximations.
Output is deterministic given the inputs and seed, byte for byte.
The law suites, the csv module and the poset and valuation modules that
only eval needs are imported by the code that uses them, and integrate
and eval compute on int pairs, down to the rounding of --approx-decimals,
so an integrate run loads none of them, an eval run only the last two,
and neither loads fractions.

Exit codes: 0 success; 1 usage, parse or validation failure (one 'error:'
line from main, with a line/column diagnostic where available); 2 width target
not reached by the depth cap (the partial table is still emitted); 3 law
violation (the counterexample is printed).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from typing import List, Optional

from .algebra import ExtNonNeg, decimal_str, render_scalar, width
from .errors import DepthCapExceeded, IntvalError, LiteralTooLarge, ParseError
from .lebesgue import DEFAULT_DEPTH_CAP, canonical_extension, refine
from .literals import (
    MAX_DIGITS,
    parse_fn,
    parse_piecewise,
    parse_poset,
    parse_valuation,
    rational_pair,
)

# Largest --depth-cap accepted; canonical extensions take closed-form levels
# at any depth, so it bounds the table's length rather than the work.
MAX_DEPTH_CAP = 30


def _read_spec(arg: str, keyword: str) -> str:
    """The argument if it is an inline literal (after leading whitespace, the
    keyword then whitespace or '{'), else the contents of the file it names."""
    if re.match(rf"\s*{keyword}[\s{{]", arg):
        return arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        # ValueError: a path with a NUL byte, or contents that are not UTF-8
        raise IntvalError(f"cannot read {arg!r}: {exc}") from None


def _approx(value: ExtNonNeg, decimals: int) -> str:
    """Decimal approximation, round half to even, clearly not exact."""
    if value.is_infinite:
        return "inf"
    # round() of the Fraction, on the reduced pair: up past half, or at half when odd
    q, r = divmod(value._n * 10 ** decimals, value._d)
    if 2 * r > value._d or (2 * r == value._d and q & 1):
        q += 1
    text = decimal_str(q).rjust(decimals + 1, "0")
    if decimals == 0:
        return text
    return f"{text[:-decimals]}.{text[-decimals:]}"


def _csv(rows: List[list]) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _parse_eps(text: str) -> ExtNonNeg:
    """A positive rational written p or p/q, as in the literals."""
    try:
        num, den = rational_pair(text)
    except LiteralTooLarge as exc:
        raise IntvalError(f"--eps: {exc}") from None
    except ParseError:
        num = 0
    if not num:
        raise IntvalError(
            f"--eps must be a positive rational written p or p/q, got {text!r}"
        )
    return ExtNonNeg._make(num, den)


def cmd_integrate(args) -> int:
    eps = _parse_eps(args.eps)
    if not 0 <= args.depth_cap <= MAX_DEPTH_CAP:
        raise IntvalError(f"--depth-cap must lie in [0, {MAX_DEPTH_CAP}]")
    decimals = args.approx_decimals
    if decimals is not None and decimals < 0:
        raise IntvalError("--approx-decimals must be >= 0")
    if decimals is not None and decimals > MAX_DIGITS:
        raise IntvalError(f"--approx-decimals must be <= {MAX_DIGITS}")
    fn = parse_piecewise(_read_spec(args.fn, "piecewise"))
    rows = []
    try:
        for n, enclosure in refine(canonical_extension(fn), eps, cap=args.depth_cap):
            row = {
                "n": n,
                "lo": render_scalar(enclosure.lo),
                "hi": render_scalar(enclosure.hi),
                "width": render_scalar(width(enclosure)),
            }
            if decimals is not None:
                row["lo_approx"] = _approx(enclosure.lo, decimals)
                row["hi_approx"] = _approx(enclosure.hi, decimals)
            rows.append(row)
        converged, depth = True, n
    except DepthCapExceeded as exc:
        converged, depth = False, exc.depth
    if args.format == "csv":
        sys.stdout.write(_csv([list(rows[0])] + [list(row.values()) for row in rows]))
    else:
        sys.stdout.write(json.dumps({"rows": rows, "converged": converged, "depth": depth}) + "\n")
    return 0 if converged else 2


def cmd_eval(args) -> int:
    from .spaces import MonotoneMap
    from .valuations import ElementaryValuation, evaluate

    space = parse_poset(_read_spec(args.poset, "poset"))
    terms, val_algebra = parse_valuation(_read_spec(args.val, "val"))
    _, table, fn_algebra = parse_fn(_read_spec(args.fn, "fn"))
    if val_algebra is not fn_algebra:
        raise IntvalError(
            "valuation coefficients and function values use different algebras"
        )
    nu = ElementaryValuation(space, terms, val_algebra)
    rendered = val_algebra.render(evaluate(nu, MonotoneMap(space, table, fn_algebra)))
    if args.format == "csv":
        sys.stdout.write(_csv([["value"], [rendered]]))
    else:
        sys.stdout.write(json.dumps({"value": rendered}) + "\n")
    return 0


def cmd_laws(args) -> int:
    if args.cases is not None and args.cases < 1:
        raise IntvalError("--cases must be >= 1")
    from .laws import run_all

    results = run_all(seed=args.seed, cases=args.cases)
    failed = [r for r in results if not r.passed]
    if args.format == "csv":
        table = [[r.family, r.cases, r.failures, "yes" if r.passed else "no"] for r in results]
        sys.stdout.write(_csv([["family", "cases", "failures", "passed"]] + table))
    elif args.format == "json":
        families = [
            {
                "family": r.family,
                "cases": r.cases,
                "failures": r.failures,
                "counterexample": r.counterexample,
            }
            for r in results
        ]
        doc = {"families": families, "passed": not failed}
        sys.stdout.write(json.dumps(doc) + "\n")
    else:
        name_w = max(len(r.family) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            sys.stdout.write(f"{r.family.ljust(name_w)}  {r.cases:>8} cases  {status}\n")
    if args.format != "json":
        for r in failed:
            sys.stdout.write(f"counterexample ({r.family}): {r.counterexample}\n")
    return 3 if failed else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so main reports them
    as it reports every other input error: one 'error:' line, exit 1."""

    def error(self, message: str):
        raise IntvalError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="intval",
        description="Exact interval-valued valuations and guaranteed-enclosure integration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="enclose a unit-interval integral")
    p_int.add_argument("--fn", required=True, help="piecewise literal or path to one")
    p_int.add_argument("--eps", default="1/1024", help="target enclosure width (rational)")
    cap_help = f"deepest refinement level, 0 to {MAX_DEPTH_CAP} (default {DEFAULT_DEPTH_CAP})"
    p_int.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP, help=cap_help)
    p_int.add_argument("--format", choices=("json", "csv"), default="json")
    p_int.add_argument(
        "--approx-decimals", type=int, default=None,
        help=f"add decimal columns with 0 to {MAX_DIGITS} digits after the point",
    )
    p_int.set_defaults(run=cmd_integrate)

    p_eval = sub.add_parser("eval", help="evaluate a valuation on a test function")
    p_eval.add_argument("--poset", required=True, help="poset literal or path")
    p_eval.add_argument("--val", required=True, help="valuation literal or path")
    p_eval.add_argument("--fn", required=True, help="fn literal or path")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(run=cmd_eval)

    p_laws = sub.add_parser("laws", help="run the algebraic law suites")
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument(
        "--cases", type=int, default=None,
        help="randomized draws per law family (default: each family's own count); "
        "lebesgue-chain reads it as its depth, capped at 12. "
        "The exhaustive cases always run",
    )
    p_laws.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_laws.set_defaults(run=cmd_laws)

    return parser


# The parser main reuses, built on its first call rather than at import.
# parse_args keeps nothing between calls: each returns a fresh Namespace
# filled from the defaults fixed in build_parser.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.run(args)
    except (IntvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

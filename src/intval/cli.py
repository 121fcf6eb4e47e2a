"""Batch command-line front end.

Three subcommands:

    integrate   refine a piecewise function's unit-interval integral until
                the enclosure width reaches a target, emitting one row per
                depth (n, lo, hi, width) as JSON or CSV
    eval        evaluate a valuation literal against a test function
    laws        run the law suites and print a pass/fail table

All numbers in reports are exact rational strings; an optional
--approx-decimals column adds clearly-labeled decimal approximations.
Output is deterministic given the inputs and seed, byte for byte.

Exit codes: 0 success; 1 parse/validation failure (with a line/column
diagnostic where available); 2 width target not reached by the depth cap
(the partial table is still emitted); 3 law violation (the counterexample
is printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional

from .algebra import ZERO, ExtNonNeg, render_scalar, width
from .errors import IntvalError, ParseError
from .lebesgue import DEFAULT_DEPTH_CAP, canonical_extension, lebesgue_n
from .literals import (
    parse_fn,
    parse_piecewise,
    parse_poset,
    parse_rational,
    parse_valuation,
)
from .spaces import MonotoneMap
from .valuations import ElementaryValuation, evaluate
from . import laws as law_suites


def _read_spec(arg: str, keyword: str) -> str:
    """Accept either an inline literal or a path to a file holding one."""
    if arg.lstrip().startswith(keyword):
        return arg
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IntvalError(f"cannot read {arg!r}: {exc}") from None


def _approx(value: ExtNonNeg, decimals: int) -> str:
    """Decimal approximation, round half to even, clearly not exact."""
    if value.is_infinite:
        return "inf"
    scaled = value.value * 10 ** decimals
    num, den = int(scaled.numerator), int(scaled.denominator)
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    text = str(q).rjust(decimals + 1, "0")
    if decimals == 0:
        return text
    return f"{text[:-decimals]}.{text[-decimals:]}"


def _emit_rows(rows: List[dict], columns: List[str], fmt: str, extra: dict) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
        return buf.getvalue()
    doc = {"rows": rows}
    doc.update(extra)
    return json.dumps(doc) + "\n"


def _parse_eps(text: str) -> ExtNonNeg:
    """A positive rational written p or p/q, as in the literals."""
    try:
        eps = ExtNonNeg(parse_rational(text))
    except ParseError:
        eps = ZERO
    if eps.is_zero:
        raise IntvalError(
            f"--eps must be a positive rational written p or p/q, got {text!r}"
        )
    return eps


def cmd_integrate(args) -> int:
    try:
        fn = parse_piecewise(_read_spec(args.fn, "piecewise"))
        eps = _parse_eps(args.eps)
        if not 0 <= args.depth_cap <= 30:
            raise IntvalError("--depth-cap must lie in [0, 30]")
        if args.approx_decimals is not None and args.approx_decimals < 0:
            raise IntvalError("--approx-decimals must be >= 0")
    except (IntvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    h = canonical_extension(fn)
    rows = []
    converged = False
    depth = args.depth_cap
    for n in range(args.depth_cap + 1):
        enclosure = lebesgue_n(n, h, cap=args.depth_cap)
        w = width(enclosure)
        row = {
            "n": n,
            "lo": render_scalar(enclosure.lo),
            "hi": render_scalar(enclosure.hi),
            "width": render_scalar(w),
        }
        if args.approx_decimals is not None:
            row["lo_approx"] = _approx(enclosure.lo, args.approx_decimals)
            row["hi_approx"] = _approx(enclosure.hi, args.approx_decimals)
        rows.append(row)
        if w <= eps:
            converged = True
            depth = n
            break
    columns = list(rows[0].keys())
    sys.stdout.write(
        _emit_rows(rows, columns, args.format, {"converged": converged, "depth": depth})
    )
    return 0 if converged else 2


def cmd_eval(args) -> int:
    try:
        space = parse_poset(_read_spec(args.poset, "poset"))
        terms, val_algebra = parse_valuation(_read_spec(args.val, "val"))
        _, table, fn_algebra = parse_fn(_read_spec(args.fn, "fn"))
        if val_algebra is not fn_algebra:
            raise IntvalError(
                "valuation coefficients and function values use different algebras"
            )
        nu = ElementaryValuation(space, terms, val_algebra)
        h = MonotoneMap(space, table, fn_algebra)
        value = evaluate(nu, h)
    except IntvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rendered = val_algebra.render(value)
    if args.format == "csv":
        sys.stdout.write("value\n" + rendered + "\n")
    else:
        sys.stdout.write(json.dumps({"value": rendered}) + "\n")
    return 0


def cmd_laws(args) -> int:
    if args.cases is not None and args.cases < 1:
        raise IntvalError("--cases must be >= 1")
    results = law_suites.run_all(seed=args.seed, cases=args.cases)
    failed = [r for r in results if not r.passed]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["family", "cases", "failures", "passed"])
        for r in results:
            writer.writerow([r.family, r.cases, r.failures, "yes" if r.passed else "no"])
        sys.stdout.write(buf.getvalue())
    elif args.format == "json":
        doc = {
            "families": [
                {
                    "family": r.family,
                    "cases": r.cases,
                    "failures": r.failures,
                    "counterexample": r.counterexample,
                }
                for r in results
            ],
            "passed": not failed,
        }
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intval",
        description="Exact interval-valued valuations and guaranteed-enclosure integration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="enclose a unit-interval integral")
    p_int.add_argument("--fn", required=True, help="piecewise literal or path to one")
    p_int.add_argument("--eps", default="1/1024", help="target enclosure width (rational)")
    p_int.add_argument("--depth-cap", type=int, default=DEFAULT_DEPTH_CAP)
    p_int.add_argument("--format", choices=("json", "csv"), default="json")
    p_int.add_argument("--approx-decimals", type=int, default=None)
    p_int.set_defaults(run=cmd_integrate)

    p_eval = sub.add_parser("eval", help="evaluate a valuation on a test function")
    p_eval.add_argument("--poset", required=True, help="poset literal or path")
    p_eval.add_argument("--val", required=True, help="valuation literal or path")
    p_eval.add_argument("--fn", required=True, help="fn literal or path")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(run=cmd_eval)

    p_laws = sub.add_parser("laws", help="run the algebraic law suites")
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--cases", type=int, default=None)
    p_laws.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_laws.set_defaults(run=cmd_laws)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

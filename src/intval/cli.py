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
clearly-labeled decimal approximations, lo rounded down and hi up so that
they enclose the level.
Output is deterministic given the inputs and seed, byte for byte.
The law suites, the csv module and the poset and valuation modules that
only eval needs are imported by the code that uses them, and integrate
and eval compute on int pairs, down to the rounding of --approx-decimals,
so an integrate run loads none of them, an eval run only the last two,
and neither loads fractions.

Every option is declared once, in _COMMANDS.  The well-formed argv of a
real run (a command, then options by their full names with their values)
is read from that table by a small reader; everything else (--help, a
prefix, a negative number, '--', a usage error) goes to argparse, with a
parser built from the same table when it is needed, so argparse is
imported only then.  Either way the values and messages are argparse's
(tests/oracle_cli.py holds the parser they must agree with), and --help
prints argparse's screen as it reads at 80 columns, at any terminal
width.  integrate and eval write their JSON with f-strings, since none
of their values needs escaping, so json is not imported either; only
laws --format json imports json.

Each command returns its whole output, and main writes it with one call
of ``_write``, which flushes, so that a stream that cannot take it fails
there and not at interpreter exit.  A closed stdout, a full disk and
every other OSError, a broken pipe included, end the run with one
'error: cannot write output: ...' line on stderr and exit 1: a reader that
stops early has not received a result, so the run does not claim one.
The failed stream is closed, which discards what it could not write, so
nothing more is printed at shutdown.  Under python -u the encoded bytes
go to the raw file in a loop, since the text layer drops what a short
write leaves.  --help is written the same way, to stderr when there is
no stdout.

Exit codes: 0 success; 1 usage, parse or validation failure, or output
that could not be written (one 'error:' line from main, with a
line/column diagnostic where available); 2 width target not reached by
the depth cap (the partial table is still emitted); 3 law violation (the
counterexample is printed).
"""

from __future__ import annotations

import io
import re
import sys
from types import SimpleNamespace
from typing import List, NoReturn, Optional, Tuple

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


def _approx(value: ExtNonNeg, decimals: int, up: bool) -> str:
    """Decimal approximation, clearly not exact, rounded down (the floor)
    or, when up, up (the ceiling): lo_approx rounds down and hi_approx up,
    so that the decimal pair encloses the level."""
    if value.is_infinite:
        return "inf"
    q, r = divmod(value._n * 10 ** decimals, value._d)
    if up and r:
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


def _integrate_json(rows: List[list], converged: bool, depth: int) -> str:
    """json.dumps of integrate's document, rows keyed n, lo, hi, width and
    then lo_approx, hi_approx if present.  Nothing needs escaping: every
    value is an int or a rendered number (digits, '/', '.' or 'inf')."""
    objects = ", ".join([
        f'{{"n": {r[0]}, "lo": "{r[1]}", "hi": "{r[2]}", "width": "{r[3]}"'
        + (f', "lo_approx": "{r[4]}", "hi_approx": "{r[5]}"}}' if len(r) > 4 else "}")
        for r in rows
    ])
    return f'{{"rows": [{objects}], "converged": {"true" if converged else "false"}, "depth": {depth}}}\n'


def _write(text: str, out) -> None:
    """Write text to out and flush it, or raise IntvalError: the one way
    output leaves the CLI (see the module docstring)."""
    if out is None:
        raise IntvalError("cannot write output: standard output is closed")
    buffer = getattr(out, "buffer", None)
    try:
        if isinstance(buffer, io.RawIOBase):
            # unbuffered (python -u): the text layer drops what a short
            # raw write leaves, so the bytes go out here until all are taken
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[buffer.write(data):]
        else:
            out.write(text)
            out.flush()
    except (OSError, ValueError) as exc:
        # ValueError: a stream already closed, or text it cannot encode
        try:
            out.close()
        except (OSError, ValueError):
            pass
        raise IntvalError(f"cannot write output: {exc}") from None


def cmd_integrate(args) -> Tuple[int, str]:
    eps = _parse_eps(args.eps)
    if not 0 <= args.depth_cap <= MAX_DEPTH_CAP:
        raise IntvalError(f"--depth-cap must lie in [0, {MAX_DEPTH_CAP}]")
    decimals = args.approx_decimals
    if decimals is not None and decimals < 0:
        raise IntvalError("--approx-decimals must be >= 0")
    if decimals is not None and decimals > MAX_DIGITS:
        raise IntvalError(f"--approx-decimals must be <= {MAX_DIGITS}")
    fn = parse_piecewise(_read_spec(args.fn, "piecewise"))
    header = ["n", "lo", "hi", "width"]
    if decimals is not None:
        header += ["lo_approx", "hi_approx"]
    rows = []
    try:
        for n, enclosure in refine(canonical_extension(fn), eps, cap=args.depth_cap):
            row = [
                n,
                render_scalar(enclosure.lo),
                render_scalar(enclosure.hi),
                render_scalar(width(enclosure)),
            ]
            if decimals is not None:
                row += (
                    _approx(enclosure.lo, decimals, False),
                    _approx(enclosure.hi, decimals, True),
                )
            rows.append(row)
        converged, depth = True, n
    except DepthCapExceeded as exc:
        converged, depth = False, exc.depth
    if args.format == "csv":
        text = _csv([header] + rows)
    else:
        text = _integrate_json(rows, converged, depth)
    return 0 if converged else 2, text


def cmd_eval(args) -> Tuple[int, str]:
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
        return 0, _csv([["value"], [rendered]])
    # a rendered scalar or interval: digits, '/', '[', ',', ']' or 'inf'
    return 0, f'{{"value": "{rendered}"}}\n'


def cmd_laws(args) -> Tuple[int, str]:
    if args.cases is not None and args.cases < 1:
        raise IntvalError("--cases must be >= 1")
    from .laws import run_all

    results = run_all(seed=args.seed, cases=args.cases)
    failed = [r for r in results if not r.passed]
    if args.format == "csv":
        table = [[r.family, r.cases, r.failures, "yes" if r.passed else "no"] for r in results]
        lines = [_csv([["family", "cases", "failures", "passed"]] + table)]
    elif args.format == "json":
        # counterexamples are free text, which json escapes
        import json

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
        lines = [json.dumps(doc) + "\n"]
    else:
        name_w = max(len(r.family) for r in results)
        lines = [
            f"{r.family.ljust(name_w)}  {r.cases:>8} cases  {'pass' if r.passed else 'FAIL'}\n"
            for r in results
        ]
    if args.format != "json":
        lines += [f"counterexample ({r.family}): {r.counterexample}\n" for r in failed]
    return 3 if failed else 0, "".join(lines)


# Each command's runner, help line and options, in help order.  An option
# maps to (default, kind, required, help), kind being int, str or a tuple
# of choices; its value lands on the attribute named after it (--depth-cap:
# depth_cap).
_COMMANDS = {
    "integrate": (cmd_integrate, "enclose a unit-interval integral", {
        "--fn": (None, str, True, "piecewise literal or path to one"),
        "--eps": ("1/1024", str, False, "target enclosure width (rational)"),
        "--depth-cap": (
            DEFAULT_DEPTH_CAP, int, False,
            f"deepest refinement level, 0 to {MAX_DEPTH_CAP} (default {DEFAULT_DEPTH_CAP})",
        ),
        "--format": ("json", ("json", "csv"), False, None),
        "--approx-decimals": (
            None, int, False, f"add decimal columns with 0 to {MAX_DIGITS} digits after the point",
        ),
    }),
    "eval": (cmd_eval, "evaluate a valuation on a test function", {
        "--poset": (None, str, True, "poset literal or path"),
        "--val": (None, str, True, "valuation literal or path"),
        "--fn": (None, str, True, "fn literal or path"),
        "--format": ("json", ("json", "csv"), False, None),
    }),
    "laws": (cmd_laws, "run the algebraic law suites", {
        "--seed": (0, int, False, None),
        "--cases": (
            None, int, False,
            "randomized draws per law family (default: each family's own count); "
            "lebesgue-chain reads it as its depth, capped at 12. "
            "The exhaustive cases always run",
        ),
        "--format": ("table", ("json", "csv", "table"), False, None),
    }),
}


def _value(name: str, kind, value: str):
    """An option's value read as its kind, or IntvalError with argparse's
    message."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise IntvalError(f"argument {name}: invalid int value: {value!r}") from None
    if kind is not str and value not in kind:
        choices = ", ".join(map(repr, kind))
        raise IntvalError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse(argv: List[str]):
    """argv read by argparse, with a parser built from _COMMANDS.  Usage
    errors raise IntvalError with argparse's message, and --help prints
    its screen as it reads at 80 columns, at any terminal width, then
    exits 0.  argparse stores '--opt=--' as an empty list; that option
    is given the value '--' instead."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            raise IntvalError(message)

        def print_help(self, file=None) -> None:
            # to stderr without a stdout, as argparse prints it
            _write(self.format_help(), sys.stdout or sys.stderr)

    def formatter(prog: str) -> argparse.HelpFormatter:
        return argparse.HelpFormatter(prog, width=78)

    description = "Exact interval-valued valuations and guaranteed-enclosure integration."
    parser = _Parser(prog="intval", description=description, formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line, formatter_class=formatter)
        for name, (default, kind, required, text) in options.items():
            p.add_argument(
                name, default=default, required=required, help=text,
                type=int if kind is int else None,
                choices=None if kind in (int, str) else kind,
            )
        p.set_defaults(run=run)
    args = parser.parse_args(argv)
    for name, (_, kind, _, _) in _COMMANDS[args.command][2].items():
        dest = name[2:].replace("-", "_")
        if getattr(args, dest) == []:
            setattr(args, dest, _value(name, kind, "--"))
    return args


def _read_args(argv: List[str]):
    """argv read as _parse reads it.  A command, then its options by their
    full names, each '--opt value' or '--opt=value' with a value that is
    '-' or does not start with '-', and every required option given, the
    last of each one winning: the argv of every real run is read here,
    without importing argparse.  Any other argv goes to _parse."""
    if argv and argv[0] in _COMMANDS:
        run, _, options = _COMMANDS[argv[0]]
        pairs = []
        tokens = iter(argv[1:])
        for token in tokens:
            name, eq, value = token.partition("=")
            if not eq:
                # a missing value is left to argparse, like one starting with '-'
                value = next(tokens, "--")
            if name not in options or (value.startswith("-") and value != "-"):
                break
            pairs.append((name, value))
        else:
            given = {name for name, _ in pairs}
            if all(name in given for name, spec in options.items() if spec[2]):
                # only now: an argv left to argparse gets argparse's first error
                values = {name: spec[0] for name, spec in options.items()}
                for name, value in pairs:
                    values[name] = _value(name, options[name][1], value)
                dests = {name[2:].replace("-", "_"): value for name, value in values.items()}
                return SimpleNamespace(command=argv[0], **dests, run=run)
    return _parse(argv)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _read_args(sys.argv[1:] if argv is None else list(argv))
        code, text = args.run(args)
        _write(text, sys.stdout)
        return code
    except (IntvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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

argv is read against one table of each command's options, under
argparse's rules and with its messages (tests/oracle_cli.py holds the
argparse parser it must agree with); no parser object is built.  --help
prints argparse's help screen as it reads at 80 columns, at any terminal
width.  integrate and eval write their JSON with f-strings, since none of
their values needs escaping, so neither argparse nor json is imported;
only laws --format json imports json.

Each command returns its whole output, and main writes it with one call
of ``_write``, which flushes, so that a stream that cannot take it fails
there and not at interpreter exit.  A closed stdout, a full disk and
every other OSError, a broken pipe included, end the run with one
'error: cannot write output: ...' line on stderr and exit 1: a reader that
stops early has not received a result, so the run does not claim one.
The failed stream is closed, which discards what it could not write, so
nothing more is printed at shutdown.  --help is written the same way, to
stderr when there is no stdout.

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
    try:
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
                row += (_approx(enclosure.lo, decimals), _approx(enclosure.hi, decimals))
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


# Each command's runner and options, in help order.  An option maps to
# (default, kind, required), kind being int, str or a tuple of choices;
# its value lands on the attribute named after it (--depth-cap: depth_cap).
_COMMANDS = {
    "integrate": (cmd_integrate, {
        "--fn": (None, str, True),
        "--eps": ("1/1024", str, False),
        "--depth-cap": (DEFAULT_DEPTH_CAP, int, False),
        "--format": ("json", ("json", "csv"), False),
        "--approx-decimals": (None, int, False),
    }),
    "eval": (cmd_eval, {
        "--poset": (None, str, True),
        "--val": (None, str, True),
        "--fn": (None, str, True),
        "--format": ("json", ("json", "csv"), False),
    }),
    "laws": (cmd_laws, {
        "--seed": (0, int, False),
        "--cases": (None, int, False),
        "--format": ("table", ("json", "csv", "table"), False),
    }),
}

_HELP_OPTIONS = ("-h", "--help")

# argparse's help screens at 80 columns, the top level's under ""
_HELP = {
    "": """\
usage: intval [-h] {integrate,eval,laws} ...

Exact interval-valued valuations and guaranteed-enclosure integration.

positional arguments:
  {integrate,eval,laws}
    integrate           enclose a unit-interval integral
    eval                evaluate a valuation on a test function
    laws                run the algebraic law suites

options:
  -h, --help            show this help message and exit
""",
    "integrate": f"""\
usage: intval integrate [-h] --fn FN [--eps EPS] [--depth-cap DEPTH_CAP]
                        [--format {{json,csv}}]
                        [--approx-decimals APPROX_DECIMALS]

options:
  -h, --help            show this help message and exit
  --fn FN               piecewise literal or path to one
  --eps EPS             target enclosure width (rational)
  --depth-cap DEPTH_CAP
                        deepest refinement level, 0 to {MAX_DEPTH_CAP} (default {DEFAULT_DEPTH_CAP})
  --format {{json,csv}}
  --approx-decimals APPROX_DECIMALS
                        add decimal columns with 0 to {MAX_DIGITS} digits after the
                        point
""",
    "eval": """\
usage: intval eval [-h] --poset POSET --val VAL --fn FN [--format {json,csv}]

options:
  -h, --help           show this help message and exit
  --poset POSET        poset literal or path
  --val VAL            valuation literal or path
  --fn FN              fn literal or path
  --format {json,csv}
""",
    "laws": """\
usage: intval laws [-h] [--seed SEED] [--cases CASES]
                   [--format {json,csv,table}]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --cases CASES         randomized draws per law family (default: each
                        family's own count); lebesgue-chain reads it as its
                        depth, capped at 12. The exhaustive cases always run
  --format {json,csv,table}
""",
}


def _option(token: str, names: Tuple[str, ...]) -> Optional[tuple]:
    """How argparse reads a token given the option names: None for a value,
    else (the option it names, None if unknown; the value it carries or
    None).  An unknown token that starts with '-' is an option unless it
    looks like a negative number or holds a space."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        # a prefix of long options, unique or ambiguous
        matches = [option for option in names if option.startswith(name)]
        value = value if eq else None
    else:
        # a short option takes the rest of the token as its value
        matches = [token[:2]] if token[:2] in names else []
        value = token[2:]
    if len(matches) > 1:
        raise IntvalError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _help(name: str, value: Optional[str], command: str) -> NoReturn:
    """-h or --help: print the help screen and exit 0, or raise
    IntvalError if it cannot be written.  A value is an error, except
    that -h reads the letters of '-hh' as more -h options."""
    if value is not None:
        rest = value.lstrip("h") if name == "-h" else value
        if rest or not value:
            raise IntvalError(f"argument -h/--help: ignored explicit argument {rest!r}")
    # to stderr without a stdout, as argparse prints it
    _write(_HELP[command], sys.stdout or sys.stderr)
    raise SystemExit(0)


def _read_args(argv: List[str]) -> SimpleNamespace:
    """argv read as argparse reads it for the parser tests/oracle_cli.py
    builds: the top level takes -h/--help up to the command, and the
    command reads its options, each '--opt value' or '--opt=value', the
    last of each one winning.  Usage errors raise IntvalError with
    argparse's message.  Unlike argparse, which stores '--opt=--' as an
    empty list, the reader gives that option the value '--'."""
    extras = []
    for i, token in enumerate(argv):
        option = None if token == "--" else _option(token, _HELP_OPTIONS)
        if option is None:
            # a lone trailing '--' names no command; any other value is one
            if token != "--" or i + 1 < len(argv):
                break
        elif option[0] is None:
            extras.append(token)
        else:
            _help(*option, "")
    else:
        raise IntvalError("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1 :]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise IntvalError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    run, options = _COMMANDS[command]
    names = (*_HELP_OPTIONS, *options)
    # each token is classified before any is read, and '--' makes itself
    # and every token after it unrecognized
    parsed = []
    for j, token in enumerate(rest):
        if token == "--":
            parsed += [(None, None)] * (len(rest) - j)
            break
        parsed.append(_option(token, names))
    values = {name: default for name, (default, _, _) in options.items()}
    j = 0
    while j < len(rest):
        option = parsed[j]
        j += 1
        if option is None or option[0] is None:
            extras.append(rest[j - 1])
            continue
        name, value = option
        if name in _HELP_OPTIONS:
            _help(name, value, command)
        if value is None:
            if j == len(rest) or parsed[j] is not None:
                raise IntvalError(f"argument {name}: expected one argument")
            value = rest[j]
            j += 1
        kind = options[name][1]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise IntvalError(f"argument {name}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            choices = ", ".join(map(repr, kind))
            raise IntvalError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        values[name] = value
    # a required option has no default, and a given value is never None
    missing = [name for name, spec in options.items() if spec[2] and values[name] is None]
    if missing:
        raise IntvalError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise IntvalError(f"unrecognized arguments: {' '.join(extras)}")
    dests = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, **dests, run=run)


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

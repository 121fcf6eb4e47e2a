"""Reference argument parser for the CLI tests.

The argparse parser that ``intval.cli`` built before it read argv from
one option table.  Its usage errors raise ``IntvalError`` with
argparse's message, and ``--help`` prints argparse's help screen and
raises ``SystemExit(0)``; the CLI must do the same on every argv, with
the same parsed values.  ``cli._read_args`` reads a well-formed argv
from the table itself and leaves every other argv to ``cli._parse``,
which builds an argparse parser from the same table with a fixed help
width of 78, the width argparse takes when ``COLUMNS`` is 80.  This
parser reads ``COLUMNS``, so its help screens match the CLI's when
``COLUMNS`` is 80.  One input is read differently on purpose: argparse
stores ``--opt=--`` as an empty list, on which the commands failed with
a traceback, and ``cli._parse`` reads that list as the value ``'--'``.
"""

import argparse

from intval.cli import MAX_DEPTH_CAP, cmd_eval, cmd_integrate, cmd_laws
from intval.errors import IntvalError
from intval.lebesgue import DEFAULT_DEPTH_CAP
from intval.literals import MAX_DIGITS


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

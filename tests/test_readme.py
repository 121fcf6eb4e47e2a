"""README's command-line examples and literal formats, run as written."""

import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from intval import cli
from intval.literals import (
    parse_fn,
    parse_measure,
    parse_piecewise,
    parse_poset,
    parse_valuation,
)

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

PARSERS = {
    "poset": parse_poset,
    "fn": parse_fn,
    "val": parse_valuation,
    "measure": parse_measure,
    "piecewise": parse_piecewise,
}


def _code_lines(heading):
    """The indented code lines of a README section, continuations joined."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    code = "\n".join(
        line[4:] for line in section.splitlines() if line.startswith("    ")
    )
    return [line for line in code.replace("\\\n", " ").splitlines() if line.strip()]


def _command(name):
    (line,) = [line for line in _code_lines("Command line") if line.startswith(f"intval {name} ")]
    return shlex.split(line)[1:]


def test_integrate_example(capsys):
    assert cli.main(_command("integrate")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "6,2667/8192,2795/8192,1/64"


def test_integrate_example_as_python_m_intval():
    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "intval", *argv], capture_output=True, text=True
        )

    argv = _command("integrate")
    proc = run(argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = proc.stdout.splitlines()
    assert (rows[0], rows[-1], len(rows)) == ("n,lo,hi,width", "6,2667/8192,2795/8192,1/64", 8)
    argv[argv.index("--eps") + 1] = "0"
    proc = run(argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: --eps must be a positive rational")


def test_importing_the_cli_does_not_load_the_main_module():
    script = "import sys, intval.cli; print('intval.__main__' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, check=True, text=True
    )
    assert proc.stdout == "False\n"


def test_eval_example(capsys):
    assert cli.main(_command("eval")) == 0
    assert json.loads(capsys.readouterr().out) == {"value": "[1/2,2]"}


def test_laws_example_parses():
    args = cli._read_args(_command("laws"))
    assert args.run is cli.cmd_laws


@pytest.mark.parametrize("line", _code_lines("Literal formats"))
def test_literal_format(line):
    # a line may end in a parenthesized remark after the literal
    literal = line[: line.rindex("}") + 1]
    PARSERS[literal.split()[0]](literal)


def test_every_literal_form_is_shown():
    assert {line.split()[0] for line in _code_lines("Literal formats")} == set(PARSERS)

"""The package's public names, which load their home module on first use."""

import json
import subprocess
import sys

import pytest

import intval

# Every public name of the package and the module that defines it.
HOMES = {
    "algebra": [
        "BOTTOM", "INFINITY", "INTERVALS", "IONE", "IZERO", "ONE", "SCALARS", "ZERO",
        "ExtNonNeg", "IntervalValue", "ValueAlgebra", "ext", "ival", "ival_add",
        "ival_leq", "ival_mul", "mul_left", "mul_right", "parse_interval",
        "parse_scalar", "rational", "render_interval", "render_scalar", "width",
    ],
    "errors": [
        "DepthCapExceeded", "IntvalError", "LiteralTooLarge", "NonEvaluablePiece",
        "NotMonotone", "OutOfRange", "ParseError", "PointNotInSpace", "SpaceMismatch",
        "UnboundedMeasure", "ZeroMeasure",
    ],
    "spaces": [
        "FinitePoset", "MonotoneMap", "all_monotone_maps", "all_monotone_point_maps",
        "antichain", "chain", "endpoint_maps", "enumerate_posets", "product_poset",
        "singleton",
    ],
    "valuations": [
        "ElementaryValuation", "add", "bottom_valuation", "dirac", "eq_on", "evaluate",
        "scale", "valuation_leq",
    ],
    "monad": [
        "Kernel", "bind", "dual_strength", "kleisli_compose", "map_valuation",
        "product", "strength", "unit",
    ],
    "measures": [
        "FiniteSupportMeasure", "choquet_integral", "interval_integral",
        "least_interval_extension", "lower_integral", "pushforward", "scalar_view",
        "upper_integral",
    ],
    "lebesgue": [
        "DEFAULT_DEPTH_CAP", "DyadicInterval", "IntervalTestFn", "PiecewiseMonotoneFn",
        "Polynomial", "canonical_extension", "chain_check", "dyadic_grid", "is_dyadic",
        "lebesgue_integrate", "lebesgue_n", "refine",
    ],
    "literals": [
        "parse_fn", "parse_measure", "parse_piecewise", "parse_poset", "parse_valuation",
    ],
}
NAMES = [(module, name) for module, names in HOMES.items() for name in names]
EVERY_NAME = sorted({*HOMES, *(name for _, name in NAMES)})


def _run(lines):
    """The JSON the script's last line prints, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, check=True, text=True
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module, name", NAMES)
def test_each_name_is_its_modules_object(module, name):
    home = getattr(intval, module)
    assert home.__name__ == f"intval.{module}"
    assert getattr(intval, name) is getattr(home, name)


def test_dir_and_all_list_every_name():
    assert set(EVERY_NAME) <= set(dir(intval))
    assert sorted(intval.__all__) == EVERY_NAME
    namespace = {}
    exec("from intval import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EVERY_NAME
    for module, name in NAMES:
        assert namespace[name] is getattr(namespace[module], name)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        intval.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from intval import no_such_name", {})


def test_a_submodule_is_reachable_after_a_bare_import():
    loaded = _run([
        "import json, sys",
        "import intval",
        "before = sorted(m for m in sys.modules if m.startswith('intval.'))",
        "monad = intval.monad",
        "print(json.dumps([before, monad.__name__, intval.bind is monad.bind,",
        "                  'intval.measures' in sys.modules]))",
    ])
    assert loaded == [[], "intval.monad", True, False]


# the intval modules a process has loaded after importing the CLI, after an
# integrate run and after an eval run
LOADED = [
    ["intval", "intval.algebra", "intval.cli", "intval.errors", "intval.lebesgue",
     "intval.literals"],
    ["intval", "intval.algebra", "intval.cli", "intval.errors", "intval.lebesgue",
     "intval.literals"],
    ["intval", "intval.algebra", "intval.cli", "intval.errors", "intval.lebesgue",
     "intval.literals", "intval.spaces", "intval.valuations"],
]


def test_a_cli_run_loads_only_the_modules_it_runs():
    steps = _run([
        "import io, json, sys",
        "from contextlib import redirect_stdout",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'intval')",
        "import intval.cli",
        "steps = [loaded()]",
        "runs = [",
        "    ['integrate', '--fn', 'piecewise { [0,1/2] inc: 2*x; [1/2,1] dec: 2 - 2*x }'],",
        "    ['eval', '--poset', 'poset { a; b; a <= b }',",
        "     '--val', 'val { [1/2,1/2] @ a; [1/4,1/3] @ b }',",
        "     '--fn', 'fn h { a -> [0,3]; b -> [1,2] }'],",
        "]",
        "for argv in runs:",
        "    with redirect_stdout(io.StringIO()):",
        "        assert intval.cli.main(argv) == 0",
        "    steps.append(loaded())",
        "print(json.dumps(steps))",
    ])
    assert steps == LOADED

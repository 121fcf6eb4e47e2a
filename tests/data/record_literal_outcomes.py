"""Record what the literal parsers make of a fixed corpus of inputs.

Writes tests/data/literal_outcomes.json: a list of [parser, input,
outcome] rows, where outcome is ["ok", repr(value)] for an input that
parses, or [exception type name, str(exception)] for one that does not.
test_literals.TestOutcomeCorpus replays the file, so a change to the
parsers that alters any value, error type, message, line or column shows
there.

The inputs are drawn with random.Random from the seed literals and
fragments of test_literals.TestFuzz (mutated literals, token soups,
expression soups and bare rationals), plus the ten integrate-wide anchor
literals of perfbench (valid, and one invalid variant each).  Long digit
and nesting runs are drawn rarely, to keep the file small.  Run from the
repository root:

    PYTHONPATH=src:tests:. python tests/data/record_literal_outcomes.py
"""

import json
import pathlib
import random

from test_literals import _FRAGMENTS, _SEEDS

from intval.literals import MAX_DIGITS, MAX_NESTING, parse_rational
from perfbench import oracle
from perfbench.workloads import ANCHOR_SEED, WIDE_ANCHORS, invalid_literal, random_pieces

OUT = pathlib.Path(__file__).with_name("literal_outcomes.json")
SEED = 20
RANDOM_INPUTS = 2000

PARSERS = {name: parse for name, (parse, _) in _SEEDS.items()}
PARSERS["rational"] = parse_rational


def fragment(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.6:
        return rng.choice(_FRAGMENTS)
    if r < 0.85:
        return "".join(rng.choice("0123456789x^()+-*/[],;") for _ in range(rng.randint(0, 6)))
    if r < 0.985:
        return rng.choice("0123456789") * rng.randint(1, 40)
    if r < 0.9865:
        n = rng.choice((MAX_DIGITS, MAX_DIGITS + 1, rng.randint(5000, 6000)))
        return rng.choice("0123456789") * n
    run = rng.choice(("(", "- ", "(-", "((x)*"))
    return run * rng.choice((MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 300))


def random_case(rng: random.Random):
    shape = rng.random()
    if shape < 0.4:
        form = rng.choice(sorted(_SEEDS))
        text = _SEEDS[form][1]
        if rng.random() < 0.3:
            text = text.replace("; ", ";\n  ").replace("{ ", "{\n  ")
        for _ in range(rng.randint(0, 4)):
            i = rng.randint(0, len(text))
            j = rng.randint(i, min(len(text), i + 8))
            text = text[:i] + ("" if rng.random() < 0.2 else fragment(rng)) + text[j:]
        return form, text
    if shape < 0.7:
        form = rng.choice(sorted(_SEEDS))
        body = " ".join(fragment(rng) for _ in range(rng.randint(0, 12)))
        return form, f"{form} {{ {body} }}"
    if shape < 0.9:
        body = " ".join(fragment(rng) for _ in range(rng.randint(1, 6)))
        return "piecewise", f"piecewise {{ [0,1] inc: {body} }}"
    return "rational", "".join(fragment(rng) for _ in range(rng.randint(1, 3)))


def anchor_cases():
    """The integrate-wide anchor literals, drawn as the workload draws them,
    and for each an invalid variant (gap, zero denominator or a piece that
    turns) drawn from a side generator."""
    rng = random.Random(ANCHOR_SEED)
    for i in range(WIDE_ANCHORS):
        pieces = random_pieces(rng, i % 3)
        yield "piecewise", oracle.piecewise_literal(pieces)
        if i % 10 == 9:
            yield "piecewise", invalid_literal(rng, pieces, (i // 10) % 3)
        else:
            yield "piecewise", invalid_literal(random.Random(ANCHOR_SEED + i), pieces, i % 3)


def outcome(form: str, text: str):
    try:
        value = PARSERS[form](text)
    except Exception as exc:  # noqa: BLE001 - every outcome is recorded
        return [type(exc).__name__, str(exc)]
    return ["ok", repr(value)]


def main() -> None:
    rng = random.Random(SEED)
    cases = [random_case(rng) for _ in range(RANDOM_INPUTS)] + list(anchor_cases())
    rows = [[form, text, outcome(form, text)] for form, text in cases]
    lines = ",\n".join(json.dumps(row, ensure_ascii=True) for row in rows)
    OUT.write_text(f"[\n{lines}\n]\n", encoding="ascii")
    print(f"{len(rows)} rows, {OUT.stat().st_size} bytes")


if __name__ == "__main__":
    main()

"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected.json: the SHA-256 of the stdout of every
seed-independent command (the integrate-deep functions and the
integrate-wide anchors) and the case count of every law family.  Run it
only when a change of output is intended; the file guards byte-identical
CLI output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    from perfbench.run import load_intval

    iv = load_intval()
    nothing_recorded = {"digests": {}, "law_cases": {}}
    commands = workloads.integrate_deep(iv, 0, nothing_recorded) + [
        cmd
        for cmd in workloads.integrate_wide(iv, 0, nothing_recorded)
        if cmd.key.startswith("wide-anchor:")
    ]
    digests = {cmd.key: workloads.sha256(cmd.call().stdout) for cmd in commands}
    res = workloads.run_cli(iv, ["laws", "--seed", "0", "--format", "json"])
    law_cases = {f["family"]: f["cases"] for f in json.loads(res.stdout)["families"]}
    doc = {"digests": dict(sorted(digests.items())), "law_cases": law_cases}
    (ROOT / "perfbench" / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

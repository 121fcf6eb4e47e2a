"""intval benchmark: four CLI-level workloads, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload integrate-wide --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6

One run is one fresh interpreter, single-threaded, with cold library
caches.  It builds the workload's commands from the seed, then repeats
the whole command list ("a pass") until --seconds of command time have
been spent, at least once, checking every output with perfbench/oracle.py.
A command's time is its median over the passes.  Every time is reported
at the speed of a reference machine (perfbench/speed.py), --seconds too.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
one pass with every public function of interest wrapped in a span
(perfbench/trace.py) and reports the per-layer metrics.  ``all`` runs
each workload untraced and traced in child processes and prints every
metric plus the tracing overhead.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it repeat the metrics by name with units and give the
machine and code identity.  A fuller record of each run, and the kept
spans of a traced run, go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Times the import first, so nothing it needs is loaded beforehand, then
# times reference slices to calibrate it (see perfbench/speed.py).
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import intval.cli
elapsed = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
from perfbench.speed import reference_slice, speed_factor
slices = []
for _ in range(8):
    t = time.perf_counter()
    reference_slice()
    slices.append(time.perf_counter() - t)
print(elapsed * speed_factor(slices), elapsed)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_intval():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "intval" / "__init__.py").is_file():
        fail(f"no intval sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import intval
    import intval.cli
    import intval.laws

    if Path(intval.__file__).resolve().parent != SRC / "intval":
        fail(f"imported intval from {intval.__file__}, not from {SRC}")
    return intval


def setup_seconds() -> list:
    """(calibrated, raw) import times of intval.cli in fresh interpreters,
    after one warm-up import."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", IMPORT_PROBE, str(SRC), str(ROOT)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"import probe failed: {proc.stderr.strip()}")
        if i:
            samples.append(tuple(float(v) for v in proc.stdout.split()))
    return samples


def identity(iv, workload: str, seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "intval").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    rational = type(iv.algebra.rational(1))
    return {
        "workload": workload,
        "seed": seed,
        "backend": f"{rational.__module__}.{rational.__qualname__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_head(),
        "src_sha256": src_hash.hexdigest(),
    }


def git_head() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(durations: list) -> tuple:
    """Value at the highest percentile with at least 10 samples beyond it;
    with 10 samples or fewer, the maximum.  Returns (value, percentile)."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_pass(commands, report, sampler, times) -> None:
    """One timed pass: appends (calibrated, raw) seconds to times[i]."""
    gc.collect()
    for cmd, samples in zip(commands, times):
        result, calibrated, raw = sampler.time(cmd.call)
        samples.append((calibrated, raw))
        report(cmd.key, cmd.check(result))


def measure(args) -> dict:
    from perfbench import trace, workloads
    from perfbench.speed import SpeedSampler

    iv = load_intval()
    setup = setup_seconds() if not args.trace else []
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    commands = workloads.WORKLOADS[args.workload](iv, args.seed, expected)
    failures = []

    def report(key, problem):
        if problem is not None:
            failures.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)

    times = [[] for _ in commands]
    passes = 0
    record = {"identity": identity(iv, args.workload, args.seed)}
    if args.trace:
        with SpeedSampler() as sampler:
            costs = trace.op_costs(iv)
            tracer = trace.Tracer(iv)
            tracer.install()
            t0 = time.perf_counter()
            run_pass(commands, report, sampler, times)
            elapsed = time.perf_counter() - t0
        passes = 1
        factor = sampler.factor()
        metrics = tracer.metrics(iv.laws.FAMILIES)
        metrics.update(costs)
        for name in metrics:
            if name.endswith(("_s", "_ns", "ns_per_cell")):
                metrics[name] *= factor
        metrics["literals.input_kb_per_s"] /= factor
        wall = sum(samples[0][0] for samples in times)
        metrics["trace.wall_s"] = wall
        for layer, seconds in tracer.layer_self_s().items():
            metrics[f"share.{layer}"] = seconds / elapsed
        metrics["share.unattributed"] = 1 - sum(
            metrics[f"share.{layer}"] for layer in trace.LAYERS if layer != "algebra"
        )
        metrics["share.algebra"] = (
            metrics["algebra.ival_mul_calls"] * metrics["algebra.ival_mul_ns"]
            + metrics["algebra.ival_add_calls"] * metrics["algebra.ival_add_ns"]
        ) / 1e9 / wall
        units = {name: unit_of(name) for name in metrics}
        record["speed_factor"] = factor
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        with SpeedSampler() as sampler:
            spent = 0.0
            while not passes or spent < args.seconds:
                run_pass(commands, report, sampler, times)
                passes += 1
                spent = sum(c for samples in times for c, _ in samples)
        per_command = [statistics.median(c for c, _ in samples) for samples in times]
        tail_s, tail_pct = tail(per_command)
        metrics = {
            "setup_s": statistics.median(c for c, _ in setup),
            "wall_s": sum(per_command),
            "cmd_p50_ms": statistics.median(per_command) * 1e3,
            "cmd_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        record["cmd_tail"] = {"percentile": tail_pct, "samples": len(per_command)}
        record["setup_s_calibrated_raw"] = setup
        record["raw_wall_s"] = sum(statistics.median(r for _, r in samples) for samples in times)
        record["speed_factor"] = sampler.factor()
    attempted = passes * len(commands)
    record.update(
        passes=passes,
        commands_per_pass=len(commands),
        failed_ratio=len(failures) / attempted,
        failures=failures[:20],
    )
    record["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return record


def unit_of(name: str) -> str:
    if name.endswith("kb_per_s"):
        return "KiB/s"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.startswith("share."):
        return "ratio"
    if name.endswith("depth_max"):
        return "depth"
    if name.endswith("ns_per_cell"):
        return "ns"
    return "count"


def print_record(record: dict) -> None:
    ident = record["identity"]
    print(f"# identity {json.dumps(ident, sort_keys=True)}")
    print(
        f"# {ident['workload']} seed {ident['seed']}: {record['passes']} pass(es) of "
        f"{record['commands_per_pass']} commands, failed_ratio {record['failed_ratio']:.4f}"
    )
    if "cmd_tail" in record:
        t = record["cmd_tail"]
        print(f"# cmd_tail_ms is p{t['percentile']:.2f} of {t['samples']} command times")
    for name, m in record["result"]["metrics"].items():
        print(f"{ident['workload']:16s} {name:44s} {m['value']:.6g} {m['unit']}")


def run_all(args) -> None:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("integrate-deep", "integrate-wide", "laws", "functionals"):
        walls = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)],
                capture_output=True, text=True, cwd=ROOT,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                fail(f"{workload} (trace {traced}) exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
            walls[traced] = result["metrics"]["trace.wall_s" if traced else "wall_s"]["value"]
        overhead = walls[1] - walls[0]
        combined["metrics"][f"{workload}.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"{workload:16s} {'trace_overhead_s':44s} {overhead:.6g} s")
    print(json.dumps(combined))


def main() -> None:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    record = measure(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print_record(record)
    print(json.dumps(record["result"]))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    main()

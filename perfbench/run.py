"""Benchmark entry point for fanov5.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it starts one workload process that measures for S
seconds and SETUP_PROBES that stop at their first timed operation, half
before it and half after, and prints the end-to-end metrics.  With ``--trace 1`` it starts one traced
process that runs every workload and prints the per-layer metrics.  The
last line of stdout is the JSON result; earlier lines are reference
figures.  Exits 2 without a result when the checkout has no fanov5
sources, and 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sheaf-sweep", "homext-q", "stability-fp", "cli")
SETUP_PROBES = 8
DEADLINE_S = 170
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_SUFFIXES = (".calls", ".cells", ".yielded", ".pages_resolved")


class ChildFailed(Exception):
    pass


def run_child(args, mode: str, root: Path, started: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (t0 - started)),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited {proc.returncode}")
    result = json.loads(lines[-1])
    if "first_op_at" in result:
        result["setup_s"] = result["first_op_at"] - t0
    return result


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def untraced(args, root: Path, started: float) -> str:
    # Probes on both sides of the measuring process sample the host's drift
    # over the whole run instead of one moment of it.
    probe = lambda: run_child(args, "setup", root, started)["setup_s"]  # noqa: E731
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    res = run_child(args, "run", root, started)
    setups.append(res["setup_s"])
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    res["setup_s"] = statistics.median(setups)
    print(
        f"# {args.workload} seed={args.seed}: {res['passes']} passes, {res['completed']} ops "
        f"in {res['wall_s']:.2f} s; p90 {res['op_p90_ms']:.3f} ms (n={res['completed']}); "
        f"setup samples {[round(s, 4) for s in setups]}; host.spin_ms {res['spin_ms']:.3f}"
    )
    for why, count in sorted(res["failures"].items()):
        print(f"# failed x{count}: {why}")
    _print_problems(res["problems"])
    metrics = {k: {"value": res[k], "unit": u} for k, u in UNITS.items()}
    return report(not res["problems"], res["attempted"], res["failed"], metrics)


def traced(args, root: Path, started: float) -> str:
    res = run_child(args, "trace", root, started)
    rates = ", ".join(f"{w} {r:.3f}" for w, r in res["traced_ops_per_s"].items())
    print(f"# traced passes {res['plan']}; traced ops_per_s: {rates}")
    _print_problems(res["problems"])
    metrics = {
        k: {"value": v, "unit": "count" if k.endswith(COUNT_SUFFIXES) else "ms"}
        for k, v in sorted(res["metrics"].items())
    }
    return report(not res["problems"], res["attempted"], res["failed"], metrics)


def _print_problems(problems: list[str]) -> None:
    for p in problems[:20]:
        print(f"# INCORRECT: {p}")
    if len(problems) > 20:
        print(f"# ... and {len(problems) - 20} more incorrect outputs")


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="fanov5 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fanov5" / "__init__.py").is_file():
        print(f"error: no fanov5 sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        line = traced(args, root, started) if args.trace else untraced(args, root, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

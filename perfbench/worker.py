"""One workload process: set up, run whole passes, check, report one JSON line.

Started by run.py from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|run|trace

``setup`` stops right before the first timed operation, ``run`` measures
for S seconds of whole passes, and ``trace`` runs a fixed number of
passes of every workload under the tracer (see ``trace_plan``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPIN_LOOPS = 200_000
ORDER = ("sheaf-sweep", "homext-q", "stability-fp", "cli")
# Rough traced wall time of one pass, used to size the traced run.
TRACED_PASS_S = {"sheaf-sweep": 0.6, "homext-q": 1.5, "stability-fp": 1.0, "cli": 4.5}
CLI_PROBES = 9


def spin_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed, not the program's."""
    t = time.perf_counter()
    s = 0
    for i in range(SPIN_LOOPS):
        s += i * i
    return (time.perf_counter() - t) * 1e3


def import_program(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import fanov5

    if Path(fanov5.__file__).resolve().parent != (src / "fanov5").resolve():
        raise SystemExit(f"imported fanov5 from {fanov5.__file__}, not from {src}")


def call(wl, item):
    try:
        return wl.run(item)
    except Exception as exc:  # noqa: BLE001 - an operation that raises has failed
        return exc


class Tally:
    """Attempted/failed counts, operation times and check problems of one workload."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.durations: list[float] = []
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}

    def record(self, wl, item, out, seconds: float) -> None:
        self.attempted += 1
        why = wl.failure(item, out)
        if why is not None:
            self.failed += 1
            self.failures[why] = self.failures.get(why, 0) + 1
            return
        self.durations.append(seconds)
        self.problems += wl.check(item, out)


def run_pass(wl, tally: Tally, tracer=None) -> float:
    """One pass over the workload's items; returns its wall time. Checks run after."""
    outs = []
    t_pass = time.perf_counter()
    for item in wl.items:
        t = time.perf_counter()
        if tracer is None:
            out = call(wl, item)
        else:
            with tracer.span("op:" + wl.name):
                out = call(wl, item)
        outs.append((item, out, time.perf_counter() - t))
    wall = time.perf_counter() - t_pass
    for item, out, seconds in outs:
        tally.record(wl, item, out, seconds)
    return wall


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def measure(args, root: Path, workdir: Path) -> dict:
    import workloads

    if args.workload != "cli":
        import_program(root)
    wl = workloads.make(args.workload, args.seed, workdir, root)
    warm = Tally()
    warm.record(wl, wl.items[0], call(wl, wl.items[0]), 0.0)
    first_op_at = time.monotonic()
    if args.mode == "setup":
        return {"first_op_at": first_op_at}

    tally = Tally()
    wall, passes, spins = 0.0, 0, []
    while wall < args.seconds:
        wall += run_pass(wl, tally)
        passes += 1
        spins.append(spin_ms())
    rss = peak_rss_mb(args.workload)
    d = sorted(tally.durations)
    return {
        "first_op_at": first_op_at,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": warm.problems + tally.problems,
        "failures": tally.failures,
        "ops_per_s": len(d) / wall,
        "op_p50_ms": statistics.median(d) * 1e3,
        "op_p90_ms": statistics.quantiles(d, n=10)[-1] * 1e3 if len(d) >= 2 else d[0] * 1e3,
        "completed": len(d),
        "passes": passes,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "spin_ms": statistics.median(spins),
    }


def trace_plan(seconds: int) -> dict[str, int]:
    """Whole traced passes per workload: a quarter of ``seconds`` each, at least one."""
    return {w: max(1, int(seconds / 4 / TRACED_PASS_S[w])) for w in ORDER}


def _per_pass(value, passes: int):
    return value // passes if isinstance(value, int) and value % passes == 0 else value / passes


def _subprocess_ms(argv: list[str], root: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t = time.perf_counter()
    subprocess.run(argv, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter() - t) * 1e3


def cli_layers(wl, tracer, root: Path, metrics: dict) -> list[str]:
    """The cli.* metrics: in-process ``main`` per command, bare start and import.

    Returns the problems found in the in-process outputs of the commands
    that did not fail.
    """
    problems, main_ms = [], []
    for item in wl.items:
        with tracer.span("cli.main") as span:
            out = wl.run_in_process(item)
        main_ms.append((span.end - span.start) / 1e6)
        if wl.failure(item, out) is None:
            problems += wl.check(item, out)
    # Interleaved pairs, so that host drift cancels in the difference.
    bare, imports = [], []
    for _ in range(CLI_PROBES):
        bare.append(_subprocess_ms([sys.executable, "-c", "pass"], root))
        imports.append(_subprocess_ms([sys.executable, "-c", "import fanov5.cli"], root) - bare[-1])
    metrics["cli.interp_start_ms"] = statistics.median(bare)
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["cli.main_ms"] = statistics.median(main_ms)
    return problems


def trace(args, root: Path, workdir: Path) -> dict:
    import tracing
    import workloads

    import_program(root)
    tracer = tracing.Tracer()
    tracer.install()
    plan = trace_plan(args.seconds)
    metrics: dict[str, float] = {}
    attempted = failed = 0
    problems: list[str] = []
    spins: list[float] = []
    traced_rates = {}
    for name in ORDER:
        wl = workloads.make(name, args.seed, workdir, root)
        call(wl, wl.items[0])
        tracer.reset()
        tally, wall = Tally(), 0.0
        for _ in range(plan[name]):
            wall += run_pass(wl, tally, tracer)
            spins.append(spin_ms())
        traced_rates[name] = len(tally.durations) / wall
        attempted, failed = attempted + tally.attempted, failed + tally.failed
        problems += tally.problems
        if name == "cli":
            problems += cli_layers(wl, tracer, root, metrics)
        metrics.update(layer_metrics(name, tracer, plan[name]))
        tracer.dump(workdir.parent / f"trace-{name}.jsonl")
    metrics["host.spin_ms"] = statistics.median(spins)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "plan": plan,
        "traced_ops_per_s": traced_rates,
    }


# Layer metrics taken from each workload's traced passes, per pass.
LAYER_METRICS = {
    "sheaf-sweep": (
        ("weights.dominantize", ("calls", "self_ms")),
        ("weights.weyl_dim", ("calls",)),
        ("bundles.cohomology", ("calls", "self_ms")),
        ("koszul.restrict_cohomology", ("calls", "self_ms")),
        ("koszul.ulrich_check", ("self_ms",)),
        ("chow.chi", ("calls", "self_ms")),
    ),
    "homext-q": (
        ("linalg.rref_q", ("calls", "self_ms")),
        ("quiver.hom_ext", ("self_ms",)),
    ),
    "stability-fp": (
        ("linalg.rref_fp", ("calls", "self_ms")),
        ("linalg.row_space_basis", ("calls",)),
        ("linalg.subspaces", ("self_ms",)),
        ("quiver.check_stability", ("self_ms",)),
    ),
    "cli": (),
}
LAYER_COUNTS = {
    "sheaf-sweep": ("koszul.pages_resolved",),
    "homext-q": ("linalg.rref_q.cells",),
    "stability-fp": ("linalg.rref_fp.cells", "linalg.subspaces.yielded"),
    "cli": (),
}


def layer_metrics(workload: str, tracer, passes: int) -> dict[str, float]:
    totals = tracer.layer_totals()
    out = {}
    for span, fields in LAYER_METRICS[workload]:
        rec = totals.get(span, {"calls": 0, "self_ms": 0.0})
        for field in fields:
            out[f"{span}.{field}"] = _per_pass(rec[field], passes)
    for counter in LAYER_COUNTS[workload]:
        out[counter] = _per_pass(tracer.counts.get(counter, 0), passes)
    if workload == "cli":
        rec = totals.get("checklist.run_all", {"calls": 0, "total_ms": 0.0})
        out["checklist.run_all_ms"] = rec["total_ms"] / max(rec["calls"], 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ORDER)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    workdir = root / ".perfbench" / f"{args.workload}-{args.mode}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = trace(args, root, workdir) if args.mode == "trace" else measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

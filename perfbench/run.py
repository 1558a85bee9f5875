"""Benchmark of the inflatable package: end-to-end timings and a traced per-layer split.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {search17,exact,montecarlo} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout and nowhere
else; without it the run prints an error and exits with a non-zero status. Load is
one process and one thread (a closed loop of back-to-back iterations),
except the traced ``threads=2`` scan. Iterations repeat until one more
would overrun ``--seconds``, at least once. Every answer is checked exactly after it is
timed, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
iterations of calibrated times (see ``pace.py``: each operation's time at a
fixed pace of a reference chunk timed inside it, which cancels the shared
host's speed phases), and ``setup_s``, the calibrated median of several
fresh processes. With ``--trace 1`` each untraced iteration is followed by a
traced one, and the metrics are the per-layer ones of
``spans.LAYER_METRICS`` in plain wall-clock seconds; the spans go to
``.bench_out/``. The line before the last carries the machine, the raw and
calibrated per-operation medians and the failed ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROCESSES = 11
WORKLOAD_NAMES = ("search17", "exact", "montecarlo")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("stage1_s", "s", "lower", 0.25),
    ("stage2_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def use_checkout_src() -> None:
    """Import the package from this checkout's src/, or fail."""
    if not (SRC / "inflatable" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'inflatable'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import inflatable

    if Path(inflatable.__file__).resolve().parent != SRC / "inflatable":
        raise SystemExit(f"error: inflatable was imported from {inflatable.__file__}")


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems_by_op: dict) -> None:
        for op, problems in problems_by_op.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{op}: {p}" for p in problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_iteration(workload, ledger: Ledger, tracer=None, pace=None) -> tuple:
    """Time each operation once, then check every answer.

    Returns the wall time, the time of each operation (calibrated when a
    pace is given, else wall-clock), the raw time of each operation and the
    answers.
    """
    out, times, raw = {}, {}, {}
    progress = tracer.progress if tracer else None
    with tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        for op, call in workload.ops(progress):
            with tracer.span(f"op.{op}") if tracer else nullcontext():
                if pace:
                    out[op], raw[op], times[op] = pace.time(call)
                else:
                    t0 = perf_counter()
                    out[op] = call()
                    times[op] = raw[op] = perf_counter() - t0
        wall = perf_counter() - start
    ledger.record(workload.check(out))
    return wall, times, raw, out


def setup_seconds(workload: str, seed: int) -> list:
    """Import the package and build the inputs in fresh processes."""
    values = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def _setup_probe(workload: str, seed: int) -> float:
    """Calibrated time to import the package and build the workload's inputs."""
    import pace

    def setup():
        use_checkout_src()
        import workloads

        workloads.WORKLOADS[workload](seed)

    return pace.Pace().time(setup)[2]


def time_left(start: float, seconds: float, durations: list) -> bool:
    """True until the next repetition, at the median pace so far, would overrun."""
    return not durations or perf_counter() - start + median(durations) <= seconds


def measure(workload, seconds: float, ledger: Ledger, pace=None) -> tuple:
    """Untraced iterations for the given wall-clock time.

    Returns the op times of each iteration (calibrated when a pace is
    given) and the raw op times of each iteration.
    """
    walls, times, raws = [], [], []
    start = perf_counter()
    while time_left(start, seconds, walls):
        wall, op_times, raw, _ = run_iteration(workload, ledger, pace=pace)
        walls.append(wall)
        times.append(op_times)
        raws.append(raw)
    return times, raws


def end_to_end(workload, times: list, setup: list) -> dict:
    """Medians over iterations; wall_s is the sum of an iteration's op times."""
    values = {
        "setup_s": median(setup),
        "wall_s": median(sum(t.values()) for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for stage, ops in workload.stages.items():
        values[stage] = median(sum(t[op] for op in ops) for t in times)
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}


def traced_run(workload, seconds: float, ledger: Ledger) -> tuple:
    """Untraced and traced iterations in turn, then the workload's traced extras."""
    import spans
    import workloads

    untraced, traced, dumps, pairs = [], [], [], []
    start = perf_counter()
    while time_left(start, seconds, pairs):
        pair_start = perf_counter()
        wall, op_times, _, reference = run_iteration(workload, ledger)
        untraced.append((wall, op_times))
        tracer = spans.Tracer()
        traced.append((run_iteration(workload, ledger, tracer)[0], tracer))
        dumps.append(tracer.dump())
        pairs.append(perf_counter() - pair_start)
    extra = {}
    for op, call in workload.traced_ops():
        tracer = spans.Tracer()
        with tracer.installed(), tracer.span(f"op.{op}"):
            t0 = perf_counter()
            result = call()
            extra[op] = perf_counter() - t0
        ledger.record({op: workload.check_traced(result, reference)})
        dumps.append(tracer.dump())
    per_layer = spans.run_metrics(traced, untraced, extra.get("scan2", 0.0), workloads.PAIR_THREADS)
    units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in per_layer.items()}
    ops = {op: median(t[op] for _, t in untraced) for op in untraced[0][1]}
    return metrics, ops, dumps


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "inflatable").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def result_line(ledger: Ledger, metrics: dict) -> str:
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0
    use_checkout_src()
    import pace
    import workloads

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    info = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    if args.trace:
        metrics, ops, dumps = traced_run(workload, args.seconds, ledger)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({**info, "iterations": dumps}))
        info["spans"] = str(spans_file.relative_to(ROOT))
    else:
        times, raws = measure(workload, args.seconds, ledger, pace.Pace())
        metrics = end_to_end(workload, times, setup)
        ops = {op: median(t[op] for t in times) for op in times[0]}
        info["iterations"] = len(times)
        info["setup_s"] = setup
        info["ops_raw_s"] = {op: median(t[op] for t in raws) for op in raws[0]}
    info.update(ops_s=ops, failed_ratio=ledger.failed_ratio, problems=ledger.problems[:20])
    print(json.dumps(info))
    print(result_line(ledger, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

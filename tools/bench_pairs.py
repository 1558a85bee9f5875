"""Alternating parent/change pairs of one bench workload, summarised as a BENCH_*.json row.

Usage, from the root of the change's checkout, with a second checkout of the
parent commit (``git clone`` it or add it as a worktree; the row's
``parent_commit`` is read with ``git -C PARENT_DIR rev-parse HEAD``, and a
parent directory that is not the top of a git checkout, such as a ``git
archive`` export, is refused before any run):

    python3 tools/bench_pairs.py --parent PARENT_DIR --workload montecarlo \\
        --seeds 1301-1310 --seconds 30 --change "what the change does" \\
        --out BENCH_montecarlo.json [--claim "stage2_s improves by ..."]

``--seeds`` names the pairs, at least 2. Pair i (counted from 1) measures
each checkout once with the i-th seed, one process at a time: odd pairs
run the parent first, even pairs the change first. Every process imports
the package from its own checkout's ``src``. The workloads:

- those of ``BENCHMARK.json``: one ``perfbench/run.py --workload W --seed S
  --seconds T --trace 0`` run, whose end-to-end metrics and their better
  direction come from the change's ``BENCHMARK.json``. A run whose answers
  are not all correct stops the script. Only these read ``--seconds``.
- ``composed``: one ``python3 tools/bench_composed.py`` process, each
  checkout's own script, so a change may rename a library name the script
  calls; the seconds of each operation.
- ``startup``: four processes, each timed in seconds.
  ``setup_cached_s`` and ``search17_setup_cached_s`` are perfbench's setup
  probe for ``exact`` and for ``search17``, which also runs ``search``
  (import the package and build the workload's inputs, calibrated as
  ``setup_s`` is), with bytecode cached. ``check_process_s`` is the wall
  time of a whole ``python3 -m inflatable check G54ABC319HF678ED2``
  process with ``PYTHONDONTWRITEBYTECODE=1``, so that it compiles every
  package source it imports. ``check_process_cached_s`` is the same with
  bytecode cached. Cached bytecode lives under a temporary
  ``PYTHONPYCACHEPREFIX``, written by one run of each kind per side
  before the pairs, so neither checkout may hold caches under ``src``.

``composed`` and ``startup`` have fixed inputs; their seeds only name the
pairs. Each metric is summarised by both sides' medians and quartiles
(``statistics.quantiles``, inclusive method), rounded to 4 significant
digits, and ``change_wins``, the number of pairs in which the change read
better; ties count for neither side. The row is appended to ``--out``,
which is created with the workload, command and machine (perfbench's
``machine()``) when it does not exist yet; a later row whose command or
machine differs from the file's carries its own.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
ORDER = "odd pairs run the parent first, even pairs the change first; one run at a time"
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy")
COMPOSED = "tools/bench_composed.py"
# startup's cached setup probes, by metric
PROBES = {
    name: ["python3", "perfbench/run.py", "--setup-probe", "--workload", workload,
           "--seed", "1", "--seconds", "0"]
    for name, workload in (("setup_cached_s", "exact"), ("search17_setup_cached_s", "search17"))
}
CHECK = ["python3", "-m", "inflatable", "check", "G54ABC319HF678ED2"]


def command(workload: str, seed, seconds: float) -> list:
    return [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]


def run(cmd: list, checkout: Path, **env) -> tuple:
    """Run cmd in checkout with its src on PYTHONPATH and ``env`` (None
    unsets a variable); its stdout and wall seconds."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), **env}
    env = {k: v for k, v in env.items() if v is not None}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr}{proc.stdout}")
    return proc.stdout, seconds


def workload_measure(workload: str, seconds: float, sides: dict, cache: str) -> tuple:
    """The workload's command, as --out records it, and its measure:
    (checkout, seed) -> {metric: value}."""
    if workload == "composed":
        def composed(checkout, seed):
            return json.loads(run(["python3", COMPOSED], checkout)[0])

        return f"python3 {COMPOSED}", composed
    if workload == "startup":
        cached = {"PYTHONDONTWRITEBYTECODE": None, "PYTHONPYCACHEPREFIX": cache}
        uncached = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": None}
        for checkout in sides.values():
            if any((checkout / "src").rglob("__pycache__")):
                raise SystemExit(f"error: {checkout / 'src'} holds bytecode caches")
            for cmd in (*PROBES.values(), CHECK):
                run(cmd, checkout, **cached)

        def startup(checkout, seed):
            out = {name: float(run(cmd, checkout, **cached)[0].split()[-1])
                   for name, cmd in PROBES.items()}
            out["check_process_s"] = run(CHECK, checkout, **uncached)[1]
            out["check_process_cached_s"] = run(CHECK, checkout, **cached)[1]
            return out

        return " ; ".join(" ".join(cmd) for cmd in (*PROBES.values(), CHECK)), startup

    def perfbench(checkout, seed):
        lines = run(command(workload, seed, seconds), checkout)[0].strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"error: run in {checkout} gave wrong answers: {info['problems']}")
        if "ops_raw_s" in info:  # logged only: the per-operation medians, uncalibrated
            print(f"ops_raw_s {json.dumps(info['ops_raw_s'])}", file=sys.stderr)
        return {name: m["value"] for name, m in result["metrics"].items()}

    return " ".join(command(workload, "N", seconds)), perfbench


def head_commit(checkout: Path) -> str:
    """The commit checked out at ``checkout``, read by git, so clones and
    worktrees alike; SystemExit when checkout is not the top of one, as a
    ``git archive`` export inside no repository or inside another one is
    not."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError as exc:  # no git to run
        raise SystemExit(f"error: cannot read the commit of {checkout}: {exc}") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        raise SystemExit(f"error: {checkout} is not the top of a git checkout: "
                         f"{proc.stderr.strip() or proc.stdout.strip()}")
    return lines[1]


def run_pairs(seeds: list, sides: dict, measure) -> dict:
    """Each side's measures, one {metric: value} dict per pair, in pair order."""
    runs: dict = {"parent": [], "change": []}
    for i, seed in enumerate(seeds, start=1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            runs[side].append(measure(sides[side], seed))
            print(f"pair {i} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
    return runs


def _sig(x: float) -> float:
    """x rounded to 4 significant digits, so millisecond timings keep theirs."""
    return float(f"{x:.4g}")


def summarize(parent: list, change: list, metrics: list) -> dict:
    """Per metric: both sides' median and quartiles, and the pairs the change won.

    ``parent`` and ``change`` hold one {metric: value} dict per pair, in pair
    order; ``metrics`` holds (name, unit, better) with better "lower" or
    "higher".
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of parent and change runs, at least 2")
    out = {}
    for name, unit, better in metrics:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if better == "lower" else -1
        q_p = quantiles(p, n=4, method="inclusive")
        q_c = quantiles(c, n=4, method="inclusive")
        out[name] = {
            "unit": unit,
            "parent_median": _sig(median(p)),
            "parent_quartiles": [_sig(q_p[0]), _sig(q_p[2])],
            "change_median": _sig(median(c)),
            "change_quartiles": [_sig(q_c[0]), _sig(q_c[2])],
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
        }
    return out


def machine(checkout: Path) -> dict:
    """The machine of ``checkout``, from its perfbench/run.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine()


def write_row(out: Path, workload: str, cmd: str, machine: dict, row: dict) -> None:
    """Append row to ``out``, creating it with the workload, command and
    machine; a row run with another command or on another machine than the
    file's carries its own."""
    machine = {k: machine[k] for k in MACHINE_KEYS}
    if out.exists():
        doc = json.loads(out.read_text())
        if doc.get("workload") != workload:
            raise SystemExit(f"error: {out} holds workload {doc.get('workload')!r}, not {workload!r}")
        if doc["command"] != cmd:
            row = {**row, "command": cmd}
        if doc["machine"] != machine:
            row = {**row, "machine": machine}
    else:
        doc = {"workload": workload, "command": cmd, "machine": machine, "rows": []}
    doc["rows"].append(row)
    out.write_text(json.dumps(doc, indent=2) + "\n")


def parse_seeds(text: str) -> list:
    """"1301-1310" or "7,8,9" as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]] + ["composed", "startup"])
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1301-1310")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--change", required=True, help="one line saying what the change does")
    ap.add_argument("--claim", help="the claimed gain, if the row makes one")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error(f"--seeds names {len(args.seeds)} pairs; a summary needs at least 2")

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    parent_commit = head_commit(sides["parent"])
    with tempfile.TemporaryDirectory() as cache:
        cmd, measure = workload_measure(args.workload, args.seconds, sides, cache)
        runs = run_pairs(args.seeds, sides, measure)

    # composed and startup report seconds, which are not in BENCHMARK.json
    units = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    metrics = [(name, *units.get(name, ("s", "lower"))) for name in runs["change"][0]]
    row = {
        "change": args.change,
        "parent_commit": parent_commit[:7],
        "claimed": args.claim is not None,
    }
    if args.claim:
        row["claim"] = args.claim
    row.update(
        pairs=len(args.seeds),
        seeds=args.seeds,
        order=ORDER,
        metrics=summarize(runs["parent"], runs["change"], metrics),
    )
    write_row(args.out, args.workload, cmd, machine(ROOT), row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

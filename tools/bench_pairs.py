"""Alternating parent/change pairs of perfbench runs, summarised as a BENCH_*.json row.

Usage, from the root of the change's checkout, with a second checkout of the
parent commit (``git clone`` it; ``perfbench/run.py`` reads the commit from
its ``.git``):

    python3 tools/bench_pairs.py --parent PARENT_DIR --workload montecarlo \\
        --seeds 1301-1310 --seconds 30 --change "what the change does" \\
        --out BENCH_montecarlo.json [--claim "stage2_s improves by ..."]

Pair i (counted from 1) runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one run at a time, with the
i-th seed: odd pairs run the parent first, even pairs the change first. A run
whose answers are not all correct stops the script. The end-to-end metrics
and their better direction come from the change's ``BENCHMARK.json``.

Each metric is summarised by both sides' medians and quartiles
(``statistics.quantiles``, inclusive method) and ``change_wins``, the number
of pairs in which the change read better; ties count for neither side. The
row is appended to ``--out``, which is created with the workload, command
and machine when it does not exist yet.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
ORDER = "odd pairs run the parent first, even pairs the change first; one run at a time"
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy")


def command(workload: str, seed, seconds: float) -> list:
    return [
        "python3", "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its machine line and metric values."""
    proc = subprocess.run(
        command(workload, seed, seconds), cwd=checkout, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: run in {checkout} failed:\n{proc.stderr}{proc.stdout}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: run in {checkout} gave wrong answers: {info['problems']}")
    return {
        "machine": info["machine"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


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
            "parent_median": round(median(p), 4),
            "parent_quartiles": [round(q_p[0], 4), round(q_p[2], 4)],
            "change_median": round(median(c), 4),
            "change_quartiles": [round(q_c[0], 4), round(q_c[2], 4)],
            "change_wins": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
        }
    return out


def parse_seeds(text: str) -> list:
    """"1301-1310" or "7,8,9" as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1301-1310")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--change", required=True, help="one line saying what the change does")
    ap.add_argument("--claim", help="the claimed gain, if the row makes one")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict = {"parent": [], "change": []}
    machines: dict = {}
    for i, seed in enumerate(args.seeds, start=1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            run = run_once(sides[side], args.workload, seed, args.seconds)
            machines.setdefault(side, run["machine"])
            runs[side].append(run["metrics"])
            print(f"pair {i} seed {seed} {side}: {run['metrics']}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec]
    row = {
        "change": args.change,
        "parent_commit": machines["parent"]["commit"][:7],
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
    machine = {k: machines["change"][k] for k in MACHINE_KEYS}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if doc["workload"] != args.workload:
            raise SystemExit(f"error: {args.out} holds workload {doc['workload']!r}")
        if doc["machine"] != machine:
            row["machine"] = machine
    else:
        cmd = " ".join(command(args.workload, "N", args.seconds))
        doc = {"workload": args.workload, "command": cmd, "machine": machine, "rows": []}
    doc["rows"].append(row)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

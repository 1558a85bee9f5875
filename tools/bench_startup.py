"""Alternating parent/change pairs of start-up timings, as a BENCH_*.json row.

Usage, from the root of the change's checkout, with a second checkout of the
parent commit (``git clone`` it), neither holding bytecode caches under
``src``:

    python3 tools/bench_startup.py --parent PARENT_DIR --pairs 10 \\
        --change "what the change does" --out BENCH_exact.json

Three measures, each the median of ``--repeat`` fresh processes per side and
pair. Within a pair the two sides take turns, one process at a time, so both
meet the host's same speed phases; odd pairs start with the parent, even
pairs with the change:

- ``setup_cached_s``: perfbench's setup probe for ``exact`` (import the
  package and build the workload's inputs, in calibrated seconds, as
  ``setup_s`` is measured) with the package's bytecode cached.
- ``check_process_s``: wall time of a whole ``python3 -m inflatable check
  G54ABC319HF678ED2`` process with ``PYTHONDONTWRITEBYTECODE=1``, so that it
  compiles every package source it imports, as perfbench's runs do here.
- ``check_process_cached_s``: the same with the package's bytecode cached.

Cached runs keep their bytecode under a temporary ``PYTHONPYCACHEPREFIX``,
written by one run of each kind per side before the pairs, so the
checkouts stay free of caches. Each side imports the package from its own
``src``. The row holds both sides' medians and quartiles and the pairs the
change won, as ``tools/bench_pairs.py`` writes them, and is appended to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PROBE = ["python3", "perfbench/run.py", "--setup-probe", "--workload", "exact",
         "--seed", "1", "--seconds", "0"]
CHECK = ["python3", "-m", "inflatable", "check", "G54ABC319HF678ED2"]
ORDER = "sides take turns, one process at a time; odd pairs start with the parent"


def run(cmd: list, checkout: Path, cache) -> tuple:
    """Run cmd in checkout, with bytecode cached under ``cache`` or, if None,
    not written; its stdout and wall time."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env.pop("PYTHONPYCACHEPREFIX", None)
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = cache
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return proc.stdout, time.perf_counter() - t0


MEASURES = {
    "setup_cached_s": lambda checkout, cache: float(run(PROBE, checkout, cache)[0].split()[-1]),
    "check_process_s": lambda checkout, cache: run(CHECK, checkout, None)[1],
    "check_process_cached_s": lambda checkout, cache: run(CHECK, checkout, cache)[1],
}


def pair(order: list, repeat: int, cache: str) -> dict:
    """Per side in ``order`` (name, checkout): each measure's median of ``repeat``."""
    samples = {side: {name: [] for name in MEASURES} for side, _ in order}
    for _ in range(repeat):
        for side, checkout in order:
            for name, measure in MEASURES.items():
                samples[side][name].append(measure(checkout, cache))
    return {side: {name: median(v) for name, v in m.items()} for side, m in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--repeat", type=int, default=9, help="processes per side and pair")
    ap.add_argument("--change", required=True, help="one line saying what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for checkout in sides.values():
        if any((checkout / "src").rglob("__pycache__")):
            raise SystemExit(f"error: {checkout / 'src'} holds bytecode caches")
    runs: dict = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as cache:
        for checkout in sides.values():
            run(PROBE, checkout, cache)
            run(CHECK, checkout, cache)
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            result = pair([(side, sides[side]) for side in order], args.repeat, cache)
            for side in order:
                runs[side].append(result[side])
                print(f"pair {i} {side}: {result[side]}", file=sys.stderr)

    commit = subprocess.run(["git", "rev-parse", "--short=7", "HEAD"], cwd=sides["parent"],
                            capture_output=True, text=True, check=True).stdout.strip()
    row = {
        "change": args.change,
        "parent_commit": commit,
        "claimed": False,
        "measure": "tools/bench_startup.py: start-up timings (see its docstring)",
        "pairs": args.pairs,
        "repeat": args.repeat,
        "order": ORDER,
        "metrics": summarize(runs["parent"], runs["change"],
                             [(name, "s", "lower") for name in MEASURES]),
    }
    doc = json.loads(args.out.read_text())
    doc["rows"].append(row)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

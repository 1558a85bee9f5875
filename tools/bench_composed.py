"""Timings of composed hosts, the limit table and the length-3 counter, written to a BENCH_composed.json.

Usage, from the root of a source checkout:

    python3 tools/bench_composed.py --out BENCH_composed.json [--repeat 5] \\
        [--parent PARENT_DIR]

Each repetition measures each checkout once, in a fresh process that
imports the package from that checkout's ``src/`` and runs every operation
once, in the order below; with ``--parent`` the two checkouts alternate
which goes first, so a slow phase of a shared host hits both. Before each
operation the library's memos (``core._host_tables``,
``limits.uniform_profile``) are cleared outside the timed region, so it
times the counting and not a lookup, except ``limit_wide_warm``, which
repeats ``limit_wide_cold`` with the memos as it left them. The operations:

- ``check_17_5_*``: CLI ``check --json`` on the 1,419,857-long composition
  of the two length-17 examples, whole (``cli``) and in three parts: parse
  the comma text (``parse``), count and test it (``count``, that is
  ``check_3_inflatable``), and format the host back to text (``format``).
- ``check_4913_cli``: CLI ``check --json`` on a 4913-long composition.
- ``count3_random_83521``: ``count_length3_all`` on a seeded random
  83,521-long permutation, which is not a uniform inflation, so nothing
  splits it: the counter itself at the length of 17^4.
- ``limit_289_len4`` and ``limit_289_len6``: the limit of 1234 and of
  123456 on the 289-long composition, which fills the host's occurrence
  tables of every length up to 4 or 6.
- ``limit_wide_cold`` and ``limit_wide_warm``: the sum of all 720 length-6
  limits on a seeded 9-long host.

With ``--parent`` the parent checkout runs the same operations, in the
same order, so both sides meet the same warm-up. The output holds the
machine, the median and every run of each operation, and with ``--parent``
the parent-over-change ratio of medians of every operation.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_17 = ("G54ABC319HF678ED2", "E534BGA9HC2D1687F")
TAU9_SEED = 7
RANDOM_SEED = 17
RANDOM_LENGTH = 17**4
ALL_OPS = (
    "check_17_5_cli",
    "check_17_5_parse",
    "check_17_5_count",
    "check_17_5_format",
    "check_4913_cli",
    "count3_random_83521",
    "limit_289_len4",
    "limit_289_len6",
    "limit_wide_cold",
    "limit_wide_warm",
)
ORDER = "one fresh process per side and repetition; even repetitions run the change first, odd ones the parent"


def machine(checkout: Path) -> dict:
    """The machine line perfbench writes (cores, CPU, Python, numpy, commit, source digest)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.machine()


def measure() -> dict:
    """Run each operation once, in order, in this process; seconds per operation."""
    import inflatable
    import inflatable.cli
    from inflatable import core, limits

    def clear():
        core._host_tables.cache_clear()
        limits.uniform_profile.cache_clear()

    def cli_check(text):
        buf = io.StringIO()
        if inflatable.cli.run(["check", text, "--json"], stdout=buf).exit_code != 0:
            raise SystemExit("error: check exited non-zero")
        if json.loads(buf.getvalue())["verdict"] is not True:
            raise SystemExit("error: check gave verdict false")

    e1, e2 = (inflatable.Perm(e) for e in EXAMPLES_17)
    host289 = inflatable.inflate(e1, e2)
    text4913 = inflatable.format_permutation(inflatable.inflate(host289, e1), style="comma")
    rng = random.Random(TAU9_SEED)
    tau9 = inflatable.Perm(rng.sample(range(1, 10), 9))
    patterns6 = inflatable.all_patterns(6)
    rng = random.Random(RANDOM_SEED)
    random_host = inflatable.Perm(rng.sample(range(1, RANDOM_LENGTH + 1), RANDOM_LENGTH))
    host = host289
    for e in (e1, e2, e1):
        host = inflatable.inflate(host, e)
    text = inflatable.format_permutation(host, style="comma")

    def count3_random():
        counts = inflatable.count_length3_all(random_host).counts
        if sum(counts.values()) != comb(RANDOM_LENGTH, 3):
            raise SystemExit("error: the length-3 counts do not sum to C(n, 3)")

    def limit_wide():
        if sum(inflatable.limit_density_uniform(p, tau9) for p in patterns6) != 1:
            raise SystemExit("error: the length-6 limits do not sum to 1")

    timed = {
        "check_17_5_cli": lambda: cli_check(text),
        "check_17_5_parse": lambda: inflatable.parse_permutation(text),
        "check_17_5_count": lambda: inflatable.check_3_inflatable(host),
        "check_17_5_format": lambda: inflatable.format_permutation(host),
        "check_4913_cli": lambda: cli_check(text4913),
        "count3_random_83521": count3_random,
        "limit_289_len4": lambda: inflatable.limit_density_uniform("1234", host289),
        "limit_289_len6": lambda: inflatable.limit_density_uniform("123456", host289),
        "limit_wide_cold": limit_wide,
        "limit_wide_warm": limit_wide,
    }
    seconds = {}
    for op in ALL_OPS:
        if op != "limit_wide_warm":
            clear()
        t0 = perf_counter()
        timed[op]()
        seconds[op] = perf_counter() - t0
    return seconds


def measure_in(checkout: Path) -> dict:
    """``measure()`` in a fresh process importing ``checkout``/src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, __file__, "--measure"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: measuring {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="where to write the JSON")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        json.dump(measure(), sys.stdout)
        return 0
    if args.out is None:
        ap.error("--out is required")
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = args.parent.resolve()
    runs = {side: {op: [] for op in ALL_OPS} for side in sides}
    for i in range(args.repeat):
        for side in sides if i % 2 == 0 else reversed(sides):
            for op, t in measure_in(sides[side]).items():
                runs[side][op].append(t)
    doc = {
        "command": "python3 tools/bench_composed.py" + (" --parent PARENT_DIR" if args.parent else ""),
        "repeat": args.repeat,
        "order": ORDER,
        "memos": "cleared before every run, outside the timed region, except limit_wide_warm",
    }
    for side, checkout in sides.items():
        doc[side] = {
            "machine": machine(checkout),
            "ops": {
                op: {"median_s": round(median(r), 5), "runs_s": [round(x, 5) for x in r]}
                for op, r in runs[side].items()
            },
        }
    if args.parent:
        doc["parent_over_change"] = {
            op: round(median(runs["parent"][op]) / median(runs["change"][op]), 2)
            for op in ALL_OPS
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

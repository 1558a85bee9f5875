"""One run of the composed-host, limit-table and length-3 counter timings, as JSON.

Usage, with the package importable (installed, or ``PYTHONPATH=src`` from
the root of a source checkout):

    python3 tools/bench_composed.py

It runs every operation below once, in this order, in this process, and
prints one JSON object: the calibrated seconds of each operation, timed by
``perfbench/pace.py``'s ``Pace.time`` (its wall time less the reference
chunks run inside it, scaled to the pace where one chunk takes
``REF_NOMINAL_S``), so the host's speed phases mostly cancel. Before each
operation the library's memos are cleared (``core._clear_memos``) outside
the timed region, so it times the counting and not a lookup, except
``limit_wide_warm``, which repeats ``limit_wide_cold`` with the memos as
it left them. A full garbage collection runs before every operation, also
outside the timed region: otherwise the one the allocations trip lands in
whichever short operation comes next and adds about 15 ms (a pass over the
long hosts the script holds) to an operation of 3-5 ms. The operations:

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

Each answer is checked after it is timed, outside the timed region: both
CLI checks exit 0 with verdict true; the parsed host equals the built one;
``check_3_inflatable`` gives verdict true with the counts of
``target_counts_3(17**5)``; the formatted text equals the parsed text; the
random host's length-3 counts sum to C(n, 3); the two limits on the
289-long host equal their pinned values; the 720 limits sum to 1. A
failed check exits non-zero. ``tools/bench_pairs.py --workload composed``
runs this script in alternating parent/change pairs.
"""

from __future__ import annotations

import gc
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

PACE = Path(__file__).resolve().parent.parent / "perfbench" / "pace.py"

EXAMPLES_17 = ("G54ABC319HF678ED2", "E534BGA9HC2D1687F")
TAU9_SEED = 7
RANDOM_SEED = 17
RANDOM_LENGTH = 17**4
# the limits on the 289-long composition, pinned as the limit formula
# gives them (tests/test_limits.py checks it against a per-partition sum)
LIMITS_289 = {
    "1234": Fraction(24063841, 579301656),
    "123456": Fraction(8198955588589, 4935153068299152),
}


def load_pace():
    """perfbench's pace module, loaded from its file (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("pace", PACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure() -> dict:
    """Run each operation once, in order, in this process; calibrated
    seconds per operation."""
    import inflatable
    import inflatable.cli
    from inflatable import core

    # read here, so that the lazy limits module runs before any timed op
    limit_density_uniform = inflatable.limit_density_uniform

    def cli_check(text):
        buf = io.StringIO()
        return inflatable.cli.run(["check", text, "--json"], stdout=buf).exit_code, buf

    def cli_ok(answer):
        exit_code, buf = answer
        return exit_code == 0 and json.loads(buf.getvalue())["verdict"] is True

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
    target = inflatable.target_counts_3(host.n)

    def limit_289(pattern):
        return (
            lambda: limit_density_uniform(pattern, host289),
            lambda limit: limit == LIMITS_289[pattern],
            f"the limit of {pattern} moved from its pinned value",
        )

    limit_wide = (
        lambda: sum(limit_density_uniform(p, tau9) for p in patterns6),
        lambda total: total == 1,
        "the length-6 limits do not sum to 1",
    )

    # op: (timed call, check of its answer, what a failed check means)
    ops = {
        "check_17_5_cli": (lambda: cli_check(text), cli_ok, "check failed"),
        "check_17_5_parse": (
            lambda: inflatable.parse_permutation(text),
            lambda parsed: parsed == host,
            "the parsed host differs from the built one",
        ),
        "check_17_5_count": (
            lambda: inflatable.check_3_inflatable(host),
            lambda report: report.verdict is True and report.observed_counts == target,
            "check_3_inflatable missed the target counts",
        ),
        "check_17_5_format": (
            lambda: inflatable.format_permutation(host),
            lambda formatted: formatted == text,
            "the formatted text differs from the parsed one",
        ),
        "check_4913_cli": (lambda: cli_check(text4913), cli_ok, "check failed"),
        "count3_random_83521": (
            lambda: inflatable.count_length3_all(random_host).counts,
            lambda counts: sum(counts.values()) == comb(RANDOM_LENGTH, 3),
            "the length-3 counts do not sum to C(n, 3)",
        ),
        "limit_289_len4": limit_289("1234"),
        "limit_289_len6": limit_289("123456"),
        "limit_wide_cold": limit_wide,
        "limit_wide_warm": limit_wide,
    }
    pace = load_pace().Pace()
    seconds = {}
    for op, (call, ok, problem) in ops.items():
        if op != "limit_wide_warm":
            core._clear_memos()
        gc.collect()
        answer, _, seconds[op] = pace.time(call)
        if not ok(answer):
            raise SystemExit(f"error: {op}: {problem}")
    return seconds


if __name__ == "__main__":
    json.dump(measure(), sys.stdout)
    print()

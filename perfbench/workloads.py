"""Workload inputs, the timed operations, and the exact gate on each answer.

A workload is built from a seed, exposes its operations as named
callables, and checks their outputs outside the timed region. Operations
call the library through module attributes (``inflatable.<name>``,
``inflatable.cli.run``), so the tracer's replacements are seen.

Every gate returns a list of problems; an empty list means the answer is
exactly right.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import inflatable
import inflatable.cli

# The two minimal 3-inflatable examples of length 17.
EXAMPLES_17 = ("G54ABC319HF678ED2", "E534BGA9HC2D1687F")
SCAN_N = 17
SCAN_HITS = 750
FIRST_K = 3
PAIR_THREADS = 2
WIDE_PATTERN_LEN = 6
TAU9_LEN = 9
MC_TAU = "472951836"
MC_PATTERN = "132"
MC_EXACT = {"j": 50, "samples": 20}
MC_SUBSET = {"j": 2000, "samples": 20, "subset_samples": 5000}
Z_MAX = 5.0


def symmetry_image(values, k: int) -> tuple:
    """Image of a permutation under element k (0..7) of its symmetry group.

    Bit 0 reverses, bit 1 complements, bit 2 inverts, applied in that
    order; the eight choices are the eight symmetries of the plot.
    """
    vals = list(values)
    n = len(vals)
    if k & 1:
        vals.reverse()
    if k & 2:
        vals = [n + 1 - v for v in vals]
    if k & 4:
        inv = [0] * n
        for pos, v in enumerate(vals, start=1):
            inv[v - 1] = pos
        vals = inv
    return tuple(vals)


class Search17:
    """The full centrally symmetric length-17 scan, then the same scan cut at 3 hits.

    Length 17 is the only admissible length small enough to scan
    exhaustively, so the input is fixed and the seed is unused.
    """

    name = "search17"
    stages = {"stage1_s": ("scan",), "stage2_s": ("first3",)}

    def __init__(self, seed: int):
        self.full = inflatable.SearchConfig(n=SCAN_N, central_only=True)
        self.first = inflatable.SearchConfig(n=SCAN_N, central_only=True, limit=FIRST_K)
        self.pair = inflatable.SearchConfig(n=SCAN_N, central_only=True, threads=PAIR_THREADS)
        self.space = inflatable.space_size(SCAN_N, True)

    def ops(self, progress=None) -> list:
        return [
            ("scan", lambda: inflatable.search_3_inflatable(self.full, progress)),
            ("first3", lambda: inflatable.search_3_inflatable(self.first)),
        ]

    def check(self, out: dict) -> dict:
        return {
            "scan": check_scan(out["scan"], SCAN_HITS, self.space),
            "first3": check_first(out["first3"], out["scan"].hits[:FIRST_K]),
        }

    def traced_ops(self) -> list:
        """Run once per traced run: the full scan on PAIR_THREADS fork workers."""
        return [("scan2", lambda: inflatable.search_3_inflatable(self.pair))]

    def check_traced(self, res, reference: dict) -> list:
        problems = check_scan(res, SCAN_HITS, self.space)
        if res.hits != reference["scan"].hits:
            problems.append("hits differ from the single-worker scan")
        return problems


def check_scan(res, expected_hits: int, space: int) -> list:
    """Hit count, coverage, order, and an independent re-check of every hit."""
    problems = []
    if res.status != "ok":
        problems.append(f"status {res.status!r}")
    if res.found != expected_hits or len(res.hits) != expected_hits:
        problems.append(f"found {res.found} / {len(res.hits)} hits, expected {expected_hits}")
    if res.scanned != space:
        problems.append(f"scanned {res.scanned}, expected the space size {space}")
    if list(res.hits) != sorted(set(res.hits)):
        problems.append("hits are not sorted and distinct")
    bad = [h for h in res.hits if not inflatable.check_3_inflatable(h).verdict]
    if bad:
        problems.append(f"{len(bad)} hits fail check_3_inflatable, first {bad[0]}")
    return problems


def check_first(res, expected: list) -> list:
    if list(res.hits) != list(expected) or res.found != len(expected):
        return [f"limited scan gave {list(map(str, res.hits))}, expected {list(map(str, expected))}"]
    return []


class _NoTracedOps:
    def traced_ops(self) -> list:
        return []


class Exact(_NoTracedOps):
    """Compose and check on long composed hosts, then the limit formula.

    Stage 1 (compose, CLI check at length 4913) runs count_length3_all;
    stage 2 is the limit of 123 on the 289-long host (brute-force
    counting) and the length-6 limit sum on a length-9 host (block
    partitions and the limit sum). The seed picks the symmetry images of
    the two length-17 examples that build the hosts, and the length-9 host
    of the length-6 limit sum.
    """

    name = "exact"
    stages = {"stage1_s": ("compose", "check"), "stage2_s": ("limit_long", "limit_wide")}

    def __init__(self, seed: int):
        rng = random.Random(f"exact:{seed}")
        a, b = (symmetry_image(inflatable.Perm(e), rng.randrange(8)) for e in EXAMPLES_17)
        self.host289 = inflatable.inflate(a, b)
        self.ex17 = inflatable.Perm(
            symmetry_image(inflatable.Perm(rng.choice(EXAMPLES_17)), rng.randrange(8))
        )
        self.host4913 = inflatable.inflate(self.host289, self.ex17)
        self.text4913 = inflatable.format_permutation(self.host4913, style="comma")
        self.counts4913 = {
            inflatable.format_permutation(p): c
            for p, c in inflatable.target_counts_3(self.host4913.n).items()
        }
        self.tau9 = inflatable.Perm(rng.sample(range(1, TAU9_LEN + 1), TAU9_LEN))
        self.patterns = inflatable.all_patterns(WIDE_PATTERN_LEN)

    def _check_cli(self):
        buf = io.StringIO()
        result = inflatable.cli.run(["check", self.text4913, "--json"], stdout=buf)
        return result.exit_code, buf.getvalue()

    def ops(self, progress=None) -> list:
        return [
            ("compose", lambda: inflatable.compose_inflatables(self.host289, self.ex17)),
            ("check", self._check_cli),
            ("limit_long", lambda: inflatable.limit_density_uniform("123", self.host289)),
            (
                "limit_wide",
                lambda: sum(inflatable.limit_density_uniform(p, self.tau9) for p in self.patterns),
            ),
        ]

    def check(self, out: dict) -> dict:
        return {
            "compose": [] if out["compose"] == self.host4913 else ["composed host differs"],
            "check": check_cli_report(out["check"], self.counts4913),
            "limit_long": check_value("limit 123", out["limit_long"], Fraction(1, 6)),
            "limit_wide": check_value("length-6 limit sum", out["limit_wide"], Fraction(1)),
        }


def check_cli_report(out: tuple, expected_counts: dict) -> list:
    """`check --json` exits 0, says verdict true, and reports the target counts."""
    code, text = out
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if payload.get("verdict") is not True:
        problems.append(f"verdict {payload.get('verdict')!r}")
    if payload.get("observed_counts") != expected_counts:
        problems.append(f"counts {payload.get('observed_counts')} != {expected_counts}")
    return problems


def check_value(label: str, got, expected: Fraction) -> list:
    if not isinstance(got, Fraction) or got != expected:
        return [f"{label} = {got!r}, expected exactly {expected}"]
    return []


class MonteCarlo(_NoTracedOps):
    """The seeded estimator in exact per-sample mode, then in subset mode.

    The seed is the estimator's seed. Every iteration must reproduce the
    first iteration's estimates bit for bit. Twenty samples per call keep
    an iteration near a second, so a run takes a median over many of them.
    """

    name = "montecarlo"
    stages = {"stage1_s": ("mc_exact",), "stage2_s": ("mc_subset",)}

    def __init__(self, seed: int):
        self.seed = seed
        self.exact = inflatable.limit_density_uniform(MC_PATTERN, MC_TAU)
        self.first: dict = {}

    def _estimate(self, params: dict):
        return inflatable.estimate_limit_density(MC_TAU, MC_PATTERN, seed=self.seed, **params)

    def ops(self, progress=None) -> list:
        return [
            ("mc_exact", lambda: self._estimate(MC_EXACT)),
            ("mc_subset", lambda: self._estimate(MC_SUBSET)),
        ]

    def check(self, out: dict) -> dict:
        problems = {}
        for op, est in out.items():
            first = self.first.setdefault(op, est)
            problems[op] = check_estimate(est, first, self.exact)
        return problems


def check_estimate(est, first, exact: Fraction) -> list:
    """Bit-identical to the run's first estimate, and within Z_MAX standard errors."""
    problems = []
    if (est.mean, est.stderr) != (first.mean, first.stderr):
        problems.append(f"estimate {est.mean!r} differs from the first iteration's {first.mean!r}")
    if not est.stderr > 0:
        problems.append(f"stderr {est.stderr!r} is not positive")
    elif abs(est.mean - float(exact)) / est.stderr > Z_MAX:
        problems.append(f"|z| > {Z_MAX}: mean {est.mean!r}, stderr {est.stderr!r}, exact {exact}")
    return problems


WORKLOADS = {w.name: w for w in (Search17, Exact, MonteCarlo)}

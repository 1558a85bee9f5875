"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every numeric claim is checked exactly (Fraction
equality) except the Monte Carlo criterion, whose tolerance is expressed
in multiples of the estimated standard error.
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import comb

from inflatable import (
    PATTERNS_3,
    Perm,
    SearchConfig,
    abc_coefficients,
    admissible_residues,
    block_partitions,
    check_3_inflatable,
    compose_inflatables,
    count_length3_all,
    density,
    estimate_limit_density,
    generalized_inflate,
    inflate,
    limit_density_uniform,
    residue_multiplication_table,
    rotate,
    search_3_inflatable,
    space_size,
    target_counts_3,
)
from util import brute_counts3, random_perm

TAU9 = Perm("472951836")
TRUE_INVERSE9 = Perm("638159274")
PRINTED_INVERSE9 = Perm("415927386")
G17 = Perm("G54ABC319HF678ED2")
E17 = Perm("E534BGA9HC2D1687F")


def _finish(num: int, label: str, problems: list, t0: float, budget: float, note: str = "") -> None:
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        problems.append(f"over budget: {elapsed:.1f} s > {budget:.0f} s")
    status = "PASS" if not problems else "FAIL"
    detail = note if not problems else "; ".join(problems)
    detail = f" [{detail}]" if detail else ""
    print(f"criterion {num}: {status} {label}{detail} ({elapsed:.2f} s)")
    assert not problems, f"criterion {num}: {label}: {'; '.join(problems)}"


def test_criterion_1_worked_example_exact():
    t0 = time.monotonic()
    problems = []
    for p in ("132", "213", "231", "312"):
        got = limit_density_uniform(p, TAU9)
        if got != Fraction(29, 162):
            problems.append(f"{p}: {got} != 29/162")
    for p in ("123", "321"):
        got = limit_density_uniform(p, TAU9)
        if got != Fraction(23, 162):
            problems.append(f"{p}: {got} != 23/162")
    _finish(1, "worked-example limit densities exact", problems, t0, 1.0,
            "29/162 x4, 23/162 x2")


def test_criterion_2_refutation():
    t0 = time.monotonic()
    problems = []
    inv = [0] * 9
    for i, v in enumerate(TAU9):
        inv[v - 1] = i + 1
    computed_inverse = Perm(tuple(inv))
    if computed_inverse != TRUE_INVERSE9:
        problems.append(f"inverse computed as {computed_inverse}")
    for tau in (TAU9, computed_inverse, PRINTED_INVERSE9):
        rep = check_3_inflatable(tau)
        if rep.verdict:
            problems.append(f"{tau} unexpectedly passed")
    _finish(2, "length-9 candidate and inverse refuted", problems, t0, 1.0,
            "verdict false for candidate, its inverse, and the printed variant")


def test_criterion_3_minimal_examples():
    t0 = time.monotonic()
    problems = []
    want = {
        Perm("123"): 102, Perm("321"): 102,
        Perm("132"): 119, Perm("213"): 119, Perm("231"): 119, Perm("312"): 119,
    }
    for tau in (E17, G17):
        rep = check_3_inflatable(tau)
        if not rep.verdict:
            problems.append(f"{tau} did not pass")
        for p, c in want.items():
            if rep.observed_counts[p] != c:
                problems.append(f"{tau} count({p}) = {rep.observed_counts[p]} != {c}")
        if rep.observed_counts[Perm("12")] != 68:
            problems.append(f"{tau} 12-count != 68")
    if comb(17, 3) != 680 or comb(17, 2) != 136:
        problems.append("binomials off")
    _finish(3, "length-17 minimal examples verified", problems, t0, 1.0,
            "counts 102/102/119x4, pair count 68")


def test_criterion_4_number_theory():
    t0 = time.monotonic()
    problems = []
    res = admissible_residues(144)
    if res != [0, 1, 17, 64, 80, 81]:
        problems.append(f"residues {res}")
    table = residue_multiplication_table()
    want_rows = {
        0: [0, 0, 0, 0, 0, 0],
        1: [0, 1, 17, 64, 80, 81],
        17: [0, 17, 1, 80, 64, 81],
        64: [0, 64, 80, 64, 80, 0],
        80: [0, 80, 64, 80, 64, 0],
        81: [0, 81, 81, 0, 0, 81],
    }
    for r in res:
        row = [table[r][s] for s in res]
        if row != want_rows[r]:
            problems.append(f"row {r}: {row}")
        for s in res:
            if table[r][s] not in set(res):
                problems.append(f"not closed at ({r},{s})")
    _finish(4, "admissible residues and product table", problems, t0, 1.0,
            "6 residues, 36 table entries, closed")


def test_criterion_5_closure():
    t0 = time.monotonic()
    problems = []
    if 289 % 144 != 1:
        problems.append("289 mod 144 != 1")
    want = target_counts_3(289)
    if want is None:
        problems.append("length 289 reported inadmissible")
    for first, second in ((G17, E17), (E17, G17)):
        out = compose_inflatables(first, second)
        if out.n != 289:
            problems.append(f"composed length {out.n}")
        st = count_length3_all(out)
        for p in PATTERNS_3:
            if st.counts[p] != want[p]:
                problems.append(f"{first}x{second} count({p}) off")
        if st.inv12 != want[Perm("12")]:
            problems.append("pair count off")
    _finish(5, "composition of the length-17 pair", problems, t0, 10.0,
            "both orders give exact length-289 target counts")


def test_criterion_6_search_reproduction():
    t0 = time.monotonic()
    problems = []
    res = search_3_inflatable(SearchConfig(n=17, central_only=True))
    if res.status != "ok":
        problems.append(f"status {res.status}")
    if res.scanned != space_size(17, True):
        problems.append(f"scanned {res.scanned} != {space_size(17, True)}")
    if G17 not in res.hits:
        problems.append("known example missing")
    bad = [h for h in res.hits if not check_3_inflatable(h).verdict]
    if bad:
        problems.append(f"{len(bad)} hits fail re-verification")
    expected = 750
    comparison = (
        f"found {res.found}, expected {expected}: "
        + ("match" if res.found == expected else "MISMATCH")
    )
    if res.found != expected:
        problems.append(comparison)
    _finish(6, "full centrally symmetric length-17 scan", problems, t0, 900.0,
            f"{comparison}; all hits re-verify; scanned {res.scanned:,}")


def test_criterion_7_monte_carlo():
    t0 = time.monotonic()
    problems = []
    kw = dict(j=2000, samples=50, subset_samples=5000, seed=0)
    e132 = estimate_limit_density(TAU9, "132", **kw)
    e123 = estimate_limit_density(TAU9, "123", **kw)
    z132 = (e132.mean - 29 / 162) / e132.stderr
    z123 = (e123.mean - 23 / 162) / e123.stderr
    zsym = (e123.mean - 1 / 6) / e123.stderr
    if abs(z132) > 3:
        problems.append(f"132 off target: z = {z132:.2f}")
    if abs(z123) > 3:
        problems.append(f"123 off target: z = {z123:.2f}")
    if abs(zsym) <= 3:
        problems.append(f"123 not separated from 1/6: z = {zsym:.2f}")
    _finish(7, "Monte Carlo agreement at j=2000", problems, t0, 120.0,
            f"z(132) = {z132:.2f}, z(123) = {z123:.2f}, {abs(zsym):.0f} sigma from 1/6")


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    problems = []

    rng = random.Random(90)
    for _ in range(1000):
        tau = random_perm(rng, rng.randint(3, 30))
        fast = count_length3_all(tau)
        counts, inv12, inv21 = brute_counts3(tau)
        if fast.counts != counts or fast.inv12 != inv12 or fast.inv21 != inv21:
            problems.append(f"count mismatch on {tau}")
            break

    for _ in range(100):
        tau = random_perm(rng, rng.randint(1, 9))
        total = sum(limit_density_uniform(p, tau) for p in PATTERNS_3)
        if total != 1:
            problems.append(f"S3 limits sum to {total} for {tau}")
            break

    mults = {
        "123": ("12", 2), "132": ("12", 1), "213": ("12", 1),
        "231": ("21", 1), "312": ("21", 1), "321": ("21", 2),
    }
    for _ in range(100):
        tau = random_perm(rng, rng.randint(3, 10))
        a, b, c = abc_coefficients(tau.n)
        for p in PATTERNS_3:
            pair, mult = mults[str(p)]
            expect = a * density(p, tau) + mult * b * density(pair, tau) + c
            if limit_density_uniform(p, tau) != expect:
                problems.append(f"linear form fails for {p} on {tau}")
                break

    for _ in range(500):
        gamma = random_perm(rng, rng.randint(1, 12))
        pi = random_perm(rng, rng.randint(1, min(4, gamma.n)))
        if density(pi, gamma) != density(rotate(pi), rotate(gamma)):
            problems.append(f"rotation lemma fails for ({pi}, {gamma})")
            break

    for k in range(1, 7):
        for tup in permutations(range(1, k + 1)):
            pi = Perm(tup)
            for bp in block_partitions(pi):
                if generalized_inflate(bp.outer, bp.inner) != pi:
                    problems.append(f"reconstruction fails for {pi}")
                    break

    for _ in range(200):
        tau = random_perm(rng, rng.randint(1, 5))
        gamma = random_perm(rng, rng.randint(1, 5))
        delta = random_perm(rng, rng.randint(1, 5))
        if inflate(inflate(tau, gamma), delta) != inflate(tau, inflate(gamma, delta)):
            problems.append(f"associativity fails for ({tau},{gamma},{delta})")
            break

    _finish(8, "property suites", problems, t0, 120.0,
            "1000 count checks, 100+100 limit identities, 500 rotations, "
            "all partitions to length 6, 200 associativity triples")

import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inflatable.core
import inflatable.montecarlo as montecarlo
from inflatable import (
    EXACT_CELL_CAP,
    GENERATOR_ID,
    Estimate,
    Perm,
    all_patterns,
    count_occurrences,
    estimate_limit_density,
    inflate,
    limit_density_uniform,
)


def test_reproducible_across_calls():
    a = estimate_limit_density("132", "12", j=50, samples=8, seed=3)
    b = estimate_limit_density("132", "12", j=50, samples=8, seed=3)
    assert a == b
    c = estimate_limit_density("132", "12", j=50, samples=8, seed=4)
    assert c.mean != a.mean


def test_estimate_fields():
    e = estimate_limit_density("21", "12", j=30, samples=5, seed=11)
    assert isinstance(e, Estimate)
    assert e.samples == 5 and e.j == 30 and e.seed == 11
    assert e.generator == GENERATOR_ID
    assert 0.0 <= e.mean <= 1.0
    assert e.stderr >= 0.0


def test_validation_errors():
    with pytest.raises(ValueError, match="smaller than the pattern length"):
        estimate_limit_density("132", "123", j=2, samples=3)
    with pytest.raises(ValueError, match="samples"):
        estimate_limit_density("132", "12", j=10, samples=0)
    with pytest.raises(ValueError, match="subset_samples"):
        estimate_limit_density("132", "12", j=10, samples=1, subset_samples=-1)
    with pytest.raises(ValueError, match="<= 3"):
        estimate_limit_density("132", "1234", j=10, samples=1)
    oversize = EXACT_CELL_CAP // 3 + 1  # |tau| * j just past the cap
    with pytest.raises(ValueError, match=str(EXACT_CELL_CAP)):
        estimate_limit_density("132", "12", j=oversize, samples=1)
    # the same size is fine once subset sampling is requested
    e = estimate_limit_density("132", "12", j=oversize, samples=2, subset_samples=50)
    assert 0.0 <= e.mean <= 1.0


def test_degenerate_pattern_and_single_sample():
    e = estimate_limit_density("132", "1", j=20, samples=6)
    assert e.mean == 1.0 and e.stderr == 0.0
    single = estimate_limit_density("132", "12", j=20, samples=1)
    assert math.isnan(single.stderr)


def test_exact_mode_matches_direct_count():
    # a two-point host distribution worked out by hand: inflating 12 by a
    # random lambda of length 2 yields 1234 or 2143, with ascending pair
    # densities 1 and 2/3
    e = estimate_limit_density("12", "12", j=2, samples=400, seed=1)
    lo, hi = 2.0 / 3.0, 1.0
    assert lo <= e.mean <= hi
    # each per-sample value must be one of the two admissible densities,
    # which forces the mean into the lattice {2/3 + k/1200}
    steps = round((e.mean - lo) * 1200)
    assert abs(e.mean - (lo + steps / 1200)) < 1e-12
    assert count_occurrences("12", "2143") == 4


def test_exact_mode_approaches_limit():
    # the exact limit for this inflation is 11/18
    limit = float(limit_density_uniform("12", "132"))
    assert abs(limit - 11 / 18) < 1e-12
    e = estimate_limit_density("132", "12", j=150, samples=20, seed=0)
    # bias is O(1/j); the observed spread keeps a wide margin
    assert abs(e.mean - limit) < 0.03
    assert e.stderr < 0.02


def test_subset_sampling_agrees_with_exact():
    # the per-sample hosts are identical (same seed, same draw order), so
    # the two estimates differ only by subset-sampling noise
    exact = estimate_limit_density("132", "123", j=40, samples=10, seed=5)
    sub = estimate_limit_density(
        "132", "123", j=40, samples=10, subset_samples=4000, seed=5
    )
    assert abs(exact.mean - sub.mean) < 0.02


def test_sampled_hosts_are_uniform():
    # chi-square on the exact 123-density of inflate(1, lambda) for
    # lambda drawn over S4: the module's per-sample generators must
    # reproduce the uniform distribution over the 24 permutations
    dist: dict = {}
    for lam in permutations(range(1, 5)):
        d = Fraction(count_occurrences("123", lam), 4)
        dist[d] = dist.get(d, 0) + 1
    draws = 2400
    observed: dict = {d: 0 for d in dist}
    for s in range(draws):
        e = estimate_limit_density("1", "123", j=4, samples=1, seed=s)
        observed[Fraction(e.mean).limit_denominator(4)] += 1
    chi2 = 0.0
    for d, weight in dist.items():
        expected = draws * weight / 24
        chi2 += (observed[d] - expected) ** 2 / expected
    df = len(dist) - 1
    # cells are the four achievable counts 0, 1, 2, 4; critical value for
    # df = 3 at alpha = 0.001
    assert df == 3
    assert chi2 < 16.266, chi2


def test_host_identity_inflation_by_singleton():
    # tau = 1 makes the host exactly lambda, so the estimate is the mean
    # 21-density of uniform permutations: 1/2 in expectation
    e = estimate_limit_density("1", "21", j=12, samples=200, seed=2)
    assert abs(e.mean - 0.5) < 0.05
    assert e.stderr > 0.0


def test_value_range_with_subset_sampling():
    e = estimate_limit_density("4231", "123", j=25, samples=3, subset_samples=100, seed=9)
    assert 0.0 <= e.mean <= 1.0
    assert e.samples == 3


def test_estimates_are_bit_for_bit_pinned():
    # (tau, pi, j, samples, subset_samples, seed) -> (mean, stderr) as hex,
    # recorded before the exact mode moved onto density(): a change in the
    # per-sample counting or the subset test must not move a single bit
    pinned = {
        ("12", "1", 2, 7, 0, 4): ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("1", "12", 2, 9, 0, 4): ("0x1.8e38e38e38e39p-1", "0x1.2d0717a82a45ep-3"),
        ("21", "12", 30, 5, 0, 11): ("0x1.0758eb93ee2e6p-2", "0x1.6de6f6c62dc47p-7"),
        ("132", "12", 50, 8, 0, 3): ("0x1.38e4887113441p-1", "0x1.9eed332623d42p-8"),
        ("132", "123", 40, 10, 0, 5): ("0x1.c631cd230c7c6p-3", "0x1.7347bf3104ab7p-8"),
        ("321", "231", 60, 6, 0, 7): ("0x1.863f02cc9d14bp-3", "0x1.dd37b6eaf17e8p-9"),
        ("132", "123", 40, 10, 4000, 5): ("0x1.c5a1cac083126p-3", "0x1.b6489267a869ep-8"),
        ("4231", "123", 25, 3, 100, 9): ("0x1.1111111111111p-4", "0x1.b4e81b4e81b4fp-7"),
        # benchmark scale, recorded while subset mode still called rng.sample
        # on a built host: the perfbench op, the README CLI example, a host
        # small enough for sample()'s pool branch, and k = 6 on its set branch
        ("472951836", "132", 2000, 20, 5000, 7): ("0x1.6e33eff195033p-3", "0x1.597cda1291276p-10"),
        ("472951836", "132", 2000, 50, 5000, 0): ("0x1.6d4e4c942d491p-3", "0x1.a1a3cba0a7e95p-11"),
        ("1", "21", 12, 40, 30, 3): ("0x1.f17e4b17e4b18p-2", "0x1.5d325af1d7e10p-6"),
        ("21", "654321", 60, 4, 2000, 6): ("0x1.4395810624dd3p-6", "0x1.7127ca687fd7cp-8"),
        # patterns of length 7 and 8, recorded while each subset was still
        # sorted by np.sort(idx, axis=1)
        ("4231576", "4231576", 15, 4, 2000, 3): ("0x1.4bc6a7ef9db22p-6", "0x1.0e363bd1ea4e4p-10"),
        ("35172846", "35172846", 20, 4, 2000, 8): ("0x1.47ae147ae147bp-9", "0x1.ac1450e627b21p-13"),
    }
    for (tau, pi, j, samples, subset, seed), (mean, err) in pinned.items():
        e = estimate_limit_density(
            tau, pi, j=j, samples=samples, subset_samples=subset, seed=seed
        )
        assert (e.mean.hex(), e.stderr.hex()) == (mean, err), (tau, pi, j)


def test_shuffle_matches_random_shuffle():
    # every length to 70, each side of the powers of two up to 4096 (where
    # the bits per word change and about half the words are rejected), and
    # the benchmark's j = 2000; the list and the generator's state after
    # must both match, so every later draw reads the same stream
    lengths = [*range(71), *(2**k + d for k in range(1, 13) for d in (-1, 0, 1)), 2000]
    for n in lengths:
        for seed in ("a", "b", "c", f"{n}:0"):
            rng, want = random.Random(seed), list(range(n))
            rng.shuffle(want)
            bulk, got = random.Random(seed), list(range(n))
            montecarlo._shuffle(bulk, got)
            assert got == want and bulk.getstate() == rng.getstate(), (n, seed)


def _sample_rows(seed: str, n: int, k: int, count: int) -> tuple:
    rng = random.Random(seed)
    want = [rng.sample(range(n), k) for _ in range(count)]
    blocks = montecarlo._subset_draws(random.Random(seed), n, k, count)
    return [row for block in blocks for row in block.tolist()], want


def test_subset_draws_match_random_sample():
    # n up to 100 crosses sample()'s pool thresholds (n <= 21, and n <= 85
    # once k > 5); small n makes repeated indices, and so the redraw
    # replay, frequent
    for n in range(1, 101):
        for k in range(1, min(n, 6) + 1):
            got, want = _sample_rows(f"{n}:{k}", n, k, 40)
            assert got == want, (n, k)
    # a power of two and one past it (about half the words rejected), the
    # benchmark's 9 * 2000 host, and a population whose candidates take all
    # 32 bits of a word
    for n in (2**15, 2**15 + 1, 18000, 2**31 + 1):
        got, want = _sample_rows(f"{n}", n, 3, 400)
        assert got == want, n
    # more rows than one block holds, on both of sample()'s branches
    for n in (18000, 21):
        got, want = _sample_rows("blocks", n, 3, montecarlo._DRAW_ROWS + 5)
        assert got == want, n


def test_sorted_columns_equal_the_row_sort():
    # the compare-exchange network against np.sort on seeded blocks, with
    # repeated values (a small range) and without
    gen = np.random.default_rng(29)
    for k in range(1, 13):
        for high in (4, 2**40):
            idx = gen.integers(0, high, size=(300, k))
            got = montecarlo._sorted_columns(idx)
            assert len(got) == k
            assert (np.array(got) == np.sort(idx, axis=1).T).all(), (k, high)


def test_subset_mode_leaves_numpy_random_unimported():
    # the subset draws replay Python's MT19937 and never need numpy.random,
    # whose import would add about 2 MB to the estimator's peak memory;
    # numpy 1.x imports it with numpy itself, numpy 2.x does not
    def loaded(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys\n{code}\nprint('numpy.random' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    estimate = loaded(
        "from inflatable import estimate_limit_density\n"
        "estimate_limit_density('472951836', '132', j=2000, samples=2, subset_samples=500, seed=7)"
    )
    bare = loaded("import numpy")
    assert estimate == bare
    if int(np.__version__.split(".")[0]) >= 2:
        assert estimate == "False"


def test_integer_arguments_are_checked():
    for name in ("j", "samples", "subset_samples", "seed"):
        kwargs = {"j": 10, "samples": 2, "subset_samples": 5, "seed": 1}
        kwargs[name] = True
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            estimate_limit_density("132", "12", **kwargs)
        kwargs[name] = 1.0
        with pytest.raises(TypeError):
            estimate_limit_density("132", "12", **kwargs)
    # an integer-like object is read as its int, seed included
    e = estimate_limit_density("132", "12", j=np.int64(10), samples=2, seed=np.int64(1))
    assert type(e.seed) is int and type(e.j) is int
    assert e == estimate_limit_density("132", "12", j=10, samples=2, seed=1)


def test_exact_mode_counts_no_host_and_no_limit_sum(monkeypatch):
    # exact mode is the check of the limit formula that does not depend on
    # it: it never builds the host, never goes through density(), and sums
    # over block partitions, not the limit formula's forward sum; _fill
    # counts tau once and then each sample's lambda
    def refuse(*args):
        raise AssertionError("exact mode went through a refused path")

    for name in ("density", "inflate", "_inflation_sums"):
        monkeypatch.setattr(inflatable.core, name, refuse)
        monkeypatch.setattr(montecarlo, name, refuse, raising=False)
    hosts = []
    fill = inflatable.core._fill

    def counted(tau, s, tables):
        hosts.append(tau)
        return fill(tau, s, tables)

    monkeypatch.setattr(inflatable.core, "_fill", counted)
    monkeypatch.setattr(montecarlo, "_fill", counted)
    e = estimate_limit_density("132", "123", j=40, samples=10, seed=5)
    lams = []
    for i in range(10):
        lam = list(range(1, 41))
        montecarlo._shuffle(random.Random(f"5:{i}"), lam)
        lams.append(Perm(lam))
    assert hosts == [Perm("132"), *lams]
    assert (e.mean.hex(), e.stderr.hex()) == ("0x1.c631cd230c7c6p-3", "0x1.7347bf3104ab7p-8")


# seeds whose one-sample lambda of length j splits (core._split_inflation),
# so _fill counts it from its factors; at (8, 565) a factor splits again
SPLIT_SEEDS = ((4, 7), (6, 50), (8, 305), (8, 565), (9, 32446), (10, 2728))


@settings(max_examples=60, deadline=None)
@given(
    tau=st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(Perm),
    drawn=st.tuples(st.integers(1, 10), st.integers(0, 2**32)),
)
@example(tau=Perm("1"), drawn=SPLIT_SEEDS[0])
@example(tau=Perm("3412"), drawn=SPLIT_SEEDS[1])
@example(tau=Perm("21"), drawn=SPLIT_SEEDS[2])
@example(tau=Perm("132"), drawn=SPLIT_SEEDS[3])
@example(tau=Perm("231"), drawn=SPLIT_SEEDS[4])
@example(tau=Perm("2413"), drawn=SPLIT_SEEDS[5])
def test_one_sample_matches_its_built_host(tau, drawn):
    j, seed = drawn
    lam = list(range(1, j + 1))
    montecarlo._shuffle(random.Random(f"{seed}:0"), lam)
    if drawn in SPLIT_SEEDS:
        assert inflatable.core._split_inflation(Perm(lam)) is not None
    host = inflate(tau, lam)
    for k in range(1, min(3, j) + 1):
        for p in all_patterns(k):
            e = estimate_limit_density(tau, p, j=j, samples=1, seed=seed)
            assert e.mean == count_occurrences(p, host) / math.comb(host.n, k), (p, lam)

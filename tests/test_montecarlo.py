import math
from fractions import Fraction
from itertools import permutations

import pytest

from inflatable import (
    EXACT_CELL_CAP,
    GENERATOR_ID,
    Estimate,
    Perm,
    count_occurrences,
    estimate_limit_density,
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
    }
    for (tau, pi, j, samples, subset, seed), (mean, err) in pinned.items():
        e = estimate_limit_density(
            tau, pi, j=j, samples=samples, subset_samples=subset, seed=seed
        )
        assert (e.mean.hex(), e.stderr.hex()) == (mean, err), (tau, pi, j)

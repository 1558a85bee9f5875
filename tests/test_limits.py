import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inflatable import (
    DensityProfile,
    PATTERNS_3,
    Perm,
    abc_coefficients,
    all_patterns,
    block_partitions,
    count_occurrences,
    density,
    limit_density_inflation,
    limit_density_uniform,
    rotate,
    uniform_profile,
)
from util import random_perm, record_count3_calls


def test_uniform_profile_contents():
    prof = uniform_profile(3)
    assert prof["1"] == 1
    assert prof["12"] == Fraction(1, 2)
    assert prof["321"] == Fraction(1, 6)
    assert prof.covers(3) and not prof.covers(4)


def test_profile_validation():
    with pytest.raises(ValueError, match="incomplete"):
        DensityProfile({"12": Fraction(1, 2)})
    with pytest.raises(ValueError, match="sum"):
        DensityProfile({"12": Fraction(2, 3), "21": Fraction(2, 3), "1": 1})
    with pytest.raises(ValueError, match="sum"):
        DensityProfile({"1": Fraction(1, 2)})
    with pytest.raises(ValueError, match="out of"):
        DensityProfile({"12": Fraction(3, 2), "21": Fraction(-1, 2), "1": 1})
    with pytest.raises(ValueError, match="not a rational"):
        DensityProfile({"12": 0.5, "21": 0.5, "1": 1})
    with pytest.raises(ValueError, match="zero denominator"):
        DensityProfile({"1": "1/0", "12": "1/2", "21": "1/2"})
    # "12" and "1,2" name the same pattern
    with pytest.raises(ValueError, match="duplicate"):
        DensityProfile({"1": 1, "12": "1/2", "1,2": "1/2", "21": "1/2"})
    for max_len in (0, 7):
        with pytest.raises(ValueError, match="max_len"):
            uniform_profile(max_len)
    prof = DensityProfile({"12": "1/3", "21": "2/3", "1": "1"})
    assert prof["21"] == Fraction(2, 3)


def test_profile_from_json():
    prof = DensityProfile.from_json('{"1": "1", "12": "1/2", "21": "1/2"}')
    assert prof["12"] == Fraction(1, 2)
    with pytest.raises(ValueError, match="object"):
        DensityProfile.from_json('[1, 2]')


def test_worked_example_length9():
    tau = Perm("472951836")
    assert limit_density_uniform("132", tau) == Fraction(29, 162)
    assert limit_density_uniform("123", tau) == Fraction(23, 162)
    assert limit_density_uniform("213", tau) == Fraction(29, 162)
    assert limit_density_uniform("231", tau) == Fraction(29, 162)
    assert limit_density_uniform("312", tau) == Fraction(29, 162)
    assert limit_density_uniform("321", tau) == Fraction(23, 162)


def test_pair_limit_closed_form():
    # for pi = 12 the formula collapses to
    # (2/n^2) (C(n,2) t(12,tau) + n s / 2) with s the profile's 12-density
    rng = random.Random(31)
    for _ in range(40):
        tau = random_perm(rng, rng.randint(2, 9))
        s = Fraction(rng.randint(0, 8), 8)
        prof = DensityProfile({"1": 1, "12": s, "21": 1 - s})
        n = tau.n
        t12 = density("12", tau)
        closed = Fraction(2, n**2) * (comb(n, 2) * t12 + Fraction(n * s, 2))
        assert limit_density_inflation("12", tau, prof) == closed
    # the direct small case: n = 3, tau = 132, s = 1/2 gives 11/18
    prof = DensityProfile({"1": 1, "12": Fraction(1, 2), "21": Fraction(1, 2)})
    assert limit_density_inflation("12", "132", prof) == Fraction(11, 18)


def test_fixed_point_of_quasirandom_profile():
    # a profile already at the uniform densities must be a fixed point when
    # tau itself has uniform densities; the monotone host of length 1 is
    # the degenerate check: inflating 1 by gamma gives gamma back
    for k in range(1, 5):
        prof = uniform_profile(k)
        for p in all_patterns(k):
            assert limit_density_inflation(p, "1", prof) == prof[p]


def test_singleton_tau_returns_profile():
    prof = DensityProfile(
        {"1": 1, "12": Fraction(1, 4), "21": Fraction(3, 4)}
    )
    assert limit_density_inflation("12", "1", prof) == Fraction(1, 4)
    assert limit_density_inflation("21", "1", prof) == Fraction(3, 4)


def test_limits_sum_to_one_each_length():
    rng = random.Random(32)
    for _ in range(30):
        tau = random_perm(rng, rng.randint(2, 10))
        total2 = sum(limit_density_uniform(p, tau) for p in all_patterns(2))
        assert total2 == 1
        total3 = sum(limit_density_uniform(p, tau) for p in PATTERNS_3)
        assert total3 == 1


def test_abc_values_length9():
    a, b, c = abc_coefficients(9)
    assert a == Fraction(56, 81)
    assert b == Fraction(2, 27)
    assert c == Fraction(1, 486)
    with pytest.raises(ValueError):
        abc_coefficients(2)


def test_linear_forms():
    # each length-3 limit is a t(pi) + mult b t(pair) + c
    rng = random.Random(33)
    mults = {
        "123": ("12", 2), "132": ("12", 1), "213": ("12", 1),
        "231": ("21", 1), "312": ("21", 1), "321": ("21", 2),
    }
    for _ in range(30):
        tau = random_perm(rng, rng.randint(3, 10))
        a, b, c = abc_coefficients(tau.n)
        for p in PATTERNS_3:
            pair, mult = mults[str(p)]
            expect = a * density(p, tau) + mult * b * density(pair, tau) + c
            assert limit_density_uniform(p, tau) == expect, (p, tau)


def test_rotation_compatibility():
    # rotating tau rotates the limit densities
    rng = random.Random(34)
    for _ in range(25):
        tau = random_perm(rng, rng.randint(2, 9))
        for p in PATTERNS_3:
            assert limit_density_uniform(p, tau) == limit_density_uniform(
                rotate(p), rotate(tau)
            )


def test_profile_coverage_errors():
    prof = uniform_profile(2)
    with pytest.raises(ValueError, match="lacks"):
        limit_density_inflation("123", "132", prof)
    with pytest.raises(ValueError, match="caps"):
        limit_density_uniform("1234567", "1234567")
    # limit_density_uniform checks the cap before it builds a profile, so
    # limit_density_inflation's own check is reached only directly
    with pytest.raises(ValueError, match="caps at 6, got 7"):
        limit_density_inflation("1234567", "12", prof)


def test_term_skipping_when_sigma_exceeds_tau():
    # |tau| = 2 cannot host length-3 outer patterns; formula still exact
    val = limit_density_uniform("123", "12")
    # by hand: partitions of 123 with sigma length <= 2 contribute
    # sigma=12 twice (C(2,2) t(12,12) = 1 each, weights 1 * 1/4) and
    # sigma=1 once (2 * 1 * 1/36): (6/8) * (1/4 + 1/4 + 1/18) = 5/12
    assert val == Fraction(5, 12)


def test_parse_rational_rejects_floats():
    from inflatable.limits import parse_rational
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(2) == Fraction(2)
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_zero_denominators_and_wrong_types_are_not_rationals():
    from inflatable.limits import parse_rational
    with pytest.raises(ValueError, match="'1/0'.*zero denominator"):
        parse_rational("1/0")
    # a wrong type is told what is accepted
    for value in (None, [1, 2], {"p": 1}):
        with pytest.raises(ValueError, match="accepted: an int .* a Fraction"):
            parse_rational(value)


def test_bools_are_not_rationals():
    from inflatable.limits import parse_rational
    for value in (True, False):
        with pytest.raises(ValueError, match="bool"):
            parse_rational(value)
    with pytest.raises(ValueError, match="bool"):
        DensityProfile({"1": True, "12": "1/2", "21": "1/2"})
    with pytest.raises(ValueError, match="bool"):
        DensityProfile.from_json('{"1": true, "12": "1/2", "21": "1/2"}')


def test_limit_sum_counts_lengths_2_and_3_at_once(monkeypatch):
    # the host's length-2 and length-3 tables come from one count
    calls = record_count3_calls(monkeypatch)
    assert limit_density_uniform("1234", "472951836") == Fraction(521, 17496)
    assert calls == [Perm("472951836")]


def reference_limit(pi, tau, profile):
    """The limit sum term by term, counting each sigma by direct enumeration."""
    p, t = Perm(pi), Perm(tau)
    n = t.n
    total = Fraction(0)
    for bp in block_partitions(p):
        if bp.outer.n > n:
            continue
        term = Fraction(count_occurrences(bp.outer, t))
        for alpha in bp.inner:
            term *= Fraction(profile[alpha], factorial(alpha.n))
        total += term
    return Fraction(factorial(p.n), n**p.n) * total


@st.composite
def perms(draw, min_len, max_len):
    n = draw(st.integers(min_len, max_len))
    return Perm(draw(st.permutations(range(1, n + 1))))


def skewed_profile(rng, max_len):
    """A valid profile with random, mostly non-uniform, weights per length."""
    entries = {}
    for k in range(1, max_len + 1):
        pats = all_patterns(k)
        weights = [rng.randint(0, 5) for _ in pats]
        weights[rng.randrange(len(pats))] += 1
        total = sum(weights)
        entries.update((q, Fraction(w, total)) for q, w in zip(pats, weights))
    return DensityProfile(entries)


@settings(max_examples=60, deadline=None)
@given(tau=perms(1, 9), pi=perms(1, 6), rng=st.randoms(use_true_random=False))
@example(tau=Perm("1"), pi=Perm("2413"), rng=random.Random(35))
@example(tau=Perm("21"), pi=Perm("132"), rng=random.Random(36))
@example(tau=Perm("3142"), pi=Perm("315264"), rng=random.Random(37))
def test_limit_matches_per_partition_reference(tau, pi, rng):
    # random hosts include lengths 1 and 2 and hosts shorter than the
    # pattern; the explicit examples pin one of each
    profile = skewed_profile(rng, pi.n)
    assert limit_density_inflation(pi, tau, profile) == reference_limit(pi, tau, profile)

import random
from fractions import Fraction
from math import comb

import pytest

from inflatable import (
    PATTERNS_3,
    Perm,
    admissible_residues,
    check_3_inflatable,
    compose_inflatables,
    count_length3_all,
    inflate,
    is_2_inflatable,
    limit_density_uniform,
    residue_multiplication_table,
    rotate,
    target_counts_3,
    target_densities_3,
)
from util import random_perm

G17 = Perm("G54ABC319HF678ED2")
E17 = Perm("E534BGA9HC2D1687F")


def test_targets_length17():
    td = target_densities_3(17)
    assert td[Perm("12")] == Fraction(1, 2)
    assert td[Perm("123")] == Fraction(3, 20)
    assert td[Perm("321")] == Fraction(3, 20)
    for p in ("132", "213", "231", "312"):
        assert td[Perm(p)] == Fraction(7, 40)
    tc = target_counts_3(17)
    assert tc[Perm("123")] == 102 and tc[Perm("321")] == 102
    assert all(tc[Perm(p)] == 119 for p in ("132", "213", "231", "312"))
    assert tc[Perm("12")] == 68
    assert sum(tc[p] for p in PATTERNS_3) == comb(17, 3) == 680


def test_targets_length9_not_integral():
    td = target_densities_3(9)
    assert td[Perm("123")] == Fraction(11, 84)
    assert td[Perm("132")] == Fraction(31, 168)
    # 31/168 * C(9,3) = 15.5: inadmissible
    assert target_counts_3(9) is None


def test_targets_length289():
    tc = target_counts_3(289)
    assert tc[Perm("123")] == 660076
    assert tc[Perm("321")] == 660076
    assert tc[Perm("132")] == 665278
    assert tc[Perm("12")] == 20808
    assert comb(289, 3) == 3981264


def test_target_densities_sum_to_one():
    for n in range(3, 60):
        td = target_densities_3(n)
        assert sum(td[p] for p in PATTERNS_3) == 1


def test_targets_follow_from_limit_fixed_point():
    # a permutation meeting the targets has quasirandom length-3 limits;
    # both known length-17 examples witness this through the exact formula
    for tau in (G17, E17):
        for p in PATTERNS_3:
            assert limit_density_uniform(p, tau) == Fraction(1, 6)
        assert limit_density_uniform("12", tau) == Fraction(1, 2)


def test_is_2_inflatable():
    assert is_2_inflatable("1")
    assert is_2_inflatable("472951836")
    assert is_2_inflatable("2413")
    assert is_2_inflatable("3142")
    assert not is_2_inflatable("2143")  # 4 ascents of 6, not 3
    assert not is_2_inflatable("12")
    assert not is_2_inflatable("123")
    assert is_2_inflatable(G17) and is_2_inflatable(E17)


def test_check_minimal_examples_pass():
    for tau in (G17, E17):
        rep = check_3_inflatable(tau)
        assert rep.verdict
        assert rep.admissible_length
        assert rep.length == 17
        assert rep.observed == rep.required
        assert rep.observed_counts[Perm("123")] == 102
        assert rep.observed_counts[Perm("12")] == 68


def test_check_length9_refutation():
    # the centrally symmetric length-9 candidate and both related strings
    # fail: no length-9 permutation can meet non-integral targets
    for s in ("472951836", "415927386", "638159274"):
        rep = check_3_inflatable(s)
        assert not rep.verdict
        assert not rep.admissible_length
    rep = check_3_inflatable("472951836")
    assert rep.observed[Perm("12")] == Fraction(1, 2)
    assert rep.observed[Perm("132")] == Fraction(17, 84)
    assert rep.required[Perm("132")] == Fraction(31, 168)


def test_check_degenerate_lengths():
    assert check_3_inflatable("1").verdict
    rep2 = check_3_inflatable("12")
    assert not rep2.verdict
    assert rep2.observed_counts[Perm("12")] == 1
    assert not check_3_inflatable("21").verdict


def test_check_consistent_with_rotation():
    rng = random.Random(41)
    for _ in range(40):
        tau = random_perm(rng, rng.randint(3, 9))
        a = check_3_inflatable(tau)
        b = check_3_inflatable(rotate(tau))
        assert a.verdict == b.verdict
        # counts transport along the rotation: 132 <-> 213, 231 <-> 312
        assert a.observed_counts[Perm("132")] == b.observed_counts[Perm("213")]
        assert a.observed_counts[Perm("231")] == b.observed_counts[Perm("312")]
        assert a.observed_counts[Perm("123")] == b.observed_counts[Perm("123")]


def test_admissible_residues_mod_144():
    assert admissible_residues(144) == [0, 1, 17, 64, 80, 81]
    assert admissible_residues() == [0, 1, 17, 64, 80, 81]


def test_admissibility_is_necessary_and_sufficient():
    rset = set(admissible_residues(144))
    for n in range(3, 300):
        assert (target_counts_3(n) is not None) == (n % 144 in rset), n


def test_admissibility_is_periodic_mod_144():
    # admissible_residues reads one period of target_counts_3
    for n in range(3, 5000):
        assert (target_counts_3(n) is None) == (target_counts_3(n + 144) is None), n


def test_admissible_residues_other_moduli():
    # a residue passes only when every lift passes
    r288 = set(admissible_residues(288))
    rset = set(admissible_residues(144))
    for r in range(288):
        assert (r in r288) == (r % 144 in rset), r
    # modulus 1 has no all-admissible class (length 2 fails, for one)
    assert admissible_residues(1) == []
    assert admissible_residues(2) == []
    with pytest.raises(ValueError):
        admissible_residues(0)


def test_multiplication_table_entries():
    # the full table, entry for entry
    tab = residue_multiplication_table()
    rows = {
        0: [0, 0, 0, 0, 0, 0],
        1: [0, 1, 17, 64, 80, 81],
        17: [0, 17, 1, 80, 64, 81],
        64: [0, 64, 80, 64, 80, 0],
        80: [0, 80, 64, 80, 64, 0],
        81: [0, 81, 81, 0, 0, 81],
    }
    order = [0, 1, 17, 64, 80, 81]
    assert set(tab) == set(order)
    for r in order:
        assert [tab[r][s] for s in order] == rows[r]
    # closure: every product is itself admissible
    admissible = set(order)
    for r in order:
        for s in order:
            assert tab[r][s] in admissible


def test_compose_length_17_pair():
    out = compose_inflatables(G17, E17)
    assert out.n == 289
    assert out == inflate(G17, E17)
    rep = check_3_inflatable(out)
    assert rep.verdict


def test_check_length_83521_composition():
    # 17^4 = 83521: far past what pairwise counting reaches in a test
    host = compose_inflatables(compose_inflatables(G17, E17), compose_inflatables(E17, G17))
    assert host.n == 83521
    rep = check_3_inflatable(host)
    assert rep.verdict
    assert rep.observed_counts == target_counts_3(83521)


def test_compose_rejects_and_names_bad_input():
    with pytest.raises(ValueError, match="first"):
        compose_inflatables("12", G17)
    with pytest.raises(ValueError, match="second"):
        compose_inflatables(G17, "472951836")


def test_compose_identity():
    assert compose_inflatables("1", G17) == G17
    assert compose_inflatables(G17, "1") == G17


def test_verdict_against_brute_scan():
    # confirm the checker by brute force at tiny lengths: no permutation of
    # an inadmissible length passes, and verdicts match first principles
    rng = random.Random(42)
    for _ in range(200):
        tau = random_perm(rng, rng.randint(3, 8))
        rep = check_3_inflatable(tau)
        assert not rep.verdict  # lengths 3..8 are all inadmissible
        assert rep.observed_counts[Perm("123")] == count_length3_all(tau).counts[Perm("123")]

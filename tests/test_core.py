import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from inflatable import core
from inflatable import (
    PATTERNS_3,
    Perm,
    all_patterns,
    check_3_inflatable,
    count_length3_all,
    count_occurrences,
    density,
    format_permutation,
    generalized_inflate,
    inflate,
    is_centrally_symmetric,
    parse_permutation,
    pattern_of,
    rotate,
)
from util import brute_counts3, random_perm, record_count3_calls


def test_parse_compact_and_comma_agree():
    assert parse_permutation("312") == Perm((3, 1, 2))
    assert parse_permutation("3,1,2") == Perm((3, 1, 2))
    assert parse_permutation("G54ABC319HF678ED2").n == 17
    assert parse_permutation("E534BGA9HC2D1687F").n == 17


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError, match="duplicate"):
        parse_permutation("122")
    with pytest.raises(ValueError, match="out of range"):
        parse_permutation("1,2,9")
    with pytest.raises(ValueError, match="invalid character"):
        parse_permutation("1a2")
    with pytest.raises(ValueError):
        parse_permutation("1,,2")
    with pytest.raises(ValueError):
        parse_permutation("0,1")
    with pytest.raises(ValueError, match="non-empty"):
        Perm(())
    with pytest.raises(ValueError, match="must be integers"):
        Perm([1.0])


def test_format_round_trip():
    rng = random.Random(11)
    for n in (1, 2, 9, 35, 36, 80):
        p = random_perm(rng, n)
        assert parse_permutation(format_permutation(p, "comma")) == p
        if n <= 35:
            assert parse_permutation(format_permutation(p, "compact")) == p
        else:
            with pytest.raises(ValueError, match="compact"):
                format_permutation(p, "compact")
    with pytest.raises(ValueError, match="unknown style"):
        format_permutation("12", style="x")


def test_format_compact_symbols():
    # value 10 and up use letters
    p = Perm(tuple(range(1, 18)))
    assert format_permutation(p) == "123456789ABCDEFGH"


def test_pattern_of():
    assert pattern_of((4, 7, 2)) == Perm("231")
    assert pattern_of((10,)) == Perm("1")
    with pytest.raises(ValueError):
        pattern_of((3, 3))
    with pytest.raises(ValueError, match="non-empty"):
        pattern_of(())
    with pytest.raises(ValueError, match="k must be >= 1"):
        all_patterns(0)


def test_inflate_worked_examples():
    assert inflate("12", "312") == Perm("312645")
    assert inflate("312", "12") == Perm("561234")
    assert inflate("1", "2413") == Perm("2413")
    assert inflate("21", "1") == Perm("21")


def test_inflate_block_structure():
    rng = random.Random(3)
    for _ in range(25):
        t = random_perm(rng, rng.randint(1, 6))
        g = random_perm(rng, rng.randint(1, 6))
        out = inflate(t, g)
        m = g.n
        assert out.n == t.n * m
        for i in range(t.n):
            block = out[i * m:(i + 1) * m]
            # each block is a copy of g occupying one value interval
            assert pattern_of(block) == g
            assert max(block) - min(block) + 1 == m
            assert min(block) == m * (t[i] - 1) + 1
        # the blocks, as intervals, are ordered like t
        assert pattern_of([out[i * m] for i in range(t.n)]) == pattern_of(t)


def test_generalized_inflate_examples():
    # uneven blocks; the block at the entry with rank r gets the r-th
    # lowest value interval
    assert generalized_inflate("231", ("12", "213", "1")) == Perm("235461")
    assert generalized_inflate("231", ("12", "231", "1")) == Perm("235641")
    assert generalized_inflate("21", ("1", "12")) == Perm("312")
    assert generalized_inflate("1", ("54321",)) == Perm("54321")


def test_generalized_inflate_matches_uniform():
    rng = random.Random(5)
    for _ in range(20):
        t = random_perm(rng, rng.randint(1, 5))
        g = random_perm(rng, rng.randint(1, 5))
        assert generalized_inflate(t, [g] * t.n) == inflate(t, g)


def test_generalized_inflate_definition_properties():
    rng = random.Random(6)
    for _ in range(30):
        t = random_perm(rng, rng.randint(1, 5))
        blocks = [random_perm(rng, rng.randint(1, 4)) for _ in range(t.n)]
        out = generalized_inflate(t, blocks)
        sizes = [b.n for b in blocks]
        assert out.n == sum(sizes)
        pos = 0
        starts = []
        for i, b in enumerate(blocks):
            seg = out[pos:pos + sizes[i]]
            assert pattern_of(seg) == b
            assert max(seg) - min(seg) + 1 == sizes[i]
            starts.append(min(seg))
            pos += sizes[i]
        assert pattern_of(starts) == pattern_of(t)


def test_generalized_inflate_block_count_mismatch():
    with pytest.raises(ValueError, match="blocks"):
        generalized_inflate("21", ("1",))


def test_rotate_on_s3():
    images = {"123": "123", "321": "321", "132": "213",
              "213": "132", "231": "312", "312": "231"}
    for src, dst in images.items():
        assert rotate(src) == Perm(dst)


def test_rotate_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = random_perm(rng, rng.randint(1, 12))
        assert rotate(rotate(p)) == p


def test_central_symmetry():
    assert is_centrally_symmetric("472951836")
    assert is_centrally_symmetric("G54ABC319HF678ED2")
    assert not is_centrally_symmetric("E534BGA9HC2D1687F")
    assert is_centrally_symmetric("1")
    assert is_centrally_symmetric("21")
    assert not is_centrally_symmetric("312")
    # fixed points of rotation are exactly the centrally symmetric ones
    rng = random.Random(8)
    for _ in range(60):
        p = random_perm(rng, rng.randint(1, 9))
        assert is_centrally_symmetric(p) == (rotate(p) == p)


def test_count_occurrences_paper_values():
    tau = Perm("472951836")
    assert count_occurrences("132", tau) == 17
    assert count_occurrences("123", tau) == 8
    assert count_occurrences("12", "132") == 2
    assert count_occurrences("12", tau) == 18
    assert count_occurrences("1234", "123") == 0  # pattern longer than host
    assert count_occurrences("1", "54321") == 5


def test_density_examples():
    assert density("12", "132") == Fraction(2, 3)
    assert density("12", "472951836") == Fraction(1, 2)
    assert density("1", "312") == Fraction(1)
    with pytest.raises(ValueError):
        density("123", "12")
    # lengths 2 and 3 on hosts of length >= 3 come from the length-3
    # counter, everything else from the host's subset tally
    rng = random.Random(16)
    for k in range(1, 5):
        for pi in permutations(range(1, k + 1)):
            for n in range(k, 13):
                tau = random_perm(rng, n)
                assert density(pi, tau) == Fraction(count_occurrences(pi, tau), comb(n, k))


def test_occurrence_table_matches_count_occurrences():
    # every pattern of length 1..5 on hosts of length 1..9, the hosts
    # shorter than 3 and than the pattern included
    rng = random.Random(17)
    for n in range(1, 10):
        for _ in range(2):
            tau = random_perm(rng, n)
            for k in range(1, 6):
                table = core._occurrences(tau, k)
                assert sum(table.values()) == comb(n, k)
                for pi in all_patterns(k):
                    assert table.get(pi, 0) == count_occurrences(pi, tau)


def test_check_and_density_share_one_count(monkeypatch):
    calls = record_count3_calls(monkeypatch)
    host = Perm("G54ABC319HF678ED2")
    assert check_3_inflatable(host).verdict
    assert density("132", host) == Fraction(119, 680)
    assert calls == [host]


def test_count_length3_all_anchor():
    pc = count_length3_all("472951836")
    expected = {"123": 8, "132": 17, "213": 17, "231": 17, "312": 17, "321": 8}
    assert {str(k): v for k, v in pc.counts.items()} == expected
    assert pc.inv12 == 18
    assert pc.inv21 == 18
    assert sum(pc.counts.values()) == comb(9, 3)


def test_count_length3_all_matches_brute():
    rng = random.Random(12)
    for _ in range(120):
        p = random_perm(rng, rng.randint(3, 22))
        pc = count_length3_all(p)
        bc, b12, b21 = brute_counts3(p)
        assert pc.counts == bc
        assert (pc.inv12, pc.inv21) == (b12, b21)


def test_count_length3_all_extremes():
    up = count_length3_all(tuple(range(1, 11)))
    assert up.counts[Perm("123")] == comb(10, 3)
    assert sum(v for k, v in up.counts.items() if k != Perm("123")) == 0
    down = count_length3_all(tuple(range(10, 0, -1)))
    assert down.counts[Perm("321")] == comb(10, 3)
    with pytest.raises(ValueError):
        count_length3_all("12")


def test_density_of_helper():
    pc = count_length3_all("472951836")
    assert pc.density_of("12") == Fraction(1, 2)
    assert pc.density_of("132") == Fraction(17, 84)


def test_rotation_lemma_counts():
    # occurrences transport along the 180-degree rotation
    rng = random.Random(13)
    for _ in range(80):
        g = random_perm(rng, rng.randint(2, 10))
        k = rng.randint(1, min(4, g.n))
        p = random_perm(rng, k)
        assert count_occurrences(p, g) == count_occurrences(rotate(p), rotate(g))


def test_centrally_symmetric_count_pairing():
    # for centrally symmetric hosts the rotation fixes the host, so counts
    # pair up as 132 with 213 and 231 with 312 (123 and 321 are self-paired)
    rng = random.Random(14)
    cases = 0
    for _ in range(300):
        p = random_perm(rng, rng.randint(3, 7))
        if not is_centrally_symmetric(p):
            continue
        cases += 1
        pc = count_length3_all(p)
        assert pc.counts[Perm("132")] == pc.counts[Perm("213")]
        assert pc.counts[Perm("231")] == pc.counts[Perm("312")]
        assert pc.inv12 == count_occurrences("12", p)
    assert cases >= 3
    # directed example: counts are NOT forced equal across the 132/231 divide
    pc = count_length3_all((1, 4, 3, 2, 5))
    assert pc.counts[Perm("132")] == 3 and pc.counts[Perm("213")] == 3
    assert pc.counts[Perm("231")] == 0 and pc.counts[Perm("312")] == 0


def test_inflation_associativity():
    rng = random.Random(15)
    for _ in range(40):
        a = random_perm(rng, rng.randint(1, 4))
        b = random_perm(rng, rng.randint(1, 4))
        c = random_perm(rng, rng.randint(1, 4))
        assert inflate(inflate(a, b), c) == inflate(a, inflate(b, c))


def test_perm_is_a_tuple():
    p = Perm("312")
    assert isinstance(p, tuple)
    assert p[0] == 3 and len(p) == 3
    assert repr(p) == "Perm('312')"
    assert str(Perm(tuple(range(1, 40)))).count(",") == 38

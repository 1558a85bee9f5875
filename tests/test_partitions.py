import random
from itertools import combinations, permutations

import pytest

from inflatable import Perm, block_partitions, generalized_inflate, pattern_of
from util import random_perm


def brute_force_partitions(p):
    """Reference: filter all 2^(n-1) compositions of |p| for interval segments.

    Returns (outer, inner, sizes) triples ordered lexicographically by sizes.
    """
    n = p.n
    out = []
    for cuts in range(n):
        for cut_positions in combinations(range(1, n), cuts):
            bounds = (0,) + cut_positions + (n,)
            segments = [p[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
            if all(max(seg) - min(seg) + 1 == len(seg) for seg in segments):
                out.append(
                    (
                        pattern_of([min(seg) for seg in segments]),
                        tuple(pattern_of(seg) for seg in segments),
                        tuple(len(seg) for seg in segments),
                    )
                )
    out.sort(key=lambda triple: triple[2])
    return out


def test_matches_brute_force_for_every_permutation_to_7():
    for n in range(1, 8):
        for vals in permutations(range(1, n + 1)):
            p = Perm(vals)
            got = [(bp.outer, bp.inner, bp.sizes) for bp in block_partitions(p)]
            assert got == brute_force_partitions(p), p


def test_each_call_returns_a_fresh_list():
    first = block_partitions("2143")
    second = block_partitions("2143")
    assert first == second
    assert first is not second


def test_132_worked_example():
    bps = block_partitions("132")
    assert [bp.sizes for bp in bps] == [(1, 1, 1), (1, 2), (3,)]
    assert [str(bp.outer) for bp in bps] == ["132", "12", "1"]
    assert [tuple(str(b) for b in bp.inner) for bp in bps] == [
        ("1", "1", "1"),
        ("1", "21"),
        ("132",),
    ]


def test_counts_on_small_patterns():
    assert len(block_partitions("123")) == 4
    assert len(block_partitions("1")) == 1
    assert len(block_partitions("12")) == 2
    assert len(block_partitions("21")) == 2
    # 2413 and 3142 are simple: only the two trivial partitions survive
    assert len(block_partitions("2413")) == 2
    assert len(block_partitions("3142")) == 2


def test_identity_has_all_compositions():
    for n in range(1, 9):
        ident = Perm(tuple(range(1, n + 1)))
        assert len(block_partitions(ident)) == 2 ** (n - 1)


def test_trivial_partitions_always_present():
    rng = random.Random(21)
    for _ in range(40):
        p = random_perm(rng, rng.randint(1, 7))
        bps = block_partitions(p)
        sizes = [bp.sizes for bp in bps]
        assert (1,) * p.n in sizes  # singletons, outer = p
        assert (p.n,) in sizes  # one block, outer = 1
        fine = next(bp for bp in bps if bp.sizes == (1,) * p.n)
        assert fine.outer == p
        coarse = next(bp for bp in bps if bp.sizes == (p.n,))
        assert str(coarse.outer) == "1"
        assert coarse.inner == (p,)


def test_reconstruction_exhaustive_to_6():
    for n in range(1, 7):
        for vals in permutations(range(1, n + 1)):
            p = Perm(vals)
            for bp in block_partitions(p):
                assert generalized_inflate(bp.outer, bp.inner) == p


def test_completeness_against_direct_scan():
    # every composition whose segments are value intervals must appear
    rng = random.Random(22)
    for _ in range(30):
        p = random_perm(rng, rng.randint(2, 8))
        found = {bp.sizes for bp in block_partitions(p)}
        assert found == {sizes for _, _, sizes in brute_force_partitions(p)}


def test_ordering_is_lexicographic_by_sizes():
    rng = random.Random(23)
    for _ in range(25):
        p = random_perm(rng, rng.randint(1, 8))
        sizes = [bp.sizes for bp in block_partitions(p)]
        assert sizes == sorted(sizes)


def test_length_cap():
    with pytest.raises(ValueError, match="caps"):
        block_partitions(tuple(range(1, 12)))

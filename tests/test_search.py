import random
from collections import Counter
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest

from inflatable import (
    PATTERNS_3,
    Perm,
    SearchConfig,
    SearchTimeout,
    count_length3_all,
    enumerate_centrally_symmetric,
    is_centrally_symmetric,
    search_3_inflatable,
    space_size,
)
from inflatable.search import (
    _kernel_dtypes,
    _scan_shard,
    _search_space,
    _space,
    _target_vector,
)

G17 = Perm("G54ABC319HF678ED2")


def count_vector(tau) -> tuple:
    st = count_length3_all(tau)
    six = tuple(st.counts[p] for p in PATTERNS_3)
    return six + (st.inv12,)


def inv_perm(tau: Perm) -> Perm:
    out = [0] * tau.n
    for i, v in enumerate(tau):
        out[v - 1] = i + 1
    return Perm(tuple(out))


def run_shards(n: int, tv: tuple, central: bool) -> tuple:
    space = _space(n, central)
    hits, scanned = [], 0
    for u in space.values:
        h, s, t = _scan_shard(n, tv, space, u, None)
        assert not t
        hits += [Perm(x) for x in h]
        scanned += s
    return sorted(hits), scanned


def test_space_size():
    assert space_size(17, True) == 2**8 * factorial(8) == 10_321_920
    assert space_size(4, True) == 8
    assert space_size(5, True) == 8
    assert space_size(6, False) == 720
    assert space_size(1, True) == 1
    with pytest.raises(ValueError):
        space_size(0, True)


def test_enumerate_centrally_symmetric_small():
    assert list(enumerate_centrally_symmetric(1)) == [Perm("1")]
    assert list(enumerate_centrally_symmetric(2)) == [Perm("12"), Perm("21")]
    assert list(enumerate_centrally_symmetric(3)) == [Perm("123"), Perm("321")]
    four = list(enumerate_centrally_symmetric(4))
    assert len(four) == 8


def test_enumerate_matches_filter_and_order():
    for n in range(1, 7):
        got = list(enumerate_centrally_symmetric(n))
        want = sorted(
            Perm(p) for p in permutations(range(1, n + 1)) if is_centrally_symmetric(p)
        )
        assert got == want
        assert len(got) == space_size(n, True)
        assert got == sorted(got)


def test_inadmissible_lengths_short_circuit():
    for n in (3, 9, 12, 100):
        res = search_3_inflatable(SearchConfig(n=n))
        assert res.status == "inadmissible"
        assert res.hits == [] and res.scanned == 0 and res.found == 0
        assert "144" in res.reason and str(n) in res.reason
    res = search_3_inflatable(SearchConfig(n=9, central_only=False))
    assert res.status == "inadmissible"


def test_config_validation():
    with pytest.raises(ValueError):
        search_3_inflatable(SearchConfig(n=2))
    with pytest.raises(ValueError):
        search_3_inflatable(SearchConfig(n=17, threads=0))
    with pytest.raises(ValueError):
        search_3_inflatable(SearchConfig(n=17, limit=0))


def old_limit_rule(pool: list, vectors: list, tv: tuple, limit: int) -> tuple:
    """The limited scan's (hits, scanned), from brute-force lexicographic order.

    pool lists the candidates in lexicographic order, vectors their count
    vectors. Shards (first values) run in order. Each shard stops at
    its own limit-th hit and counts the candidates up to and including it;
    a shard with fewer hits counts in full. The scan ends with the shard
    that brings the hits to the limit.
    """
    hits, scanned = [], 0
    for u in sorted({p[0] for p in pool}):
        shard = [(p, v) for p, v in zip(pool, vectors) if p[0] == u]
        own = [p for p, v in shard if v == tv]
        if len(own) >= limit:
            scanned += shard.index((own[limit - 1], tv)) + 1
        else:
            scanned += len(shard)
        hits += own
        if len(hits) >= limit:
            break
    return hits[:limit], scanned


def test_engines_agree_with_brute_force_central():
    # run the kernel against exhaustive filtering on targets that are
    # guaranteed achievable (count vectors of actual central permutations)
    rng = random.Random(7)
    for n in range(4, 9):
        pool = list(enumerate_centrally_symmetric(n))
        targets = {count_vector(rng.choice(pool)) for _ in range(4)}
        targets.add(count_vector(Perm(tuple(range(1, n + 1)))))
        for tv in targets:
            brute = sorted(p for p in pool if count_vector(p) == tv)
            hits, scanned = run_shards(n, tv, True)
            assert hits == brute
            assert scanned == space_size(n, True)
            # central targets have equal 231/312 entries, so the hit set
            # is closed under taking inverses
            assert {inv_perm(h) for h in hits} == set(hits)


def test_engine_agrees_with_brute_force_full():
    rng = random.Random(8)
    for n in range(4, 8):
        all_perms = [Perm(p) for p in permutations(range(1, n + 1))]
        targets = {count_vector(rng.choice(all_perms)) for _ in range(3)}
        for tv in targets:
            brute = sorted(p for p in all_perms if count_vector(p) == tv)
            hits, scanned = run_shards(n, tv, False)
            assert hits == brute
            assert scanned == factorial(n)


def test_impossible_target_scans_everything_finds_nothing():
    # inconsistent vector: a lone 123 with every pair descending
    n = 6
    tv = (1, 0, 0, 0, 0, comb(n, 3) - 1, 0)
    assert not any(count_vector(p) == tv for p in enumerate_centrally_symmetric(n))
    hits, scanned = run_shards(n, tv, True)
    assert hits == []
    assert scanned == space_size(n, True)


def test_kernel_agrees_with_brute_force_at_larger_size():
    n = 12
    rng = random.Random(9)
    # build central length-12 targets from actual length-12 candidates
    pool = list(enumerate_centrally_symmetric(n))
    vectors = [count_vector(p) for p in pool]
    for tau in rng.sample(pool[:500], 3):
        tv = count_vector(tau)
        brute = [p for p, v in zip(pool, vectors) if v == tv]
        hits, scanned = run_shards(n, tv, True)
        assert hits == brute
        assert tau in hits
        assert scanned == space_size(n, True)


def test_search_space_threads_deterministic():
    n = 8
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(200)]
    tv = count_vector(sample[137])
    base = _search_space(n, tv, True, None, 1, None)
    for threads in (2, 3):
        assert _search_space(n, tv, True, None, threads, None) == base
    hits, scanned = base
    assert scanned == space_size(n, True)
    assert sample[137] in hits


def test_limit_cut_is_deterministic_and_a_subset():
    n = 8
    tv = count_vector(Perm(tuple(range(1, n + 1))))  # identity: exactly one hit
    full_hits, _ = _search_space(n, tv, True, None, 1, None)
    assert len(full_hits) == 1
    # a non-involution shares its count vector with its inverse, so its
    # fiber has at least two members
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(300)]
    tau = next(p for p in sample if inv_perm(p) != p)
    tv = count_vector(tau)
    full_hits, full_scanned = _search_space(n, tv, True, None, 1, None)
    assert len(full_hits) >= 2
    for k in (1, 2):
        lim_hits, lim_scanned = _search_space(n, tv, True, k, 1, None)
        assert len(lim_hits) == k
        assert set(lim_hits) <= set(full_hits)
        assert lim_scanned <= full_scanned
        again = _search_space(n, tv, True, k, 1, None)
        assert again == (lim_hits, lim_scanned)
        threaded = _search_space(n, tv, True, k, 3, None)
        assert threaded == (lim_hits, lim_scanned)


def test_limited_scan_matches_the_lexicographic_cut():
    # the limit cut and its scanned count equal those of a scan that walks
    # each shard in lexicographic order and stops at the shard's limit-th hit
    rng = random.Random(10)
    spaces = [(n, True, list(enumerate_centrally_symmetric(n))) for n in (8, 10)]
    spaces += [
        (n, False, [Perm(p) for p in permutations(range(1, n + 1))])
        for n in (5, 6, 7)
    ]
    for n, central, pool in spaces:
        vectors = [count_vector(p) for p in pool]
        # random targets plus the largest fiber, whose hits share shards so
        # that the limits cut inside them
        targets = {count_vector(tau) for tau in rng.sample(pool, 2)}
        targets.add(Counter(vectors).most_common(1)[0][0])
        for tv in targets:
            for limit in (1, 2, 3, 5):
                want = old_limit_rule(pool, vectors, tv, limit)
                for threads in (1, 3):
                    got = _search_space(n, tv, central, limit, threads, None)
                    assert got == want


def test_progress_callback_streams_every_hit():
    n = 8
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(300)]
    tv = count_vector(sample[250])
    seen: list = []
    indices: list = []

    def progress(index: int, batch: list) -> None:
        indices.append(index)
        seen.extend(batch)

    hits, _ = _search_space(n, tv, True, None, 1, None, progress)
    assert sorted(seen) == hits
    assert indices == sorted(indices)


def test_timeout_raises_with_partial_progress():
    # the kernel polls its deadline by node count, with or without a limit
    with pytest.raises(SearchTimeout) as exc:
        search_3_inflatable(SearchConfig(n=17, limit=10**9, timeout=0.05))
    assert exc.value.scanned > 0
    assert isinstance(exc.value.hits, list)
    assert exc.value.elapsed_ms >= 0
    with pytest.raises(SearchTimeout):
        search_3_inflatable(SearchConfig(n=17, timeout=0.02))


def test_long_lengths_widen_the_kernel_arrays_or_refuse():
    # targets pass int16 at n=161 and values pass uint8 at n=288; a short
    # timed run there must stop with SearchTimeout, not wrap a count
    assert _kernel_dtypes(17, _target_vector(17)) == (np.uint8, np.int16)
    assert _kernel_dtypes(161, _target_vector(161)) == (np.uint8, np.int32)
    assert _kernel_dtypes(288, _target_vector(288)) == (np.uint16, np.int32)
    for n in (161, 288):
        with pytest.raises(SearchTimeout):
            search_3_inflatable(SearchConfig(n=n, timeout=0.05))
    # past n = 1626 the int32 working counts could overflow, in either space
    for central in (True, False):
        with pytest.raises(ValueError):
            search_3_inflatable(
                SearchConfig(n=1728, central_only=central, timeout=0.05)
            )


def test_known_hit_shard_length17():
    # scan only the shard whose first value is 16: it must contain the
    # known length-17 example and nothing that fails re-verification
    tv = _target_vector(17)
    assert tv == (102, 119, 119, 119, 119, 102, 68)
    hits, scanned, timed_out = _scan_shard(17, tv, _space(17, True), 16, None)
    assert not timed_out
    assert scanned == space_size(17, True) // 16
    found = [Perm(h) for h in hits]
    assert G17 in found
    for h in found:
        assert h[0] == 16
        assert is_centrally_symmetric(h)
        assert count_vector(h) == tv

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

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
import inflatable.search
from inflatable.search import (
    _complement_targets,
    _derive_shard,
    _scan_shard,
    _search_space,
    _shard_job,
    _space,
    _target_vector,
    _value_dtype,
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


def complement(tau: Perm) -> Perm:
    return Perm(tuple(tau.n + 1 - v for v in tau))


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
    # a bad length is refused by the bare call, before any iteration
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_centrally_symmetric(0)


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
    # n and limit are integers: a bool is refused and a float fails
    # operator.index
    for cfg in (SearchConfig(n=True), SearchConfig(n=17, limit=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            search_3_inflatable(cfg)
    for cfg in (SearchConfig(n=17.0), SearchConfig(n=17, limit=2.5)):
        with pytest.raises(TypeError):
            search_3_inflatable(cfg)
    # a timeout must be > 0; NaN compares false, so it is refused too, and
    # a bool is refused before it could run as a 1-second timeout
    for timeout in (0, -1, float("nan"), True):
        with pytest.raises(ValueError, match="timeout"):
            search_3_inflatable(SearchConfig(n=17, timeout=timeout))
    # an integer-like n or limit is read as its int
    res = search_3_inflatable(SearchConfig(n=np.int64(17), limit=np.int64(1)))
    assert res.found == 1


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
            # the same through the search, whose upper shards are derived
            assert _search_space(n, tv, True, None, None) == (brute, scanned)
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
            assert _search_space(n, tv, False, None, None) == (brute, scanned)


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


def pattern_index(points) -> int:
    """Index in PATTERNS_3 of the pattern of three (position, value) points."""
    vals = [v for _, v in sorted(points)]
    return PATTERNS_3.index(Perm(tuple(sorted(vals).index(v) + 1 for v in vals)))


def rule_counts_brute(n: int, row: tuple, central: bool) -> tuple:
    """Count vector of one partial state's triples with at most one unplaced
    point, but not the center with one, and of its pairs of two placed
    points or of a non-center placed point and an unplaced one, by
    enumeration.

    Every unplaced position lies after the left block and before the right
    one (central) or after the prefix (unrestricted), so position d+1
    stands for all of them in a triple or pair without the center.
    """
    d = len(row)
    outer = list(enumerate(row, 1))
    if central:
        outer += [(n + 1 - i, n + 1 - v) for i, v in enumerate(row, 1)]
    placed = outer + ([((n + 1) // 2,) * 2] if central and n % 2 else [])
    free = set(range(1, n + 1)) - {v for _, v in placed}
    vector = [0] * 7
    for trio in combinations(placed, 3):
        vector[pattern_index(trio)] += 1
    for (i, v), (j, w) in combinations(placed, 2):
        vector[6] += (i < j) == (v < w)
    for x in free:
        for a, b in combinations(outer, 2):
            vector[pattern_index((a, b, (d + 1, x)))] += 1
        for i, v in outer:
            vector[6] += (v < x) == (i < d + 1)
    return tuple(vector)


def test_count_rules_equal_enumeration():
    # each space's count rule, the only counts the driver prunes on, at
    # every depth from the root to the leaves, against enumeration
    rng = random.Random(12)
    for n in range(3, 18):
        for central in (True, False):
            space = _space(n, central)
            for d in range(space.steps + 1):
                rows = []
                for _ in range(8):
                    if central:
                        firsts = rng.sample(range(1, n // 2 + 1), d)
                        rows.append(tuple(rng.choice((u, n + 1 - u)) for u in firsts))
                    else:
                        rows.append(tuple(rng.sample(range(1, n + 1), d)))
                # position-major, as the kernel stores blocks: W[j, s]
                W = np.array(rows, dtype=np.uint8).reshape(len(rows), d).T
                got = space.counts(W)
                assert got.shape == (7, len(rows))
                for row, vector in zip(rows, got.T.tolist()):
                    assert tuple(vector) == rule_counts_brute(n, row, central)


def test_exact_test_prunes_the_final_level():
    # one central n=12 shard: the rows entering the last level, where the
    # test is an exact match; a prune on the slack alone lets 1367 rows
    # into the level above it, and each of them has two children
    tau = Perm("5B37194C6A28")
    assert is_centrally_symmetric(tau)
    tv = count_vector(tau)
    space = _space(12, True)
    rows = []

    def counts(W):
        if W.shape[0] == space.steps:
            rows.append(W.shape[1])
        return space.counts(W)

    counting = dataclasses.replace(space, counts=counts)
    hits, scanned, _ = _scan_shard(12, tv, counting, tau[0], None)
    assert tau in [Perm(h) for h in hits]
    assert scanned == space.leaves[1]
    assert sum(rows) == 22 < 2 * 1367


def test_derived_shards_equal_their_own_scans():
    # every shard derived from its complement mirror equals a real scan of
    # it; random targets are not complement-invariant, so the lower shards
    # get scans of their own under the complemented targets, and odd n
    # covers the unrestricted middle shard, which is its own mirror
    rng = random.Random(11)
    spaces = [(n, True, list(enumerate_centrally_symmetric(n))) for n in (8, 10, 12)]
    spaces += [
        (n, False, [Perm(p) for p in permutations(range(1, n + 1))]) for n in (6, 7, 8)
    ]
    for n, central, pool in spaces:
        space = _space(n, central)
        for tau in rng.sample(pool, 2):
            tv = count_vector(tau)
            assert _complement_targets(n, tv) == count_vector(complement(tau)) != tv
            for u in space.values:
                first_u, job_tv = _shard_job(n, tv, u)
                assert first_u == min(u, n + 1 - u)
                job = _scan_shard(n, job_tv, space, first_u, None)
                derived = _derive_shard(n, u, first_u, job)
                assert derived == _scan_shard(n, tv, space, u, None)


def test_real_targets_scan_half_the_shards(monkeypatch):
    # the real targets are complement-invariant, so at n=17 the 8 lower
    # shards are scanned and the 8 upper ones derived from them
    tv = _target_vector(17)
    calls = []

    def stub(n, job_tv, job_space, first_u, deadline):
        calls.append((first_u, job_tv))
        return [], job_space.leaves[1], False

    monkeypatch.setattr(inflatable.search, "_scan_shard", stub)
    hits, scanned = _search_space(17, tv, True, None, None)
    assert hits == [] and scanned == space_size(17, True)
    assert sorted(calls) == [(u, tv) for u in range(1, 9)]


def test_timed_out_hits_keep_shard_order(monkeypatch):
    # the merge never sorts: each shard's hits arrive sorted and start with
    # its first value, so a partial result is the scanned shards' hits
    # concatenated in shard order, and sorted; the job for first value 5
    # times out, so shards 1..5 contribute and nothing after them
    tv = _target_vector(17)

    def stub(n, job_tv, job_space, first_u, deadline):
        rest = [v for v in range(1, n + 1) if v != first_u]
        orders = (rest, rest[::-1], rest[first_u:] + rest[:first_u])
        hits = sorted((first_u,) + tuple(order) for order in orders)
        return hits, 1, first_u == 5

    monkeypatch.setattr(inflatable.search, "_scan_shard", stub)
    with pytest.raises(SearchTimeout) as info:
        _search_space(17, tv, True, None, None)
    want = [Perm(h) for u in range(1, 6) for h in stub(17, tv, None, u, None)[0]]
    assert info.value.hits == sorted(info.value.hits) == want
    assert info.value.scanned == 5


def test_search_space_finds_a_sampled_target():
    n = 8
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(200)]
    tv = count_vector(sample[137])
    hits, scanned = _search_space(n, tv, True, None, None)
    assert scanned == space_size(n, True)
    assert sample[137] in hits


def test_search_starts_no_worker_processes():
    script = (
        "import sys, inflatable\n"
        "from inflatable import SearchConfig, search_3_inflatable\n"
        "search_3_inflatable(SearchConfig(n=17, central_only=True, limit=1))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = str(Path(inflatable.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_limit_cut_is_deterministic_and_a_subset():
    n = 8
    tv = count_vector(Perm(tuple(range(1, n + 1))))  # identity: exactly one hit
    full_hits, _ = _search_space(n, tv, True, None, None)
    assert len(full_hits) == 1
    # a non-involution shares its count vector with its inverse, so its
    # fiber has at least two members
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(300)]
    tau = next(p for p in sample if inv_perm(p) != p)
    tv = count_vector(tau)
    full_hits, full_scanned = _search_space(n, tv, True, None, None)
    assert len(full_hits) >= 2
    for k in (1, 2):
        lim_hits, lim_scanned = _search_space(n, tv, True, k, None)
        assert len(lim_hits) == k
        assert set(lim_hits) <= set(full_hits)
        assert lim_scanned <= full_scanned
        again = _search_space(n, tv, True, k, None)
        assert again == (lim_hits, lim_scanned)


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
                assert _search_space(n, tv, central, limit, None) == want


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

    hits, _ = _search_space(n, tv, True, None, None, progress)
    assert sorted(seen) == hits
    assert indices == sorted(indices)


def test_timeout_raises_with_partial_progress():
    # the kernel reads the clock after each child value, with or without a
    # limit, so it stops soon after the deadline, not a block later
    with pytest.raises(SearchTimeout) as exc:
        search_3_inflatable(SearchConfig(n=17, limit=10**9, timeout=0.05))
    assert exc.value.scanned > 0
    assert isinstance(exc.value.hits, list)
    assert exc.value.elapsed_ms >= 0
    with pytest.raises(SearchTimeout):
        search_3_inflatable(SearchConfig(n=17, timeout=0.02))
    # the whole central n=17 scan ends well inside 0.5 s, so the central
    # leg runs at the next admissible length, 64, which cannot finish
    for n, central in ((64, True), (17, False)):
        with pytest.raises(SearchTimeout) as exc:
            search_3_inflatable(SearchConfig(n=n, central_only=central, timeout=0.5))
        assert 500 <= exc.value.elapsed_ms < 750


def test_long_lengths_widen_the_kernel_arrays_or_refuse():
    # values pass uint8 at n=288; a short timed run at n=161 and n=288
    # must stop with SearchTimeout, not wrap a value or a count
    assert _value_dtype(17) == np.uint8
    assert _value_dtype(161) == np.uint8
    assert _value_dtype(288) == np.uint16
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


def test_full_length17_central_scan():
    # the whole central scan, unpacked as the README shows: 750 hits in
    # lexicographic order and every candidate covered, with the paper's
    # centrally symmetric example among them. Its other example is not
    # centrally symmetric, so it lies outside this space; the unrestricted
    # rule counts it, placed whole, at the targets.
    hits, scanned, found = search_3_inflatable(SearchConfig(n=17, central_only=True))
    assert found == len(hits) == 750
    assert scanned == space_size(17, True) == 10_321_920
    assert hits == sorted(hits)
    assert G17 in hits
    e17 = Perm("E534BGA9HC2D1687F")
    assert not is_centrally_symmetric(e17) and e17 not in hits
    W = np.array(e17, dtype=np.uint8)[:, None]
    got = _space(17, False).counts(W)
    assert tuple(got[:, 0].tolist()) == _target_vector(17) == count_vector(e17)

import dataclasses
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, count, permutations
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import inflatable._fivesum
from inflatable._fivesum import five_sums_of_targets, key_terms
from inflatable.search import (
    _TAIL,
    _complement_targets,
    _scan_shard,
    _search_space,
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


def lexicographic_cut(pool: list, vectors: list, tv: tuple, limit: int) -> tuple:
    """The limited scan's (hits, scanned), from brute-force lexicographic order.

    pool lists the candidates in lexicographic order, vectors their count
    vectors. The run stops at its limit-th hit and counts the candidates
    up to and including it; a run with fewer hits counts the whole pool.
    """
    ranks = [i for i, v in enumerate(vectors, 1) if v == tv]
    scanned = ranks[limit - 1] if len(ranks) >= limit else len(pool)
    return [pool[i - 1] for i in ranks[:limit]], scanned


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


def test_count_rules_at_the_int32_edge():
    # the longest lengths the kernel accepts, past what enumeration
    # reaches: values stored as uint16, and the rules' largest squares and
    # products. A full-depth state is a whole permutation, so each rule
    # gives its six counts and ascending pairs exactly.
    rng = random.Random(1626)
    for n in (1625, 1626):
        for central in (True, False):
            space = _space(n, central)
            m = space.steps
            if central:
                pairs = rng.sample(range(1, m + 1), m)
                shuffled = [rng.choice((u, n + 1 - u)) for u in pairs]
            else:
                shuffled = rng.sample(range(1, n + 1), n)
            # one random state, the increasing one and the decreasing one
            rows = [shuffled, list(range(1, m + 1)), list(range(n, n - m, -1))]
            W = np.array(rows, dtype=_value_dtype(n)).T
            assert W.dtype == np.uint16
            got = space.counts(W)
            for row, vector in zip(rows, got.T.tolist()):
                assert tuple(vector) == count_vector(Perm(space.as_hit(tuple(row))))


def test_final_level_counts_only_the_tail_candidates():
    # one central n=12 shard: the count rule runs at depths 1..d0, with
    # d0 = steps - _TAIL, and at the last level, on no block between them;
    # the last level sees only the completions whose five-sum key matches
    # the targets', and the key is one-to-one at this length, so those are
    # exactly the shard's hits
    tau = Perm("5B37194C6A28")
    assert is_centrally_symmetric(tau)
    tv = count_vector(tau)
    space = _space(12, True)
    d0 = space.tail[0]
    rows = Counter()

    def counts(W):
        rows[W.shape[0]] += W.shape[1]
        return space.counts(W)

    counting = dataclasses.replace(space, counts=counts)
    hits, scanned, _ = _scan_shard(12, tv, counting, tau[0], None)
    assert tau in [Perm(h) for h in hits]
    assert scanned == space.leaves[1]
    assert d0 == space.steps - _TAIL >= 1
    assert set(rows) == {*range(1, d0 + 1), space.steps}
    assert rows[space.steps] == len(hits) == 4


def rank_sums(p) -> tuple:
    """(S, Q, Si, Sv, P) of p summed directly: ranks count the smaller
    values to the left, positions are 0-based."""
    ranks = [sum(w < v for w in p[:i]) for i, v in enumerate(p)]
    return (
        sum(ranks),
        sum(r * r for r in ranks),
        sum(r * i for i, r in enumerate(ranks)),
        sum(r * v for r, v in zip(ranks, p)),
        sum(i * v for i, v in enumerate(p)),
    )


@settings(max_examples=80, deadline=None)
@given(values=st.integers(3, 60).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_five_sums_invert_the_counts(values):
    # the five sums read off the count vector equal the directly summed
    # ones; for the centrally symmetric permutation built from the same left
    # half, the left points' key terms with their mirrors, plus the
    # center's, give its sums, one unit weight at a time
    p = Perm(tuple(values))
    assert five_sums_of_targets(p.n, count_vector(p)) == rank_sums(p)
    n = p.n
    space = _space(n, True)
    left, taken = [], set()
    for v in p:
        if len(left) < space.steps and v in space.values and v not in taken:
            left.append(v)
            taken.update(space.taken(v))
    c = Perm(space.as_hit(tuple(left)))
    assert is_centrally_symmetric(c)
    ranks = rank_sums(c)
    i = np.arange(space.steps + n % 2, dtype=np.int64)  # the center last
    v = np.array(c[: len(i)], dtype=np.int64)
    r = np.array([sum(w < x for w in c[:k]) for k, x in enumerate(c[: len(i)])])
    for j, want in enumerate(ranks):
        unit = tuple(int(j == k) for k in range(5))
        assert key_terms(unit, n, True, i, v, r).sum() == want


def tail_completions(space, row: tuple) -> list:
    """Every way to take the remaining steps after the steps row."""
    taken = {u for v in row for u in space.taken(v)}
    free = [v for v in space.values if v not in taken]
    ways = []
    for rest in permutations(free, space.steps - len(row)):
        uses = [u for v in rest for u in space.taken(v)]
        if len(set(uses)) == len(uses):
            ways.append(rest)
    return ways


def test_tail_join_equals_the_direct_five_sums():
    # blocks of depth-d0 states, some sharing a left value set in different
    # orders and some with sets of their own: the join returns exactly the
    # completions whose directly summed five sums are the targets', under
    # members' own counts and a random permutation's, in one pass, in
    # passes of 3 states and with keys whose low 16 bits all agree. At
    # central n=64 a set's id spans two words, and two sets differ in the
    # second word only (63 against 64).
    rng = random.Random(28)
    for n, central in ((13, True), (17, True), (9, False), (64, True)):
        space = _space(n, central)
        d0, tail = space.tail
        pool = [u for u in space.values if 2 * u < n + 1] if central else list(space.values)
        rows = []
        for _ in range(3 if n == 64 else 5):
            picked = rng.sample(pool, d0)
            values = [rng.choice(space.taken(u)) for u in picked] if central else picked
            rows += [tuple(rng.sample(values, d0)) for _ in range(3)]
        if n == 64:
            base = rng.sample(range(3, 32), d0 - 1)
            rows += [tuple(base) + (63,), tuple(base[::-1]) + (64,), (64,) + tuple(base)]
        W = np.array(rows, dtype=np.int64).T
        used = np.zeros((n + 1, len(rows)), dtype=bool)
        used[0] = True
        for taken in space.taken(W):
            used[taken, np.arange(len(rows))] = True
        ways = [tail_completions(space, row) for row in rows]
        # weights times 2^16 (mod 2^64) leave every key's low 16 bits 0, so
        # only the whole key tells the completions apart
        plans = [tail, dataclasses.replace(tail, per_pass=3)]
        wide = tuple(((m << 16) + (1 << 63)) % (1 << 64) - (1 << 63) for m in tail.mult)
        plans.append(dataclasses.replace(tail, mult=wide))
        sums = {
            (s, rest): rank_sums(Perm(space.as_hit(rows[s] + rest)))
            for s in range(len(rows))
            for rest in ways[s]
        }
        # the first and the last state's own counts, and a random permutation's
        members = [(s, rng.choice(ways[s])) for s in (0, len(rows) - 1)]
        targets = [count_vector(Perm(space.as_hit(rows[s] + rest))) for s, rest in members]
        members.append(None)
        targets.append(count_vector(Perm(tuple(rng.sample(range(1, n + 1), n)))))
        for member, tv in zip(members, targets):
            want = sorted(k for k, v in sums.items() if v == five_sums_of_targets(n, tv))
            assert member is None or member in want
            for plan in plans:
                s, placed = plan.matches(tv, W, used)
                assert placed.shape == (space.steps - d0, len(s))
                assert sorted(zip(s.tolist(), map(tuple, placed.T.tolist()))) == want


def test_every_key_matching_leaves_the_results_unchanged(monkeypatch):
    # with all key weights 0 every completion matches, so the count rule at
    # the last level decides every one: the hits and scanned stay those of
    # the real scan, on central n=12, unrestricted n=9 under random custom
    # targets and the impossible target
    rng = random.Random(27)
    central = list(enumerate_centrally_symmetric(12))
    cases = [(12, count_vector(rng.choice(central)), True)]
    cases += [(9, count_vector(Perm(tuple(rng.sample(range(1, 10), 9)))), False)]
    cases += [(6, (1, 0, 0, 0, 0, comb(6, 3) - 1, 0), True)]
    want = [run_shards(n, tv, c) for n, tv, c in cases]
    assert want[0][0] and want[1][0] and not want[2][0]
    monkeypatch.setattr(inflatable._fivesum, "key_multipliers", lambda n: (0,) * 5)
    assert [run_shards(n, tv, c) for n, tv, c in cases] == want


def test_derived_shards_equal_their_own_scans():
    # the search, whose upper shards are derived from their complement
    # mirrors, equals a real scan of every shard; random targets are not
    # complement-invariant, so the mirrors get scans of their own under the
    # complemented targets, and odd n covers the unrestricted middle shard,
    # which is its own mirror
    rng = random.Random(11)
    spaces = [(n, True, list(enumerate_centrally_symmetric(n))) for n in (8, 10, 12)]
    spaces += [
        (n, False, [Perm(p) for p in permutations(range(1, n + 1))]) for n in (6, 7, 8)
    ]
    for n, central, pool in spaces:
        for tau in rng.sample(pool, 2):
            tv = count_vector(tau)
            assert _complement_targets(n, tv) == count_vector(complement(tau)) != tv
            assert _search_space(n, tv, central, None, None) == run_shards(n, tv, central)


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
    # the space in lexicographic order and stops at its limit-th hit
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
                want = lexicographic_cut(pool, vectors, tv, limit)
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


def test_timeout_raises_with_partial_progress(monkeypatch):
    # the kernel reads the clock after each child value, with or without a
    # limit, so it stops soon after the deadline, not a block later. The
    # whole central n=17 scan can end inside these timeouts, so a fake clock
    # moves 1 ms at each read: the deadline passes mid-scan, after the same
    # reads whatever the scan's speed
    ticks = count(0, 0.001)
    monkeypatch.setattr(inflatable.search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(SearchTimeout) as exc:
        search_3_inflatable(SearchConfig(n=17, limit=10**9, timeout=0.05))
    assert exc.value.scanned > 0
    assert isinstance(exc.value.hits, list)
    assert exc.value.elapsed_ms >= 0
    with pytest.raises(SearchTimeout):
        search_3_inflatable(SearchConfig(n=17, timeout=0.02))
    monkeypatch.undo()
    # real 0.5-s timeouts: the whole central n=17 scan ends well inside
    # them, so the central leg runs at the next admissible length, 64,
    # which cannot finish
    for n, central in ((64, True), (17, False)):
        with pytest.raises(SearchTimeout) as exc:
            search_3_inflatable(SearchConfig(n=n, central_only=central, timeout=0.5))
        assert 500 <= exc.value.elapsed_ms < 750


def test_a_shard_past_its_deadline_stops_as_its_first_block_enters():
    space = _space(17, True)
    assert _scan_shard(17, _target_vector(17), space, 2, time.monotonic() - 1) == ([], 0, True)


def test_long_lengths_widen_the_kernel_arrays_or_refuse():
    # values pass uint8 at n=288; a short timed run at n=161 and n=288
    # must stop with SearchTimeout, not wrap a value or a count
    assert _value_dtype(17) == np.uint8
    assert _value_dtype(161) == np.uint8
    assert _value_dtype(288) == np.uint16
    for n in (161, 288):
        for central in (True, False):
            with pytest.raises(SearchTimeout) as exc:
                search_3_inflatable(SearchConfig(n=n, central_only=central, timeout=0.05))
            assert exc.value.elapsed_ms < 250
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


def test_limited_length17_scans_stop_at_their_last_hit():
    # each limited central scan returns the full scan's first hits, and
    # scanned is the rank of its last hit in lexicographic order: the 30th
    # hit is candidate 1,691,279 of enumerate_centrally_symmetric(17)
    hits = search_3_inflatable(SearchConfig(n=17)).hits
    runs = {k: search_3_inflatable(SearchConfig(n=17, limit=k)) for k in (1, 3, 30, 750)}
    for k, res in runs.items():
        assert res.hits == hits[:k], k
    assert runs[30].scanned == 1_691_279

import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, count, permutations, product
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
    check_3_inflatable,
    count_length3_all,
    enumerate_centrally_symmetric,
    is_centrally_symmetric,
    search_3_inflatable,
    space_size,
)
import inflatable.search
import inflatable._kernel
from inflatable._kernel import (
    _TAIL,
    _counted_depths,
    _counts,
    _rule_prunes,
    _scan_shard,
    _tail,
    five_sums_of_targets,
    key_multipliers,
    key_terms,
    tail_plan,
)
from inflatable.search import (
    _check_length,
    _complement_targets,
    _search_space,
    _space,
    _target_vector,
)

G17 = Perm("G54ABC319HF678ED2")


def replaced(record, **changes):
    """A copy of a search record with the given fields changed."""
    fields = {f: getattr(record, f) for f in record.__match_args__}
    return type(record)(**{**fields, **changes})


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


def scan_shard(n: int, tv: tuple, space, u: int, expired=lambda: False) -> tuple:
    """One shard scan of space under tv, with its own tail plan."""
    return _scan_shard(n, tv, space, (u,), _tail(space), expired)


def run_shards(n: int, tv: tuple, central: bool) -> tuple:
    space = _space(n, central)
    hits, scanned = [], 0
    for u in space.values:
        h, s, t = scan_shard(n, tv, space, u)
        assert not t
        hits += [Perm(x) for x in h.tolist()]
        scanned += s
    return sorted(hits), scanned


def random_rows(rng: random.Random, space, d: int, count: int) -> list:
    """count random states of space with d steps taken, as value tuples."""
    n, rows = space.n, []
    for _ in range(count):
        if space.per_step == 2:
            firsts = rng.sample(range(1, n // 2 + 1), d)
            rows.append(tuple(rng.choice((u, n + 1 - u)) for u in firsts))
        else:
            rows.append(tuple(rng.sample(range(1, n + 1), d)))
    return rows


def candidate(space, row) -> Perm:
    """The candidate of space whose steps place the values row."""
    return Perm(space.as_hit(np.array([row], dtype=np.int16))[0].tolist())


def assert_hits_are_permutations(hits: list, n: int, tv: tuple) -> None:
    # the search builds its hits without Perm's validation, so check what
    # that would: each hit is a Perm of exactly the values 1..n, at the targets
    for h in hits:
        assert type(h) is Perm and sorted(h) == list(range(1, n + 1)), h
        assert count_vector(h) == tv, h


def test_space_size():
    assert space_size(17, True) == 2**8 * factorial(8) == 10_321_920
    assert space_size(4, True) == 8
    assert space_size(5, True) == 8
    assert space_size(6, False) == 720
    assert space_size(1, True) == 1
    with pytest.raises(ValueError):
        space_size(0, True)


def test_leaf_counts_are_the_factorial_formulas():
    for n in range(1, 41):
        m = n // 2
        assert _space(n, False).leaves == tuple(factorial(n - d) for d in range(n + 1)), n
        assert _space(n, True).leaves == tuple(
            2 ** (m - d) * factorial(m - d) for d in range(m + 1)
        ), n


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
            got = _search_space(n, tv, True, None, None)[:2]
            assert got == (brute, scanned)
            assert_hits_are_permutations(got[0], n, tv)
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
            got = _search_space(n, tv, False, None, None)[:2]
            assert got == (brute, scanned)
            assert_hits_are_permutations(got[0], n, tv)


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
                rows = random_rows(rng, space, d, 8)
                # position-major, as the kernel stores blocks: W[j, s]
                W = np.array(rows, dtype=np.int16).reshape(len(rows), d).T
                got = _counts(space, W)
                assert got.shape == (7, len(rows))
                for row, vector in zip(rows, got.T.tolist()):
                    assert tuple(vector) == rule_counts_brute(n, row, central)


def test_count_rules_at_the_int32_edge():
    # the longest lengths the kernel accepts, past what enumeration
    # reaches: values stored as int16, and the rules' largest squares and
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
            W = np.array(rows, dtype=np.int16).T
            got = _counts(space, W)
            for row, vector in zip(rows, got.T.tolist()):
                assert tuple(vector) == count_vector(candidate(space, row))


def test_levels_the_rule_cannot_prune_keep_every_state():
    # at every depth where _rule_prunes says the count rule drops no state,
    # random states and the increasing and decreasing ones all meet the
    # rule, in both spaces, at the admissible lengths up to 64 and under
    # custom targets; the skipped depths are the first k, the last level is
    # never skipped, and at n=17 the real targets skip the first two central
    # depths and four unrestricted ones
    rng = random.Random(31)
    cases = [(n, _target_vector(n)) for n in (17, 64)]
    for n in (9, 12, 17, 40):
        cases.append((n, count_vector(Perm(tuple(rng.sample(range(1, n + 1), n))))))
    cases += [(6, (1, 0, 0, 0, 0, comb(6, 3) - 1, 0)), (20, count_vector(Perm(tuple(range(1, 21)))))]
    skipped = {}
    for n, tv in cases:
        T = np.array(tv)[:, None]
        for central in (True, False):
            space = _space(n, central)
            skip = [d for d in range(1, space.steps + 1) if not _rule_prunes(n, tv, space.slack(d))]
            skipped[n, central, tv] = skip
            assert skip == [*range(1, len(skip) + 1)] and space.steps not in skip
            for d in skip:
                rows = random_rows(rng, space, d, 40)
                rows += [tuple(range(1, d + 1)), tuple(range(n, n - d, -1))]
                C = _counts(space, np.array(rows, dtype=np.int16).T)
                assert ((C <= T) & (C + np.array(space.slack(d))[:, None] >= T)).all()
    assert skipped[17, True, _target_vector(17)] == [1, 2]
    assert skipped[17, False, _target_vector(17)] == [1, 2, 3, 4]


def test_the_slack_does_not_grow_with_depth():
    # each count's slack does not increase from one depth to the next, in
    # both spaces at every length from 3 to 64 and at 288, so the depths
    # where the count rule can drop a state run from the first to the last
    for n in (*range(3, 65), 288):
        for central in (True, False):
            space = _space(n, central)
            slacks = [space.slack(d) for d in range(1, space.steps + 1)]
            assert slacks[-1] == (0,) * 7
            for shallow, deep in zip(slacks, slacks[1:]):
                assert all(a <= b for a, b in zip(deep, shallow))


def test_final_level_counts_only_the_tail_candidates(monkeypatch):
    # one central n=12 shard: the count rule runs at the depths up to d0,
    # d0 = steps - _TAIL, where it can drop a state, and at the last level,
    # on no block between them; the last level sees only the completions
    # whose five-sum key matches the targets': at least the shard's hits,
    # and fewer than the completions of the states kept at d0
    tau = Perm("5B37194C6A28")
    assert is_centrally_symmetric(tau)
    tv = count_vector(tau)
    T = np.array(tv)[:, None]
    space = _space(12, True)
    d0 = _tail(space)[0]
    rows = Counter()
    kept = 0

    def counts(space, W):
        nonlocal kept
        rows[W.shape[0]] += W.shape[1]
        C = _counts(space, W)
        if W.shape[0] == d0:
            kept += ((C <= T) & (C + np.array(space.slack(d0))[:, None] >= T)).all(axis=0).sum()
        return C

    monkeypatch.setattr(inflatable._kernel, "_counts", counts)
    hits, scanned, _ = scan_shard(12, tv, space, tau[0])
    assert tau in [Perm(h) for h in hits.tolist()]
    assert scanned == space.leaves[1]
    assert d0 == space.steps - _TAIL >= 1
    prunes = {d for d in range(1, d0 + 1) if _rule_prunes(12, tv, space.slack(d))}
    assert set(rows) == prunes | {space.steps} and prunes != {*range(1, d0 + 1)}
    assert len(hits) == 4 <= rows[space.steps] < kept * space.leaves[d0]


def test_the_last_level_count_rule_decides_each_key_match(monkeypatch):
    # the tail key is 16 bits wide, so it only filters: in the central n=12
    # shard of 5, under the counts of 5B37194C6A28, the join also hands the
    # last level 5C7A4B293618, whose key equals the targets' mod 2^16 while
    # its counts do not, and the count rule there drops it
    tv = count_vector(Perm("5B37194C6A28"))
    assert tv == (34, 43, 43, 38, 38, 24, 35)
    collision = Perm("5C7A4B293618")
    assert count_vector(collision) == (12, 28, 28, 46, 46, 60, 24)
    space = _space(12, True)
    last = []

    def counts(space, W):
        if W.shape[0] == space.steps:
            last.extend(Perm(h) for h in space.as_hit(W.T).tolist())
        return _counts(space, W)

    monkeypatch.setattr(inflatable._kernel, "_counts", counts)
    hits, _, _ = scan_shard(12, tv, space, collision[0])
    assert collision in last
    assert collision not in [Perm(h) for h in hits.tolist()]


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


def test_five_sums_invert_the_counts_of_every_short_permutation():
    # core's inverse of count_length3_all's closed forms, on every
    # permutation of length 3 to 7
    for n in range(3, 8):
        for values in permutations(range(1, n + 1)):
            p = Perm(values)
            assert five_sums_of_targets(n, count_vector(p)) == rank_sums(p)


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
    c = candidate(space, left)
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
    # completions whose directly summed five sums have the targets' key mod
    # 2^16, among them every completion with the targets' sums, under
    # members' own counts and a random permutation's, in one pass, in
    # passes of 3 states, and under weights of S alone and all 0. Some
    # pairs of sets differ in their largest value only: 63 against 64 at
    # central n=64, 16 against 17 at n=17 and 30 against 31 at n=64.
    rng = random.Random(28)
    for n, central in ((13, True), (17, True), (9, False), (64, True)):
        space = _space(n, central)
        d0, tail = _tail(space)
        pool = [u for u in space.values if 2 * u < n + 1] if central else list(space.values)
        rows = []
        for _ in range(3 if n == 64 else 5):
            picked = rng.sample(pool, d0)
            values = [rng.choice(space.taken(u)) for u in picked] if central else picked
            rows += [tuple(rng.sample(values, d0)) for _ in range(3)]
        if n == 64:
            base = rng.sample(range(3, 32), d0 - 1)
            rows += [tuple(base) + (63,), tuple(base[::-1]) + (64,), (64,) + tuple(base)]
        # two sets that differ in their largest value only
        if n == 17:
            rows += [(16, 3, 12, 7), (17, 3, 12, 7)]
        if n == 64:
            rows += [(30,) + tuple(range(3, 30)), (31,) + tuple(range(3, 30))]
        W = np.array(rows, dtype=np.int16).T
        used = np.zeros((n + 1, len(rows)), dtype=bool)
        used[0] = True
        for taken in space.taken(W):
            used[taken, np.arange(len(rows))] = True
        ways = [tail_completions(space, row) for row in rows]
        assert tail.mult == key_multipliers(n)
        key = lambda sums, mult: sum(m * x for m, x in zip(mult, sums)) % (1 << 16)
        # a key of S alone passes completions with other sums; with all
        # weights 0 every completion matches
        plans = [tail, replaced(tail, per_pass=3)]
        plans += [replaced(tail, mult=m) for m in ((1, 0, 0, 0, 0), (0,) * 5)]
        sums = {
            (s, rest): rank_sums(candidate(space, rows[s] + rest))
            for s in range(len(rows))
            for rest in ways[s]
        }
        # the first and the last state's own counts, and a random permutation's
        members = [(s, rng.choice(ways[s])) for s in (0, len(rows) - 1)]
        targets = [count_vector(candidate(space, rows[s] + rest)) for s, rest in members]
        members.append(None)
        targets.append(count_vector(Perm(tuple(rng.sample(range(1, n + 1), n)))))
        for member, tv in zip(members, targets):
            goal = five_sums_of_targets(n, tv)
            exact = {k for k, v in sums.items() if v == goal}
            assert member is None or member in exact
            for plan in plans:
                goal_key = key(goal, plan.mult)
                want = sorted(k for k, v in sums.items() if key(v, plan.mult) == goal_key)
                assert exact <= set(want)
                s, placed = plan.matches(tv, W, used)
                assert placed.shape == (space.steps - d0, len(s))
                assert sorted(zip(s.tolist(), map(tuple, placed.T.tolist()))) == want


def custom_scans() -> tuple:
    """(cases, results): central n=12 and unrestricted n=9 under random
    custom targets, and central n=6 under the impossible target, as (n, tv,
    central), and run_shards of each."""
    rng = random.Random(27)
    central = list(enumerate_centrally_symmetric(12))
    cases = [(12, count_vector(rng.choice(central)), True)]
    cases += [(9, count_vector(Perm(tuple(rng.sample(range(1, 10), 9)))), False)]
    cases += [(6, (1, 0, 0, 0, 0, comb(6, 3) - 1, 0), True)]
    results = [run_shards(n, tv, c) for n, tv, c in cases]
    assert results[0][0] and results[1][0] and not results[2][0]
    return cases, results


def test_every_key_matching_leaves_the_results_unchanged(monkeypatch):
    # with all key weights 0 every completion matches, so the count rule at
    # the last level decides every one: the hits and scanned stay those of
    # the real scan, on central n=12, unrestricted n=9 under random custom
    # targets and the impossible target
    cases, want = custom_scans()
    monkeypatch.setattr(inflatable._kernel, "key_multipliers", lambda n: (0,) * 5)
    assert [run_shards(n, tv, c) for n, tv, c in cases] == want


def test_counting_at_every_level_leaves_the_results_unchanged(monkeypatch):
    # the custom-target scans skip the count rule at their first depths;
    # counting at every level, the hits and scanned stay those of the real
    # scan
    cases, want = custom_scans()
    for n, tv, c in cases[:2]:
        assert not _rule_prunes(n, tv, _space(n, c).slack(1))
    monkeypatch.setattr(inflatable._kernel, "_counted_depths", lambda n, tv, space, d0: range(1, space.steps + 1))
    assert [run_shards(n, tv, c) for n, tv, c in cases] == want


def counted_depths(monkeypatch, run) -> Counter:
    """The _counts calls run() makes, by the depth of their blocks."""
    depths = Counter()

    def counts(space, W):
        depths[W.shape[0]] += 1
        return _counts(space, W)

    monkeypatch.setattr(inflatable._kernel, "_counts", counts)
    run()
    return depths


def test_a_one_chunk_block_at_the_first_pruning_depth_goes_uncounted(monkeypatch):
    # at n=17 the central rule can first drop a state at depth 3, where
    # the root block of the 8 scanned shards holds one block of 8 * 168
    # states, which fits one chunk of its child step: its children are
    # counted at depth 4 in one call, so the full scan counts 1 block at
    # depth 4 and 1 at the last level, 2 calls, not 3. With a budget of
    # 4096 or 64 values a root block holds one shard, whose block spans
    # several chunks, and depth 3 still goes uncounted.
    full = lambda: search_3_inflatable(SearchConfig(n=17))
    tv = _target_vector(17)
    space = _space(17, True)
    assert min(d for d in range(1, 9) if _rule_prunes(17, tv, space.slack(d))) == 3
    assert _counted_depths(17, tv, space, _tail(space)[0]) == (4, 8)
    assert counted_depths(monkeypatch, full) == {4: 1, 8: 1}
    for cells in (4096, 64):
        monkeypatch.setattr(inflatable._kernel, "_PATH_CELLS", cells)
        assert set(counted_depths(monkeypatch, full)) == {4, 8}


def test_work_counters_of_the_length17_scans(monkeypatch):
    # the full central n=17 scan counts its one root block at depth 4 and
    # the key matches at the last level, 2 count-rule calls over 13,833
    # columns, and joins its 9,120 kept depth-4 states with their tail keys
    # once, in 7 passes of at most 10,922 // 8 states (one shard per root
    # block made 16 calls over the same columns and 8 joins of one pass
    # each); the limit-3 scan, one shard per root block, makes 4 calls
    # over 3,377 columns and 2 joins of one pass each
    work = Counter()
    matches = inflatable._kernel.Tail.matches

    def counts(space, W):
        work["calls"] += 1
        work["columns"] += W.shape[1]
        return _counts(space, W)

    def joins(self, tv, W, used, *shards):
        work["joins"] += 1
        work["passes"] -= 1  # the prefix's key terms
        return matches(self, tv, W, used, *shards)

    def terms(*args):
        work["passes"] += 1
        return key_terms(*args)

    monkeypatch.setattr(inflatable._kernel, "_counts", counts)
    monkeypatch.setattr(inflatable._kernel.Tail, "matches", joins)
    monkeypatch.setattr(inflatable._kernel, "key_terms", terms)
    for limit, want in ((None, (2, 13_833, 1, 7)), (3, (4, 3_377, 2, 2))):
        work.clear()
        search_3_inflatable(SearchConfig(n=17, limit=limit))
        assert (work["calls"], work["columns"], work["joins"], work["passes"]) == want, limit


def test_only_the_first_pruning_depth_goes_uncounted(monkeypatch):
    # under a random permutation's counts the unrestricted n=10 rule can
    # drop a state from depth 2 on, and its blocks fit one chunk at depths
    # 2 to 4 too; only depth 2 enters uncounted, since the deeper a level,
    # the more states it drops, each of whose children the next level
    # would count. The hits and scanned stay those of counting every level.
    rng = random.Random(8)
    tv = count_vector(Perm(tuple(rng.sample(range(1, 11), 10))))
    space = _space(10, False)
    assert [d for d in range(1, 11) if _rule_prunes(10, tv, space.slack(d))] == [*range(2, 11)]
    results = []
    scan = lambda: results.append(_search_space(10, tv, False, None, None)[:2])
    assert {2, 3, 4} & set(counted_depths(monkeypatch, scan)) == {3, 4}
    monkeypatch.setattr(inflatable._kernel, "_counted_depths", lambda n, tv, space, d0: range(1, space.steps + 1))
    assert {2, 3, 4} <= set(counted_depths(monkeypatch, scan))
    assert results[0] == results[1] and results[0][1] == factorial(10)


def test_a_tiny_block_budget_leaves_the_results_unchanged(monkeypatch):
    # with a block budget of 64 values, blocks of a state or a few are cut
    # full at every level and the tail joins one state per pass; with 4096,
    # blocks of a few hundred. The budget holds steps * d0 values, so every
    # block holds a state. The full and the limit-3 central n=17 scans and
    # the custom-target scans keep the default budget's hits and scanned.
    cases, _ = custom_scans()

    def scans() -> list:
        full = search_3_inflatable(SearchConfig(n=17))
        cut = search_3_inflatable(SearchConfig(n=17, limit=3))
        return [(full.hits, full.scanned), (cut.hits, cut.scanned)] + [
            run_shards(n, tv, c) for n, tv, c in cases
        ]

    default = scans()
    for cells in (64, 4096):
        monkeypatch.setattr(inflatable._kernel, "_PATH_CELLS", cells)
        for n, _, central in [(17, None, True)] + cases:
            space = _space(n, central)
            assert space.steps * _tail(space)[0] <= cells
        assert (_tail(_space(17, True))[1].per_pass == 1) == (cells == 64)
        assert scans() == default


def test_blocks_are_position_major_int16_within_the_budget(monkeypatch):
    # with the count rule at every level, every block that enters a level
    # and every block the tail joins is a C-contiguous (position-major)
    # int16 array, and a block with d steps taken below the last level
    # holds at most max(1, _PATH_CELLS // (steps * d)) states, on the full
    # central n=17 scan at the default budget and at 64 and 4096. The last
    # level's block holds one tail pass's matches, which the budget does
    # not bound.
    blocks = []

    def spied_counts(space, W):
        blocks.append(W)
        return _counts(space, W)

    matches = inflatable._kernel.Tail.matches

    def spied_matches(self, tv, W, used, *shards):
        blocks.append(W)
        return matches(self, tv, W, used, *shards)

    monkeypatch.setattr(inflatable._kernel, "_counted_depths", lambda n, tv, space, d0: range(1, space.steps + 1))
    monkeypatch.setattr(inflatable._kernel, "_counts", spied_counts)
    monkeypatch.setattr(inflatable._kernel.Tail, "matches", spied_matches)
    steps = _space(17, True).steps
    for cells in (inflatable._kernel._PATH_CELLS, 64, 4096):
        monkeypatch.setattr(inflatable._kernel, "_PATH_CELLS", cells)
        blocks.clear()
        assert search_3_inflatable(SearchConfig(n=17)).found == 750
        assert all(W.dtype == np.int16 and W.flags.c_contiguous for W in blocks)
        below = [W.shape for W in blocks if W.shape[0] < steps]
        assert all(N <= max(1, cells // (steps * d)) for d, N in below)


def test_tail_matches_refuses_states_of_another_dtype():
    # the key terms wrap mod 2^16 only in int16 arithmetic
    space = _space(17, True)
    d0, tail = _tail(space)
    W = np.array([[16, 3, 12, 7]], dtype=np.int16).T
    used = np.zeros((18, 1), dtype=bool)
    used[0] = True
    for taken in space.taken(W):
        used[taken, 0] = True
    assert W.shape[0] == d0
    tail.matches(_target_vector(17), W, used)
    for dtype in (np.uint8, np.uint16, np.int32, np.int64):
        with pytest.raises(TypeError):
            tail.matches(_target_vector(17), W.astype(dtype), used)


def plan_oracle(n: int, steps: int, central: bool, d0: int) -> tuple:
    """tail_plan's (picks, combos, slots), built pick by pick in Python."""
    per_step = 2 if central else 1
    tail, w = steps - d0, n - per_step * d0
    center = (tail,) * (w - per_step * tail)
    picks = [
        tuple(w - 1 - k if high else k for k, high in zip(order, flips)) + center
        for order in permutations(range(tail))
        for flips in product(range(per_step), repeat=tail)
    ]
    # slot t of a pick is a combo: its row, its position and its earlier picks below it
    combo = lambda pick, t: (pick[t], d0 + t, sum(x < pick[t] for x in pick[:t]))
    combos = sorted({combo(pick, t) for pick in picks for t in range(len(pick))})
    index = {c: i for i, c in enumerate(combos)}
    slots = [[index[combo(pick, t)] for pick in picks] for t in range(len(picks[0]))]
    return [pick[:tail] for pick in picks], combos, slots


def test_tail_plan_equals_the_pick_by_pick_oracle():
    # tail lengths 0 to 5, one or two values a step, and odd and even free
    # value counts: central lengths 2 * steps and 2 * steps + 1, and
    # unrestricted lengths of either parity
    for tail in range(6):
        cases = [(2 * tail + 4, True, 2), (2 * tail + 5, True, 2), (tail + 2, False, 2)]
        for n, central, d0 in cases + [(tail + 1, False, 1)]:
            steps = n // 2 if central else n
            plan = tail_plan(n, steps, central, d0, 1 << 10)
            picks, combos, slots = plan_oracle(n, steps, central, d0)
            assert plan.picks.T.tolist() == [list(p) for p in picks]
            assert plan.combos.T.tolist() == [list(c) for c in combos]
            assert plan.slots.tolist() == slots


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
            assert _search_space(n, tv, central, None, None)[:2] == run_shards(n, tv, central)


def test_real_targets_scan_half_the_shards(monkeypatch):
    # the real targets are complement-invariant, so at n=17 the 8 lower
    # shards are scanned, in one root block or, under a limit, one block
    # each, and the 8 upper ones derived from them
    tv = _target_vector(17)
    calls = []

    def stub(n, job_tv, job_space, firsts, tail, expired):
        calls.append((tuple(firsts), job_tv))
        return np.empty((0, n), dtype=np.int16), len(firsts) * job_space.leaves[1], False

    monkeypatch.setattr(inflatable._kernel, "_scan_shard", stub)
    for limit, want in ((None, [(tuple(range(1, 9)), tv)]), (10**9, [((u,), tv) for u in range(1, 9)])):
        calls.clear()
        hits, scanned, _ = _search_space(17, tv, True, limit, None)
        assert hits == [] and scanned == space_size(17, True)
        assert calls == want


def test_timed_out_hits_keep_shard_order(monkeypatch):
    # the merge never sorts: each shard's hits arrive sorted and start with
    # its first value, so a partial result is the scanned shards' hits
    # concatenated in shard order, and sorted; the job for first value 5
    # times out, so shards 1..5 contribute and nothing after them. Under a
    # timeout each root block holds one shard. Shards 1..4, scanned whole,
    # are credited their leaves, and shard 5 the 1 its timed-out scan
    # credits.
    tv = _target_vector(17)

    def stub(n, job_tv, job_space, firsts, tail, expired):
        (first_u,) = firsts
        rest = [v for v in range(1, n + 1) if v != first_u]
        orders = (rest, rest[::-1], rest[first_u:] + rest[:first_u])
        hits = sorted((first_u,) + tuple(order) for order in orders)
        return np.array(hits, dtype=np.int16), 1, first_u == 5

    monkeypatch.setattr(inflatable._kernel, "_scan_shard", stub)
    with pytest.raises(SearchTimeout) as info:
        _search_space(17, tv, True, None, 3600.0)
    want = [Perm(h) for u in range(1, 6) for h in stub(17, tv, None, (u,), None, None)[0].tolist()]
    assert info.value.hits == sorted(info.value.hits) == want
    assert info.value.scanned == 4 * _space(17, True).leaves[1] + 1


def spied_blocks(monkeypatch) -> list:
    """(first values as a tuple, targets) of each root block the kernel
    scans, appended as the scans run."""
    blocks = []
    real_scan = inflatable._kernel._scan_shard

    def scan(n, tv, space, firsts, tail, expired):
        blocks.append((tuple(firsts), tv))
        return real_scan(n, tv, space, firsts, tail, expired)

    monkeypatch.setattr(inflatable._kernel, "_scan_shard", scan)
    return blocks


def root_block_width(n: int, central: bool) -> int:
    """The shards of one root block of an unlimited, untimed scan."""
    space = _space(n, central)
    return inflatable._kernel._shards_per_block(space, _tail(space)[0])


def test_root_blocks_scan_as_one_shard_per_block_does(monkeypatch):
    # without a limit the jobs of one targets go k to a root block, so
    # ceil(jobs / k) blocks per targets; under a limit each block holds one
    # shard. Both return the same hits in the same order and the same
    # scanned: in both spaces at n=6 to 12 under a random member's counts
    # that complement does not fix (unrestricted n=11 and 12 run one shard
    # per block either way), and in the real central n=17 scan, one root
    # block
    rng = random.Random(42)
    cases = [(17, _target_vector(17), True)]
    for central, n in product((True, False), range(6, 13)):
        pool = list(enumerate_centrally_symmetric(n)) if central else None
        tv = None
        while tv is None or _complement_targets(n, tv) == tv:
            tau = rng.choice(pool) if central else Perm(tuple(rng.sample(range(1, n + 1), n)))
            tv = count_vector(tau)
        cases.append((n, tv, central))
    blocks = spied_blocks(monkeypatch)
    for n, tv, central in cases:
        k = root_block_width(n, central)
        blocks.clear()
        batched = _search_space(n, tv, central, None, None)[:2]
        jobs = Counter(t for firsts, t in blocks for _ in firsts)
        assert Counter(t for _, t in blocks) == {t: -(-j // k) for t, j in jobs.items()}
        assert (k == 1) == (not central and n >= 11)
        batched_jobs = sorted((u, t) for firsts, t in blocks for u in firsts)
        blocks.clear()
        assert _search_space(n, tv, central, 10**9, None)[:2] == batched
        assert {len(firsts) for firsts, _ in blocks} == {1}
        assert sorted((u, t) for (u,), t in blocks) == batched_jobs
        assert n != 17 or (len(batched[0]), batched[1]) == (750, space_size(17, True))


def test_only_short_unlimited_scans_share_root_blocks(monkeypatch):
    # a root block holds as many jobs as fit one child block at the tail's
    # depth: all 8 of central n=17 (up to 78). One unrestricted n=17 or
    # central n=64 or n=80 shard fills it alone, so those long scans keep
    # one shard per root block, as every scan does under a limit or a
    # timeout
    assert root_block_width(17, True) == 78
    assert root_block_width(17, False) == root_block_width(64, True) == root_block_width(80, True) == 1
    # a one-shard block joins per_pass states a pass, as the budget allows
    for n, central, per_pass in ((17, False, 174_762), (17, True, 10_922), (64, True, 10_922)):
        assert _tail(_space(n, central))[1].per_pass == per_pass
    blocks = spied_blocks(monkeypatch)
    for limit, timeout in ((1, None), (3, None), (750, None), (10**9, None), (None, 3600.0)):
        blocks.clear()
        found = search_3_inflatable(SearchConfig(n=17, limit=limit, timeout=timeout)).found
        assert found == min(limit or 750, 750)
        assert {len(firsts) for firsts, _ in blocks} == {1}


def test_long_scans_keep_one_shard_per_root_block():
    # the width reads the space alone: one shard of unrestricted n=17, and
    # of n=64, 80 and 81 in either space, fills a child block at the
    # tail's depth by itself
    for n, central in [(17, False), *product((64, 80, 81), (True, False))]:
        assert root_block_width(n, central) == 1, (n, central)


def random_central(rng: random.Random, n: int) -> Perm:
    """A random centrally symmetric permutation of length n."""
    left = [rng.choice((p, n + 1 - p)) for p in rng.sample(range(1, n // 2 + 1), n // 2)]
    return Perm(tuple(left + [(n + 1) // 2] * (n & 1) + [n + 1 - v for v in reversed(left)]))


def test_every_short_central_scan_puts_each_targets_jobs_in_one_root_block(monkeypatch):
    # at central n=3 to 17 a root block fits every shard, so a full scan
    # under a random member's counts scans one root block per targets: one
    # where complement fixes the targets, else one under each
    rng = random.Random(17)
    blocks = spied_blocks(monkeypatch)
    for n in range(3, 18):
        tau = random_central(rng, n)
        assert is_centrally_symmetric(tau)
        tv = count_vector(tau)
        assert root_block_width(n, True) >= len(_space(n, True).values)
        blocks.clear()
        hits, scanned, _ = _search_space(n, tv, True, None, None)
        assert tau in hits and scanned == space_size(n, True)
        assert len(blocks) == len({t for _, t in blocks}) == 1 + (_complement_targets(n, tv) != tv)


def test_root_blocks_take_jobs_as_shards_first_need_them(monkeypatch):
    # at unrestricted n=10 a root block holds 4 shards. Under targets that
    # complement does not fix, shards 1..5 need jobs under the targets and
    # shards 6..10 those of first values 5 down to 1 under the complemented
    # ones, so the blocks are (1, 2, 3, 4) and (5,), then (2, 3, 4, 5) and
    # (1,), each sorted; the hits and scanned are those of one shard per
    # block
    rng = random.Random(10)
    tv = None
    while tv is None or _complement_targets(10, tv) == tv:
        tv = count_vector(Perm(tuple(rng.sample(range(1, 11), 10))))
    mirror = _complement_targets(10, tv)
    assert root_block_width(10, False) == 4
    blocks = spied_blocks(monkeypatch)
    batched = _search_space(10, tv, False, None, None)[:2]
    assert blocks == [((1, 2, 3, 4), tv), ((5,), tv), ((2, 3, 4, 5), mirror), ((1,), mirror)]
    assert batched[1] == factorial(10)
    assert _search_space(10, tv, False, 10**9, None)[:2] == batched


def test_an_inadmissible_length_reads_no_clock(monkeypatch):
    # the short-circuit scans nothing and times nothing: elapsed_ms keeps
    # its default of 0, and a clock that raises is never read
    def clock():
        raise AssertionError("an inadmissible length read the clock")

    monkeypatch.setattr(inflatable.search, "time", SimpleNamespace(monotonic=clock))
    for central in (True, False):
        res = search_3_inflatable(SearchConfig(n=9, central_only=central))
        assert (res.status, res.scanned, res.elapsed_ms) == ("inadmissible", 0, 0)


def test_search_space_finds_a_sampled_target():
    n = 8
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(200)]
    tv = count_vector(sample[137])
    hits, scanned, _ = _search_space(n, tv, True, None, None)
    assert scanned == space_size(n, True)
    assert sample[137] in hits


def run_fresh(script: str) -> str:
    """The stdout of script, run in a new interpreter on this package."""
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
    return proc.stdout


def test_search_starts_no_worker_processes():
    script = (
        "import sys, inflatable\n"
        "from inflatable import SearchConfig, search_3_inflatable\n"
        "search_3_inflatable(SearchConfig(n=17, central_only=True, limit=1))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    assert run_fresh(script) == "False\n"


def test_only_a_scan_loads_numpy_and_the_kernel():
    # search calls that scan nothing leave numpy and the kernel unloaded:
    # the config, the space size, the centrally symmetric enumeration, an
    # inadmissible length through the API and through the CLI; the first
    # scan, a limited one through the CLI, loads both
    script = (
        "import io, sys\n"
        "from itertools import islice\n"
        "import inflatable\n"
        "from inflatable.cli import run\n"
        "def loaded():\n"
        "    return [m for m in ('numpy', 'inflatable._kernel') if m in sys.modules]\n"
        "inflatable.SearchConfig(n=17, limit=1)\n"
        "print(inflatable.space_size(17, True), len(list(islice(inflatable.enumerate_centrally_symmetric(17), 5))))\n"
        "print(inflatable.search_3_inflatable(inflatable.SearchConfig(n=9)).status)\n"
        "print(run(['search', '--n', '9'], stdout=io.StringIO()).payload['scanned'], loaded())\n"
        "print(run(['search', '--n', '17', '--central', '--limit', '1'], stdout=io.StringIO()).payload['scanned'])\n"
        "print(loaded())\n"
    )
    assert run_fresh(script).splitlines() == [
        "10321920 5",
        "inadmissible",
        "0 []",
        "1036295",
        "['numpy', 'inflatable._kernel']",
    ]


def test_limit_cut_is_deterministic_and_a_subset():
    n = 8
    tv = count_vector(Perm(tuple(range(1, n + 1))))  # identity: exactly one hit
    full_hits, _, _ = _search_space(n, tv, True, None, None)
    assert len(full_hits) == 1
    # a non-involution shares its count vector with its inverse, so its
    # fiber has at least two members
    gen = enumerate_centrally_symmetric(n)
    sample = [next(gen) for _ in range(300)]
    tau = next(p for p in sample if inv_perm(p) != p)
    tv = count_vector(tau)
    full_hits, full_scanned, _ = _search_space(n, tv, True, None, None)
    assert len(full_hits) >= 2
    for k in (1, 2):
        lim_hits, lim_scanned, _ = _search_space(n, tv, True, k, None)
        assert len(lim_hits) == k
        assert set(lim_hits) <= set(full_hits)
        assert lim_scanned <= full_scanned
        again = _search_space(n, tv, True, k, None)[:2]
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
                assert _search_space(n, tv, central, limit, None)[:2] == want


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

    hits, _, _ = _search_space(n, tv, True, None, None, progress)
    assert sorted(seen) == hits
    assert indices == sorted(indices)


def test_timeout_raises_with_partial_progress(monkeypatch):
    # the kernel reads the clock as each block enters, with or without a
    # limit, so it stops at the first block after the deadline. The whole
    # central n=17 scan can end inside these timeouts, so a fake clock
    # moves 1 ms at each read: the whole scan reads it about 44 times, and
    # the deadline passes mid-scan, after the same reads whatever the
    # scan's speed
    ticks = count(0, 0.001)
    monkeypatch.setattr(inflatable.search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(SearchTimeout) as exc:
        search_3_inflatable(SearchConfig(n=17, limit=10**9, timeout=0.02))
    assert exc.value.scanned > 0
    assert isinstance(exc.value.hits, list)
    assert exc.value.elapsed_ms >= 0
    with pytest.raises(SearchTimeout):
        search_3_inflatable(SearchConfig(n=17, timeout=0.01))
    monkeypatch.undo()
    # real 0.5-s timeouts: the whole central n=17 scan ends well inside
    # them, so the central leg runs at the next admissible length, 64,
    # which cannot finish
    for n, central in ((64, True), (17, False)):
        with pytest.raises(SearchTimeout) as exc:
            search_3_inflatable(SearchConfig(n=n, central_only=central, timeout=0.5))
        assert 500 <= exc.value.elapsed_ms < 750


def test_elapsed_time_is_read_on_the_timeouts_clock(monkeypatch):
    # loading the kernel and building the tail's plan happen before the
    # deadline's clock starts, so they count toward neither: a fake clock
    # jumps 10 s while the plan is built, and a search that finishes
    # inside its 5-s timeout reports less than either
    now = [0.0]
    tail = inflatable._kernel._tail

    def slow_tail(space):
        now[0] += 10.0
        return tail(space)

    monkeypatch.setattr(inflatable._kernel, "_tail", slow_tail)
    monkeypatch.setattr(inflatable.search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    res = search_3_inflatable(SearchConfig(n=17, limit=3, timeout=5))
    assert res.found == 3
    assert res.elapsed_ms < 5_000


def test_a_shard_past_its_deadline_stops_as_its_first_block_enters():
    space = _space(17, True)
    hits, scanned, timed_out = scan_shard(17, _target_vector(17), space, 2, lambda: True)
    assert hits.shape == (0, 17) and (scanned, timed_out) == (0, True)


def test_long_lengths_keep_int16_kernel_values_or_refuse(monkeypatch):
    # the kernel's blocks hold int16 values at every length it accepts: in
    # a limited run at n=17 and in short timed runs at n=161 and n=288,
    # which must stop with SearchTimeout, not wrap a value or a count
    dtypes = {}

    def spied_space(n, central):
        space = _space(n, central)

        def taken(v):
            if isinstance(v, np.ndarray):
                dtypes.setdefault(n, set()).add(v.dtype)
            return space.taken(v)

        return replaced(space, taken=taken)

    monkeypatch.setattr(inflatable.search, "_space", spied_space)
    search_3_inflatable(SearchConfig(n=17, limit=1))
    for n in (161, 288):
        for central in (True, False):
            with pytest.raises(SearchTimeout) as exc:
                search_3_inflatable(SearchConfig(n=n, central_only=central, timeout=0.05))
            assert exc.value.elapsed_ms < 250
    assert dtypes == {n: {np.dtype(np.int16)} for n in (17, 161, 288)}
    # past n = 1626 the int32 working counts could overflow, in either space
    _check_length(1626)
    with pytest.raises(ValueError):
        _check_length(1627)
    for central in (True, False):
        with pytest.raises(ValueError):
            search_3_inflatable(
                SearchConfig(n=1728, central_only=central, timeout=0.05)
            )


def test_a_long_timed_scan_keeps_its_memory_bounded():
    # the blocks along one descent path hold at most _PATH_CELLS values and
    # a child step indexes one chunk of a block's states at a time, so a
    # 0.3-s timed central n=288 scan peaks at about 25 MiB traced. Indexing
    # every child of a whole block at once peaked above 200 MiB.
    search_3_inflatable(SearchConfig(n=17, limit=1))  # numpy's imports stay untraced
    tracemalloc.start()
    try:
        with pytest.raises(SearchTimeout):
            search_3_inflatable(SearchConfig(n=288, timeout=0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak


def test_the_full_length17_central_scan_keeps_its_memory_small():
    # one root block holds the 8 central n=17 shards' 13,440 depth-4
    # states, and the tail joins its 9,120 kept states with their keys an
    # eighth of the one-shard pass at a time, so the scan's traced peak
    # stays at about 3.5 MiB, against 2.1 MiB with one shard per root
    # block. One join of every kept state at once peaked at 12 MiB.
    search_3_inflatable(SearchConfig(n=17, limit=1))  # numpy's imports stay untraced
    tracemalloc.start()
    try:
        search_3_inflatable(SearchConfig(n=17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_known_hit_shard_length17():
    # scan only the shard whose first value is 16: it must contain the
    # known length-17 example and nothing that fails re-verification
    tv = _target_vector(17)
    assert tv == (102, 119, 119, 119, 119, 102, 68)
    hits, scanned, timed_out = scan_shard(17, tv, _space(17, True), 16)
    assert not timed_out
    assert scanned == space_size(17, True) // 16
    found = [Perm(h) for h in hits.tolist()]
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
    assert_hits_are_permutations(hits, 17, _target_vector(17))
    assert all(check_3_inflatable(h).verdict for h in hits)
    e17 = Perm("E534BGA9HC2D1687F")
    assert not is_centrally_symmetric(e17) and e17 not in hits
    W = np.array(e17, dtype=np.int16)[:, None]
    got = _counts(_space(17, False), W)
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

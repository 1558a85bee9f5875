"""Shared brute-force helpers the optimized code is tested against."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import combinations
from math import comb

from inflatable import PATTERNS_3, Perm, core, pattern_of


def brute_counts3(perm) -> tuple:
    """All six length-3 counts plus (inv12, inv21) by direct enumeration."""
    p = Perm(perm)
    counts = {q: 0 for q in PATTERNS_3}
    for tri in combinations(p, 3):
        counts[pattern_of(tri)] += 1
    inv12 = sum(1 for a, b in combinations(p, 2) if a < b)
    return counts, inv12, comb(p.n, 2) - inv12


def per_position_counts3(perm) -> tuple:
    """The same as brute_counts3 in O(n log n), summed position by position.

    Each position splits the other points into the smaller and larger values
    to its left and right (ls, ll, rs, rl); with it in the middle, ls*rl
    triples form 123 and ll*rs form 321, and C(rl,2), C(ls,2), C(ll,2) and
    C(rs,2) count the triples in which it is the lowest and first, highest
    and last, lowest and last, and highest and first point.
    """
    p = Perm(perm)
    n = p.n
    c123 = c321 = low_first = high_last = low_last = high_first = inv12 = 0
    prefix: list[int] = []
    for i, v in enumerate(p):
        ls = bisect_left(prefix, v)
        insort(prefix, v)
        ll = i - ls
        rs = v - 1 - ls
        rl = n - v - ll
        c123 += ls * rl
        c321 += ll * rs
        low_first += comb(rl, 2)
        high_last += comb(ls, 2)
        low_last += comb(ll, 2)
        high_first += comb(rs, 2)
        inv12 += ls
    by_pattern = (
        c123,
        low_first - c123,
        high_last - c123,
        low_last - c321,
        high_first - c321,
        c321,
    )
    return dict(zip(PATTERNS_3, by_pattern)), inv12, comb(n, 2) - inv12


def random_perm(rng: random.Random, n: int) -> Perm:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Perm(vals)


def record_count3_calls(monkeypatch) -> list:
    """Empty the library's memos and list each host count_length3_all counts from now on."""
    calls = []
    counter = core.count_length3_all

    def counted(host):
        calls.append(host)
        return counter(host)

    monkeypatch.setattr(core, "count_length3_all", counted)
    core._clear_memos()
    return calls

"""Shared brute-force helpers the optimized code is tested against."""

from __future__ import annotations

import random
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


def random_perm(rng: random.Random, n: int) -> Perm:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Perm(vals)


def record_count3_calls(monkeypatch) -> list:
    """Empty core's occurrence memo and list each host count_length3_all counts from now on."""
    calls = []
    counter = core.count_length3_all

    def counted(host):
        calls.append(host)
        return counter(host)

    monkeypatch.setattr(core, "count_length3_all", counted)
    core._host_tables.cache_clear()
    return calls

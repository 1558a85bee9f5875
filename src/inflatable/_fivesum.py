"""The five rank sums of a permutation, and the key the search matches them by.

With 0-based positions i, values v_i and ranks r_i (the smaller values left
of position i), the sums S, Q, Si, Sv and P add up r_i, r_i^2, r_i*i,
r_i*v_i and i*v_i. The length-3 counts and the ascending pair count are
linear in them and the map inverts, so a permutation has counts that some
permutation has exactly when it has their sums. A key folds the five sums
into one int64, a weighted sum mod 2^64 that adds up point by point.

The search's last steps complete each state in every way at once and key
each completion (Tail). Only a scan needs this module, so the search
imports it on first use, as it does numpy, and importing the search
compiles none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations, product
from math import comb
from operator import mul


def five_sums_of_targets(n: int, tv: tuple) -> tuple:
    """(S, Q, Si, Sv, P) of every length-n permutation with the count
    vector tv (the six length-3 counts, then the ascending pairs)."""
    c123, c132, c213, c231, c312, c321, s = tv
    i1 = comb(n, 2)
    i2 = i1 * (2 * n - 1) // 3  # the sum of i^2
    q = 2 * (c123 + c213) + s
    h = (i2 - i1 + s + q) // 2
    return s, q, h - c231 - c321, h + s - c312 - c321, c132 - i2 + n * i1 + (q + s) // 2


def key_multipliers(n: int) -> tuple:
    """The int64 weights of (S, Q, Si, Sv, P) in a key: mixed radix, as
    S <= I1 = C(n, 2), Q, Si <= I2 = sum i^2 and Sv <= n*I1, so mod 2^64 the
    key is one-to-one on permutations' sums up to n = 33."""
    i1, i2 = comb(n, 2), comb(n, 2) * (2 * n - 1) // 3
    weights = accumulate((1, i1 + 1, i2 + 1, i2 + 1, n * i1 + 1), mul)
    return tuple((w + (1 << 63)) % (1 << 64) - (1 << 63) for w in weights)


def key_terms(mult: tuple, n: int, central: bool, i, v, r):
    """Key terms of points at positions i with values v and ranks r (int64
    arrays, wrapping), plus, when central, those of their mirror points
    (n+1-v at n-1-i, with rank n-v-i+r; the center is its own)."""
    m_s, m_q, m_si, m_sv, m_p = mult
    key = lambda i, v, r: r * (m_s + m_q * r + m_si * i + m_sv * v) + m_p * i * v
    if not central:
        return key(i, v, r)
    return key(i, v, r) + (2 * i != n - 1) * key(n - 1 - i, n + 1 - v, n - v - i + r)


@dataclass(frozen=True)
class Tail:
    """The completion by key of search states with all but a few steps
    taken, a step placing one value (or, central, a value and its mirror).

    A state's free values, ascending, are its rows: the low ones, the
    center (odd central states), the high ones, one layout for all states.
    Completion p places rows picks[:, p] at the free left positions in
    turn; the center, if any, is its last slot. terms is the flat table of
    key terms [slot, rank, value], slot t being the t-th free position or
    the center. p's slot t is combos[:, slots[t, p]]: its row and its
    offset in terms, which counts p's earlier picks below it into the rank.
    """

    n: int
    central: bool
    mult: tuple
    terms: np.ndarray
    picks: np.ndarray
    combos: np.ndarray
    slots: np.ndarray

    def matches(self, tv: tuple, W, used) -> tuple:
        """(s, rows): the completions of the position-major int64 states W
        whose key equals that of the counts tv, as their states' columns s
        and the values they place, one row per step. used[v, s] marks the
        values state s uses up, and 0."""
        import numpy as np

        n, (d, kept) = self.n, W.shape
        X = np.nonzero(~used.T)[1].reshape(kept, -1).T  # free values, ascending
        below = sum(W[i] < X for i in range(d))  # prefix values below each
        ranks = np.array([(W[:j] < W[j]).sum(axis=0) for j in range(d)])
        prefix = key_terms(self.mult, n, self.central, np.arange(d)[:, None], W, ranks)
        target = np.array(self.mult) @ np.array(five_sums_of_targets(n, tv))
        rows, starts = self.combos
        G = self.terms.take((X + (n + 1) * below)[rows] + starts[:, None])
        keys = G[self.slots[0]]
        for t in self.slots[1:]:
            keys += G[t]
        p, s = np.divmod(np.flatnonzero(keys == target - prefix.sum(axis=0)), kept)
        return s, X[self.picks[:, p], s]


def tail_plan(n: int, steps: int, central: bool, d0: int) -> Tail:
    """The Tail of the length-n states with d0 of steps steps taken."""
    import numpy as np

    per_step = 2 if central else 1
    tail, w = steps - d0, n - per_step * d0  # steps left, free values
    center = (tail,) * (w - per_step * tail)
    picks = [
        tuple(w - 1 - k if high else k for k, high in zip(order, flips)) + center
        for order in permutations(range(tail))
        for flips in product(range(per_step), repeat=tail)
    ]
    size = (steps + 1) * (n + 1)  # one slot's terms
    slots = [
        [(k, t * size + (n + 1) * sum(j < k for j in p[:t])) for t, k in enumerate(p)]
        for p in picks
    ]
    combos = sorted(set().union(*slots))
    index = [[combos.index(c) for c in row] for row in slots]
    mult = key_multipliers(n)
    i = np.arange(d0, d0 + len(picks[0]))[:, None]
    v, r = np.arange(n + 1), np.arange(steps + 1)[:, None]
    terms = np.empty((len(i), steps + 1, n + 1), dtype=np.int64)
    for t in range(len(i)):  # a slot at a time: one slot's temporaries
        terms[t] = key_terms(mult, n, central, i[t], v, r)
    return Tail(
        n,
        central,
        mult,
        terms.ravel(),
        np.array(picks).T[:tail],
        np.array(combos).T,
        np.array(index).T,
    )

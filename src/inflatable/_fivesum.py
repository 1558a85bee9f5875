"""The five rank sums of a permutation, and the key the search matches them by.

With 0-based positions i, values v_i and ranks r_i (the smaller values left
of position i), the sums S, Q, Si, Sv and P add up r_i, r_i^2, r_i*i,
r_i*v_i and i*v_i. The length-3 counts and the ascending pair count are
linear in them and the map inverts, so a permutation has counts that some
permutation has exactly when it has their sums. A key folds the five sums
into one int64, a weighted sum mod 2^64 that adds up point by point.

The search completes each state a few steps from the end in every way at
once (Tail). A completion's tail key depends only on the state's set of
left values, so the keys are made once per set, from the terms of each
set's (value, position, rank) combinations, and joined with every state
of the set. Only a scan needs this module, so the search imports it on
first use, as it does numpy, and importing the search compiles none of
it.
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
    turn; the center, if any, is its last slot. A combo (a column of
    combos) is a row, a position and the count of earlier picks below the
    row; p's slot t is combo slots[t, p].

    The free values, the prefix values below each and so the tail keys of
    every completion depend only on a state's set of left values, not on
    their order. So the states are grouped by that set, each set's tail
    keys are made once, and each state meets its set's keys in a join,
    per_pass states at a time.
    """

    n: int
    central: bool
    mult: tuple
    picks: np.ndarray
    combos: np.ndarray
    slots: np.ndarray
    per_pass: int

    def matches(self, tv: tuple, W, used) -> tuple:
        """(s, rows): the completions of the position-major int64 states W
        whose key equals that of the counts tv, as their states' columns s
        and the values they place, one row per step. used[v, s] marks the
        values state s uses up, and 0."""
        import numpy as np

        n, (d, kept) = self.n, W.shape
        ranks = np.array([(W[:j] < W[j]).sum(axis=0) for j in range(d)])
        prefix = key_terms(self.mult, n, self.central, np.arange(d)[:, None], W, ranks)
        target = np.array(self.mult) @ np.array(five_sums_of_targets(n, tv))
        goal = target - prefix.sum(axis=0)  # each state's tail key must meet it
        # a left value set's exact id: one bitmask word per 63 values
        word, bit = np.divmod(W, 63)
        ids = np.array([((word == j) << bit).sum(axis=0) for j in range(n // 63 + 1)])
        row, pos, below = self.combos
        found = []
        for a in range(0, kept, self.per_pass):
            part = slice(a, a + self.per_pass)
            order = np.lexsort(ids[:, part])
            by_set = ids[:, part][:, order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = (by_set[:, 1:] != by_set[:, :-1]).any(axis=0)
            inv = np.empty_like(order)  # each state's set
            inv[order] = np.cumsum(first) - 1
            sets = a + order[first]  # one state of each set
            X = np.nonzero(~used[:, sets].T)[1].reshape(len(sets), -1).T
            under = sum(W[i, sets] < X for i in range(d))  # prefix values below
            terms = key_terms(
                self.mult, n, self.central, pos[:, None], X[row], under[row] + below[:, None]
            )
            # the low 16 bits of each key, summed from those of the terms,
            # filter the join; the whole key then checks each candidate
            low = terms.astype(np.int16)
            keys = low[self.slots[0]]
            for t in self.slots[1:]:
                keys += low[t]
            join = np.ascontiguousarray(keys.T)[inv] == goal[part, None].astype(np.int16)
            s, p = np.divmod(np.flatnonzero(join), len(keys))
            hit = terms[self.slots[:, p], inv[s]].sum(axis=0) == goal[part][s]
            s, p = s[hit], p[hit]
            found.append((a + s, X[self.picks[:, p], inv[s]]))
        s, rows = zip(*found)
        return np.concatenate(s), np.concatenate(rows, axis=1)


def tail_plan(n: int, steps: int, central: bool, d0: int, cells: int) -> Tail:
    """The Tail of the length-n states with d0 of steps steps taken, whose
    join compares at most about cells keys with goals per pass."""
    import numpy as np

    per_step = 2 if central else 1
    tail, w = steps - d0, n - per_step * d0  # steps left, free values
    center = (tail,) * (w - per_step * tail)
    picks = np.array([
        tuple(w - 1 - k if high else k for k, high in zip(order, flips)) + center
        for order in permutations(range(tail))
        for flips in product(range(per_step), repeat=tail)
    ]).reshape(-1, tail + len(center))
    size = picks.shape[1]  # slots
    # slot t of a pick is a combo: its row, t, and its earlier picks below it
    earlier = (picks[:, None, :] < picks[:, :, None]) & np.tri(size, k=-1, dtype=bool)
    code = (picks * size + np.arange(size)) * size + earlier.sum(axis=2)
    codes, slots = np.unique(code.ravel(), return_inverse=True)
    row, t, below = codes // size**2, codes // size % size, codes % size
    return Tail(
        n,
        central,
        key_multipliers(n),
        picks.T[:tail],
        np.array([row, d0 + t, below]),
        slots.reshape(picks.shape).T,
        max(1, cells // len(picks)),
    )

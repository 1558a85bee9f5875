"""The search's numpy kernel: the count rules, the level policy, the shard
scan and its five-sum tail.

Each search space has one exact count rule. Once a state's first steps
are placed, the positions of the unplaced points and their value set are
fixed: they follow the placed prefix (unrestricted) or sit between the
placed outer blocks (centrally symmetric). So every triple and pair with
at most one unplaced point already has a known pattern, except a triple
of the center and an unplaced point. The rule counts them all from the
placed values, in O(d^2) per state; the triples and pairs with more
unplaced points, and those of the center with one, are the slack. Once
every step is placed the slack is 0 and the test is an exact match. The
180-degree rotation R maps a centrally symmetric state to itself, so
every triple with two points in its right block is the R-image of one
with two points in its left block; the central rule counts the left ones
and adds the image counts, which halves the work.

A shard scan starts from a root block of one or more shards' first
values: an unlimited, untimed scan's root block holds as many shards as
fit one child block at the tail's depth (_shards_per_block: all 8 at
central length 17, one at unrestricted length 17 and central 64), and
each shard of a limited or a timed scan has its own. It lists the
children of a chunk of partial states, each state with every admissible
next value, in one pass, tests each block of children on the count rule
as it enters the next level, and descends into the survivors a block at
a time, depth first, so the arrays it holds stay bounded. Near the root
the rule covers too few triples and pairs to drop any state (each target
lies between what it covers and what it leaves open); from the first
level where it can, every level counts but that first one, whose
children the next counts (depths 4 and 8 at length 17, one call each for
the full central scan's one root block). The last four steps skip the
rule: they are completed by five-sum key (Tail), and only key matches
meet the rule, at the last level. A block is stored position-major
(C-contiguous), one row per position and one column per state, so every
sum over a state's positions is a few adds of contiguous vectors. One
kernel serves both spaces, full scans (length 17, 10,321,920 centrally
symmetric candidates, in about 0.02 s on one core; see
BENCH_search17.json) and scans cut by a limit or a timeout. The test
suite checks both count rules against brute-force filtering.

With 0-based positions i, values v_i and ranks r_i (the smaller values left
of position i), the sums S, Q, Si, Sv and P add up r_i, r_i^2, r_i*i,
r_i*v_i and i*v_i. The length-3 counts and the ascending pair count are
linear in them and the map inverts (core.five_sums_of_targets), so a
permutation has counts that some permutation has exactly when it has their
sums. A key folds the five sums into one int16, a weighted sum mod 2^16
that adds up point by point: a permutation with the targets' counts has
the targets' key, but the key of another can equal it too. A completion's
tail key depends only on the state's set of left values, so the keys are
made once per set, from the terms of each set's (value, position, rank)
combinations, and joined with every state of the set. The join is a
filter: the count rule decides each completion it passes.

This is the one module of the search that imports numpy; the driver
(search) imports it before its first scan's clock starts.
"""

from __future__ import annotations

from itertools import accumulate, permutations, product
from math import comb
from operator import mul

import numpy as np

from .core import _record, five_sums_of_targets
from .search import _P12_IDX

# index image of each count under R: 132 <-> 213, 231 <-> 312, and an
# ascending pair stays ascending
_RMAP = (0, 2, 1, 4, 3, 5, _P12_IDX)

_PATH_CELLS = 1 << 22  # most values held in kernel blocks along one descent path
_TAIL = 4  # last steps of a shard completed by five-sum key, not by the count rule


# ---------------------------------------------------------------------------
# count rules


def _pair_stats(M: np.ndarray) -> tuple:
    """Ascending/descending pair counts of each state, by position.

    M is position-major: M[j, s] is the value at position j of state s.
    Returns (asc_before, asc_after, desc_before, desc_after, asc_total)
    where asc_before[j, s] counts i < j with M[i, s] < M[j, s], etc. The
    per-position counts are int16 (each is below d <= n, so the int16
    reductions are exact; see search._check_length) and asc_total is int32.
    """
    d = M.shape[0]
    lt = M[:, None, :] < M[None, :, :]
    lt &= ~np.tri(d, dtype=bool)[:, :, None]  # keep the pairs i < j
    asc_before = lt.sum(axis=0, dtype=np.int16)
    asc_after = lt.sum(axis=1, dtype=np.int16)
    idx = np.arange(d, dtype=np.int16)[:, None]
    desc_before = idx - asc_before
    desc_after = (d - 1 - idx) - asc_after
    asc_total = asc_before.sum(axis=0, dtype=np.int32)
    return asc_before, asc_after, desc_before, desc_after, asc_total


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column sums of x * y, in int32, in one pass."""
    return np.einsum("ij,ij->j", x, y, dtype=np.int32)


def _prefix_counts(n: int, W: np.ndarray) -> tuple:
    """The count vector of the triples with at least two points in the left
    block W and of the pairs with a point in it (unrestricted rule), and
    the number of later points below each block value.

    Returns (P, below): P is the (7, N) int32 count vector and below[i, s]
    counts the later points below W[i, s]. Every point outside the block
    lies after it and all of 1..n occur, so below[i, s] is the W[i, s] - 1
    values below it less the block's own, and a triple {block, block,
    later} has its later point last, whatever its value.
    """
    asc_b, asc_a, desc_b, desc_a, asc_tot = _pair_stats(W)
    d, N = W.shape
    k = n - d  # later points
    desc_tot = d * (d - 1) // 2 - asc_tot
    below = W - (1 + asc_b + desc_a)
    above = k - below
    P = np.empty((7, N), dtype=np.int32)
    # triples {block, block, later}: the block pair's order and where the
    # later value falls against the pair's values fix the pattern
    P[0] = _dot(above, asc_b)
    P[3] = _dot(below, asc_a)
    P[1] = asc_tot * k - P[0] - P[3]
    P[2] = _dot(above, desc_a)
    P[5] = _dot(below, desc_b)
    P[4] = desc_tot * k - P[2] - P[5]

    def pairs(x: np.ndarray, total: np.ndarray) -> np.ndarray:
        # the column sums of C(x, 2), given those of x
        return (_dot(x, x) - total) // 2

    # the block's own triples, by position: with asc_b = ls, asc_a = rl,
    # desc_b = ll and desc_a = rs (smaller or larger, left or right), ls*rl
    # triples have it in the middle of a 123 and ll*rs of a 321; C(rl,2),
    # C(ls,2), C(ll,2) and C(rs,2) count those where it is lowest and first,
    # highest and last, lowest and last, highest and first: 123 + 132,
    # 123 + 213, 321 + 231 and 321 + 312
    c123 = _dot(asc_b, asc_a)
    c321 = _dot(desc_b, desc_a)
    P[0] += c123
    P[1] += pairs(asc_a, asc_tot) - c123
    P[2] += pairs(asc_b, asc_tot) - c123
    P[3] += pairs(desc_b, desc_tot) - c321
    P[4] += pairs(desc_a, desc_tot) - c321
    P[5] += c321
    P[_P12_IDX] = asc_tot + above.sum(axis=0, dtype=np.int32)
    return P, below


def _central_counts(n: int, W: np.ndarray) -> np.ndarray:
    """The count vector of the triples with at most one unplaced point, the
    center and an unplaced point never together, and of the pairs with at
    most one unplaced point of centrally symmetric states (left halves W).

    The prefix counts of the left block, plus their R-images for the right
    block, cover every triple with two points in one block and every pair
    with a point in either; the left-right pairs come twice. The unplaced
    points sit between the blocks, so a triple with one point in each block
    has a known pattern too. A[i, s] counts the right points above the left
    point W[i, s], the center left out: the partner n+1-w of w lies above
    W[i, s] exactly when W[i, s] <= n - w.
    """
    d = W.shape[0]
    odd = n & 1
    k = n - 2 * d - odd
    P, below = _prefix_counts(n, W)
    F = P + P[_RMAP, :]
    A = (W[:, None, :] <= (n - W)[None, :, :]).sum(axis=0, dtype=np.int16)
    lo = A.sum(axis=0, dtype=np.int32)
    hi = d * d - lo
    F[_P12_IDX] -= lo
    # one point in each block and the unplaced point between them, below
    # a, between or above c: a < c gives 213, 123, 132; a > c gives 312,
    # 321, 231. r counts the unplaced values below each left value: its
    # later points below less the right points and the center below it.
    r = below - (d - A)
    if odd:
        low = W < (n + 1) // 2
        r -= ~low
    r_lo = _dot(A, r)
    r_hi = d * r.sum(axis=0, dtype=np.int32) - r_lo  # the sums of (d - A) * r
    F[0] += k * lo - 2 * r_lo
    F[1] += r_lo
    F[2] += r_lo
    F[3] += k * hi - r_hi
    F[4] += k * hi - r_hi
    F[5] += 2 * r_hi - k * hi
    if odd:
        # one point in each block and the center m between them; lb left
        # values lie below m, and as many right values above it
        lb = low.sum(axis=0, dtype=np.int32)
        la = d - lb
        low_a = _dot(low, A)
        s132 = low_a - lb * lb
        s213 = lo - low_a
        F[0] += lb * lb
        F[1] += s132
        F[2] += s213
        F[3] += lb * la - s132
        F[4] += la * lb - s213
        F[5] += la * la
    return F


def _counts(space, W: np.ndarray) -> np.ndarray:
    """space's exact count rule for the position-major states W (W[j, s]
    is the value at position j of state s), one column of 7 counts per
    state: the unplaced points follow the prefix (prefix rule) or sit
    between the placed outer blocks (central rule)."""
    if space.per_step == 1:
        return _prefix_counts(space.n, W)[0]
    return _central_counts(space.n, W)


def _rule_prunes(n: int, tv: tuple, slack: tuple) -> bool:
    """Whether the count rule, leaving slack open, can drop a state under
    the targets tv. A state's counts lie between 0 and what the rule
    covers, so where every target lies between that covered total and the
    slack, every state's counts are at most the targets and within the
    slack of them, and no state fails."""
    full = (comb(n, 3),) * 6 + (comb(n, 2),)
    return any(not f - s <= t <= s for t, f, s in zip(tv, full, slack))


def _counted_depths(n: int, tv: tuple, space, d0: int) -> tuple:
    """The depths at which a shard scan counts its blocks under the targets
    tv, d0 being the tail's depth. The slack only shrinks as d grows, so
    the rule can drop a state (_rule_prunes) at every depth from the
    shallowest such, first, on. first defers to the next level when above
    d0: a child's counts are at least its parent's, and its counts plus
    its slack at most its parent's plus the parent's slack, so the next
    level drops every child of a state first would drop. Only first
    defers: there the rule drops the fewest states, whose children the
    next level then counts in their place."""
    steps = space.steps
    first = next((d for d in range(1, steps) if _rule_prunes(n, tv, space.slack(d))), steps)
    return (*range(first + (first < d0), d0 + 1), steps)


def _shards_per_block(space, d0: int) -> int:
    """How many shards of space one root block scans: as many as fit one
    child block at the tail's depth d0, where a shard holds
    leaves[1] // leaves[d0] states, and at least one. Down to d0, the root
    block's descendants at each depth then hold at most the cap at d0,
    which the budget allows at every depth above."""
    cap = _PATH_CELLS // (space.steps * d0)
    return max(1, cap // (space.leaves[1] // space.leaves[d0]))


# ---------------------------------------------------------------------------
# five-sum tail


def _int16(x: int) -> int:
    """x mod 2^16, in the signed 16-bit range."""
    return (x + (1 << 15)) % (1 << 16) - (1 << 15)


def key_multipliers(n: int) -> tuple:
    """The weights of (S, Q, Si, Sv, P) in a key, mod 2^16 in the signed
    16-bit range: mixed radix, as S <= I1 = C(n, 2), Q, Si <= I2 = sum i^2
    and Sv <= n*I1. Kept in that range, each weight meets an int16 array
    as int16 under numpy 1.x's value-based casting and numpy 2's rules."""
    i1, i2 = comb(n, 2), comb(n, 2) * (2 * n - 1) // 3
    return tuple(map(_int16, accumulate((1, i1 + 1, i2 + 1, i2 + 1, n * i1 + 1), mul)))


def key_terms(mult: tuple, n: int, central: bool, i, v, r):
    """Key terms of points at positions i with values v and ranks r (int16
    arrays, whose + and * wrap mod 2^16), plus, when central, those of
    their mirror points (n+1-v at n-1-i, with rank n-v-i+r; the center is
    its own). Values, positions and ranks are at most 1626 (the search's
    longest length), so they fit int16."""
    m_s, m_q, m_si, m_sv, m_p = mult
    key = lambda i, v, r: r * (m_s + m_q * r + m_si * i + m_sv * v) + m_p * i * v
    if not central:
        return key(i, v, r)
    return key(i, v, r) + (2 * i != n - 1) * key(n - 1 - i, n + 1 - v, n - v - i + r)


@_record
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
    their order. So the states are grouped by that set, once, and taken
    per_pass states at a time in set order: a pass makes the tail keys of
    its states' sets, a set once (twice if it spans two passes), and each
    state meets its set's keys in a join. per_pass bounds the keys a pass
    makes and compares. The join is a filter: the search's count
    rule decides each state and completion it pairs.
    """

    n: int
    central: bool
    mult: tuple
    picks: np.ndarray
    combos: np.ndarray
    slots: np.ndarray
    per_pass: int

    def matches(self, tv: tuple, W, used, shards: int = 1) -> tuple:
        """(s, rows): the completions of the position-major int16 states W
        whose key equals that of the counts tv, as their states' columns s
        and the int16 values they place, one row per step. They include
        every completion with the counts tv. used[v, s] marks the values
        state s uses up, and 0. W holds states of a root block of the
        given number of shards, taken per_pass // shards at a time: a
        one-shard block joins in the passes the block budget allows, and
        a block of several shards, whose kept states would otherwise meet
        in one pass, in passes that many times shorter. The keys wrap mod
        2^16 in int16 only, so a W of another dtype raises TypeError."""
        if W.dtype != np.int16:
            raise TypeError(f"states must be int16, not {W.dtype}")
        n, (d, kept) = self.n, W.shape
        place = np.arange(d, dtype=np.int16)[:, None]
        ranks = np.array([(W[:j] < W[j]).sum(axis=0) for j in range(d)], dtype=np.int16)
        prefix = key_terms(self.mult, n, self.central, place, W, ranks)
        target = _int16(sum(map(mul, self.mult, five_sums_of_targets(n, tv))))
        goal = target - prefix.sum(axis=0, dtype=np.int16)  # each state's tail key must meet it
        ids = np.sort(W, axis=0)  # a left value set's id: its values, ascending
        order = np.lexsort(ids)  # the states, grouped by set
        by_set = ids[:, order]
        opens = np.ones(kept, dtype=bool)  # a state that opens its set
        opens[1:] = (by_set[:, 1:] != by_set[:, :-1]).any(axis=0)
        row, pos, below = self.combos
        per_pass = max(1, self.per_pass // shards)
        found = []
        for a in range(0, kept, per_pass):
            states = order[a:a + per_pass]
            first = opens[a:a + per_pass].copy()
            first[0] = True  # a set the last pass began opens this one too
            inv = np.cumsum(first) - 1  # each state's set
            sets = states[first]  # one state of each set
            X = np.nonzero(~used[:, sets].T)[1].astype(np.int16).reshape(len(sets), -1).T
            under = sum(W[i, sets] < X for i in range(d))  # prefix values below
            terms = key_terms(
                self.mult, n, self.central, pos[:, None],
                X[row], under.astype(np.int16)[row] + below[:, None],
            )
            keys = terms[self.slots[0]]
            for t in self.slots[1:]:
                keys += terms[t]
            join = np.ascontiguousarray(keys.T)[inv] == goal[states, None]
            s, p = np.divmod(np.flatnonzero(join), len(keys))
            found.append((states[s], X[self.picks[:, p], inv[s]]))
        s, rows = zip(*found)
        return np.concatenate(s), np.concatenate(rows, axis=1)


def tail_plan(n: int, steps: int, central: bool, d0: int, cells: int) -> Tail:
    """The Tail of the length-n states with d0 of steps steps taken, whose
    join compares at most about cells keys with goals per pass."""
    per_step = 2 if central else 1
    tail, w = steps - d0, n - per_step * d0  # steps left, free values
    # each order of the steps' low rows, each flipped to its high row or not
    orders = np.array(list(permutations(range(tail))), dtype=np.int64)[:, None]
    flips = np.array(list(product(range(per_step), repeat=tail)), dtype=bool)
    picks = np.where(flips, w - 1 - orders, orders).reshape(len(orders) * len(flips), tail)
    # the center, if any, fills the last slot
    picks = np.concatenate([picks, np.full((len(picks), w - per_step * tail), tail)], axis=1)
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
        np.array([row, d0 + t, below], dtype=np.int16),
        slots.reshape(picks.shape).T,
        max(1, cells // len(picks)),
    )


# ---------------------------------------------------------------------------
# shard scan


def _tail(space) -> tuple:
    """(d0, plan): a shard of space completes the states it keeps at depth
    d0 = max(1, steps - _TAIL) by plan.matches."""
    d0 = max(1, space.steps - _TAIL)
    return d0, tail_plan(space.n, space.steps, space.per_step == 2, d0, _PATH_CELLS)


def _scan_shard(n: int, tv: tuple, space, firsts, tail: tuple, expired) -> tuple:
    """Scan the subtrees of space rooted at the first values firsts, from
    one root block of len(firsts) states, one per shard: search gives a
    root block as many shards as fit one child block at the tail's depth
    (_shards_per_block), or one under a limit or a timeout.

    Returns (hits, scanned, timed_out) with hits as an int16 array, one
    row of values per hit, sorted lexicographically with one lexsort and
    expanded from the stored steps by space.as_hit in one pass, and
    scanned the leaves credited to all of firsts' shards together (a
    whole scan credits len(firsts) * leaves[1]).
    A block of N states with d steps taken is stored position-major, as a
    C-contiguous (d, N) int16 array, one column per state
    (search._check_length). Each block is counted as it enters, by the
    space's exact rule, and keeps only the states whose counts neither
    overshoot a target nor fall short of it by more than the slack the
    rule leaves open; each dropped state is credited with its leaves. Only
    the depths _counted_depths names count; at the others a block enters
    whole. A child step marks the values the kept
    states use up in one mask, and lists the children of a chunk of kept
    states in one pass, value-major, as the (next value, state) pairs
    whose value uses up none of the state's. Their blocks, the states'
    columns with the value as a new row, are descended into, depth first,
    as soon as each is built.
    Below the last level, a block with d steps taken has at most
    _PATH_CELLS / (steps * d) states, and a chunk's index arrays list at
    most as many children (at least one state's), so the blocks and index
    arrays held along one descent path hold O(_PATH_CELLS) values at any
    length. The last level's block holds one depth-d0 block's key matches,
    which the budget does not bound. The kernel calls expired() once as
    each block enters, and stops as soon as it returns True.

    The states kept at depth d0 (tail = (d0, plan), from _tail) are
    completed in every way at once: each completion's five-sum key (the
    prefix points' terms plus the tail's, made once per left value set) is
    compared with the targets'. The key is a 16-bit filter: its matches
    enter the last level as one block, where the count rule with slack 0
    decides every one of them.
    """
    T = np.array(tv, dtype=np.int32)[:, None]
    d0, plan = tail
    counted = _counted_depths(n, tv, space, d0)
    slack = {d: np.array(space.slack(d), dtype=np.int32)[:, None] for d in counted}
    values = np.array(space.values, dtype=np.int16)
    hit_blocks = [np.empty((space.steps, 0), dtype=np.int16)]
    scanned = 0
    timed_out = False

    def descend(W: np.ndarray) -> None:
        nonlocal scanned, timed_out
        if expired():
            timed_out = True
            return
        d, N = W.shape
        if d in slack:
            C = _counts(space, W)
            W = W.compress(((C <= T) & (C + slack[d] >= T)).all(axis=0), axis=1)
        kept = W.shape[1]
        scanned += (N - kept) * space.leaves[d]
        if not kept:
            return
        if d == space.steps:
            hit_blocks.append(W)
            scanned += kept
            return
        used = np.zeros((n + 1, kept), dtype=bool)
        used[0] = True  # so ~used holds the free values only
        for taken in space.taken(W):
            used[taken, np.arange(kept)] = True
        if d == d0:
            s, placed = plan.matches(tv, W, used, len(firsts))
            scanned += kept * space.leaves[d] - len(s)
            if len(s):
                descend(np.concatenate([W.take(s, axis=1), placed]))
            return
        size = _PATH_CELLS // (space.steps * (d + 1))  # states in a child block
        chunk = max(1, size // len(values))  # states whose children one pass lists
        for a in range(0, kept, chunk):
            # the chunk's children, value-major: values[u] placed after state a + s
            u, s = np.nonzero(~used[values, a:a + chunk])
            for b in range(0, len(s), size):
                part = slice(b, b + size)
                descend(np.concatenate([W.take(a + s[part], axis=1), values[None, u[part]]]))
                if timed_out:
                    return

    descend(np.array([firsts], dtype=np.int16))
    L = np.concatenate(hit_blocks, axis=1)
    # lexsort's last key leads, so the first position goes last
    hits = space.as_hit(L[:, np.lexsort(L[::-1])].T)
    if not timed_out and scanned != len(firsts) * space.leaves[1]:
        raise RuntimeError("shard coverage accounting is off")
    return hits, scanned, timed_out

"""Exhaustive search for 3-inflatable permutations.

Candidates are permutations whose six length-3 counts and ascending pair
count all equal the exact integer targets for their length, so the search
is a constraint scan, not a verification loop: partial placements carry
incremental counts and a branch dies as soon as any count overshoots its
target or can no longer reach it.

The reach and overshoot tests are exact for every triple and pair with
at most one unplaced point. Once a state's first steps are placed, the
positions of the unplaced points and their value set V are fixed: they
follow the placed prefix (unrestricted) or sit between the placed outer
blocks (centrally symmetric). So every {placed, placed, unplaced} triple
and {placed, unplaced} pair already has a known pattern, counted in O(d)
per state from how many values of V lie below each placed value. Only
the triples and pairs with more unplaced points, and in the central
space those with the center, are left to the slack.

Both search spaces go through one vectorized kernel (numpy). It extends a
block of partial states by every admissible next value at once and
descends into the surviving children a block at a time, depth first, so
the arrays it holds stay bounded. The same kernel serves full scans
(length 17, 10,321,920 centrally symmetric candidates, in seconds on one
core) and scans cut by a result limit or a timeout: each shard is scanned
whole and its sorted hits are cut at the limit. Only the child generator
depends on the space: unrestricted states grow by one value placed last,
centrally symmetric ones by a complementary pair. The test suite checks
both against brute-force filtering.

Shards are the choices of first value u. Complement (v -> n+1-v) maps
shard u onto shard n+1-u and fixes the real targets, so only the shards
with u <= n+1-u are scanned: every other shard is derived from its mirror
by complementing the hits (at length 17, 8 scans serve the 16 central
shards). Targets that complement does not fix, as in the tests, get a
scan of the mirror under the complemented targets, by the same rule.

Centrally symmetric states place complementary value pairs outside-in:
after d steps positions 1..d and n-d+1..n are filled and the pair
(u, n+1-u) enters at positions d+1 and n-d. The 180-degree rotation R maps
the partial state to itself, so every new pattern occurrence involving the
right copy is the R-image of one involving the left copy; the kernel
counts the left ones and adds the image counts, which halves the work.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from multiprocessing import get_context
from typing import Callable, Iterator, Optional

from .core import PATTERNS_3, Perm
from .criteria import admissible_residues, target_counts_3

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchTimeout",
    "search_3_inflatable",
    "enumerate_centrally_symmetric",
    "space_size",
]

# count vector layout: the six length-3 patterns in lexicographic order,
# then the ascending pair count. The descending pair count needs no column:
# placed and target pairs both sum to C(placed, 2) and C(n, 2), so its
# overshoot and reach tests are the ascending column's reach and overshoot.
_P12_IDX = 6

# index image of each length-3 pattern under R (132 <-> 213, 231 <-> 312)
# and under reversal (123 <-> 321, 132 <-> 231, 213 <-> 312)
_RMAP = (0, 2, 1, 4, 3, 5)
_REVMAP = (5, 3, 4, 1, 2, 0)

_PATH_CELLS = 1 << 22  # most values held in kernel blocks along one descent path


class SearchTimeout(Exception):
    """Raised when a configured timeout expires mid-scan.

    Carries the partial progress: .hits, .scanned, .elapsed_ms. scanned
    credits only finished leaves and pruned subtrees.
    """

    def __init__(self, hits: list, scanned: int, elapsed_ms: int):
        self.hits = hits
        self.scanned = scanned
        self.elapsed_ms = elapsed_ms
        super().__init__(
            f"search timed out after {elapsed_ms} ms "
            f"({scanned} candidates covered, {len(hits)} hits so far)"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run.

    n: candidate length (>= 3).
    central_only: restrict to centrally symmetric candidates.
    limit: stop after this many hits (None scans everything).
    threads: worker processes; results are identical for any thread count.
        Workers scan only the shards that are not derived from a mirror
        (half of them for the real targets), so at most that many are used.
    timeout: wall-clock seconds before SearchTimeout (None = no timeout).
    """

    n: int
    central_only: bool = True
    limit: Optional[int] = None
    threads: int = 1
    timeout: Optional[float] = None


@dataclass(frozen=True)
class SearchResult:
    """Search outcome; iterates as the triple (hits, scanned, found).

    scanned counts candidates covered: visited leaves plus every leaf under
    a pruned branch, so a completed scan reports exactly the space size.
    A limited run counts by the lexicographic-cut rule instead: a shard
    with at least limit hits is scanned whole but credited only up to its
    own limit-th hit, as if its scan had stopped there, so scanned is not
    every leaf the run covered.
    status is "ok" or "inadmissible"; inadmissible lengths are decided
    without scanning (scanned = 0) and reason says why.
    """

    hits: list
    scanned: int
    found: int
    status: str = "ok"
    reason: Optional[str] = None
    elapsed_ms: int = 0

    def __iter__(self) -> Iterator:
        return iter((self.hits, self.scanned, self.found))


def space_size(n: int, central_only: bool) -> int:
    """Number of candidates: 2^(n//2) * (n//2)! centrally symmetric, else n!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _space(n, central_only).leaves[0]


def enumerate_centrally_symmetric(n: int) -> Iterator[Perm]:
    """Yield every centrally symmetric permutation of length n, lexicographically.

    The first half determines the rest (value at position i pairs with
    n+1-i summing to n+1; odd n pins the center), so there are
    2^(n//2) * (n//2)! of them and lexicographic order on the first half is
    lexicographic order on the whole permutation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n // 2
    nn1 = n + 1
    vals = [0] * n
    if n % 2:
        vals[m] = nn1 // 2
    used = bytearray(m + 1)  # pair id = min(v, n+1-v)

    def rec(pos: int) -> Iterator[Perm]:
        if pos == m:
            yield Perm(tuple(vals))
            return
        for v in range(1, n + 1):
            if 2 * v == nn1:
                continue
            pid = min(v, nn1 - v)
            if used[pid]:
                continue
            used[pid] = 1
            vals[pos] = v
            vals[n - 1 - pos] = nn1 - v
            yield from rec(pos + 1)
            used[pid] = 0

    yield from rec(0)


def _target_vector(n: int) -> Optional[tuple]:
    tc = target_counts_3(n)
    if tc is None:
        return None
    return tuple(tc[p] for p in PATTERNS_3) + (tc[Perm((1, 2))],)


# ---------------------------------------------------------------------------
# level kernel (numpy)


def _pair_stats(M: np.ndarray) -> tuple:
    """Ascending/descending pair counts of each row, by position.

    Returns (asc_before, asc_after, desc_before, desc_after, asc_total)
    where asc_before[s, j] counts i < j with M[s, i] < M[s, j], etc.
    """
    import numpy as np

    N, d = M.shape
    if d == 0:
        z = np.zeros((N, 0), dtype=np.int32)
        return z, z, z.copy(), z.copy(), np.zeros(N, dtype=np.int32)
    lt = M[:, :, None] < M[:, None, :]
    iu = np.triu(np.ones((d, d), dtype=bool), 1)
    asc_before = (lt & iu).sum(axis=1, dtype=np.int32)
    asc_after = (lt & iu).sum(axis=2, dtype=np.int32)
    idx = np.arange(d, dtype=np.int32)
    desc_before = idx[None, :] - asc_before
    desc_after = (d - 1 - idx)[None, :] - asc_after
    asc_total = asc_before.sum(axis=1, dtype=np.int32)
    return asc_before, asc_after, desc_before, desc_after, asc_total


def _last_triples(
    above: np.ndarray, below: np.ndarray, stats: tuple, k: int
) -> np.ndarray:
    """Counts of triples {old, old, new} with the new point last, by pattern.

    Sums over k new values: above[s, i] and below[s, i] count those above
    and below old value i of row s (for one new value, a bool array and its
    negation). stats are the _pair_stats of the same rows.
    """
    import numpy as np

    asc_b, asc_a, desc_b, desc_a, asc_tot = stats
    d = above.shape[1]
    b = np.empty((above.shape[0], 6), dtype=np.int32)
    b[:, 0] = (above * asc_b).sum(axis=1, dtype=np.int32)
    b[:, 3] = (below * asc_a).sum(axis=1, dtype=np.int32)
    b[:, 1] = asc_tot * k - b[:, 0] - b[:, 3]
    b[:, 2] = (above * desc_a).sum(axis=1, dtype=np.int32)
    b[:, 5] = (below * desc_b).sum(axis=1, dtype=np.int32)
    b[:, 4] = (d * (d - 1) // 2 - asc_tot) * k - b[:, 2] - b[:, 5]
    return b


def _values_below(Wi: np.ndarray, stats: tuple, others) -> np.ndarray:
    """r[s, i]: how many unplaced values lie below Wi[s, i].

    Wi holds placed values as int32, stats are their _pair_stats, and
    others[s, i] counts the placed values below Wi[s, i] that are not in
    row s of Wi.
    """
    asc_b, _, _, desc_a, _ = stats
    return Wi - 1 - asc_b - desc_a - others


def _suffix_counts(n: int, W: np.ndarray, stats: tuple) -> np.ndarray:
    """The count vector of the {placed, placed, unplaced} triples and the
    {placed, unplaced} pairs of unrestricted states (rows of W).

    Every unplaced point follows the placed prefix, so it comes last in
    each such triple and pair, whatever its value.
    """
    import numpy as np

    k = n - W.shape[1]
    r = _values_below(W.astype(np.int32), stats, 0)
    F = np.empty((W.shape[0], 7), dtype=np.int32)
    F[:, :6] = _last_triples(k - r, r, stats, k)
    F[:, _P12_IDX] = (k - r).sum(axis=1, dtype=np.int32)
    return F


def _right_below(n: int, Wi: np.ndarray) -> np.ndarray:
    """RB[s, i]: how many right-half values of centrally symmetric state s,
    the center included, lie below its left value Wi[s, i] (int32 rows)."""
    import numpy as np

    N = Wi.shape[0]
    right = np.zeros((N, n + 2), dtype=np.int32)
    right[np.arange(N)[:, None], n + 1 - Wi] = 1
    if n & 1:
        right[:, (n + 1) // 2] = 1
    return np.take_along_axis(right.cumsum(axis=1, dtype=np.int32), Wi - 1, axis=1)


def _outer_inner_counts(n: int, W: np.ndarray, stats: tuple) -> np.ndarray:
    """The count vector of the {placed, placed, unplaced} triples and the
    {placed, unplaced} pairs of centrally symmetric states (left halves W),
    leaving out those with the center.

    The unplaced points sit between the left block and its mirror, so
    their side of the center is open but their side of every other placed
    point is not. Triples with both placed points on the right are the
    R-images of those with both on the left. A[s, i] counts the right
    points above the left point W[s, i], the center left out.
    """
    import numpy as np

    N, d = W.shape
    odd = n & 1
    k = n - 2 * d - odd
    Wi = W.astype(np.int32)
    RB = _right_below(n, Wi)
    r = _values_below(Wi, stats, RB)
    A = d - RB + odd * (2 * Wi > n + 1)
    F = np.empty((N, 7), dtype=np.int32)
    ll = _last_triples(k - r, r, stats, k)
    F[:, :6] = ll + ll[:, _RMAP]
    # one point on each side; the unplaced point is in the middle:
    # a < c gives 213, 123, 132 as it lies below a, between, above c;
    # a > c gives 312, 321, 231 as it lies below c, between, above a
    lo = A.sum(axis=1, dtype=np.int32)
    hi = d * d - lo
    r_lo = (A * r).sum(axis=1, dtype=np.int32)
    r_hi = ((d - A) * r).sum(axis=1, dtype=np.int32)
    F[:, 0] += k * lo - 2 * r_lo
    F[:, 1] += r_lo
    F[:, 2] += r_lo
    F[:, 3] += k * hi - r_hi
    F[:, 4] += k * hi - r_hi
    F[:, 5] += 2 * r_hi - k * hi
    F[:, _P12_IDX] = 2 * (k - r).sum(axis=1, dtype=np.int32)
    return F


def _full_children(Wc: np.ndarray, stats: tuple, cands: list) -> Iterator[tuple]:
    """Yield (u, sel, Ws, delta) for each value u placed after the rows of Wc.

    stats are the _pair_stats of Wc. sel picks the rows that do not hold u
    yet, Ws = Wc[sel], and delta is the change of the count vector when u
    becomes the last point.
    """
    import numpy as np

    for u in cands:
        sel = ~(Wc == u).any(axis=1)
        Ws = Wc[sel]
        B = Ws < u
        delta = np.empty((Ws.shape[0], 7), dtype=np.int32)
        delta[:, :6] = _last_triples(B, ~B, tuple(x[sel] for x in stats), 1)
        delta[:, _P12_IDX] = B.sum(axis=1, dtype=np.int32)
        yield u, sel, Ws, delta


def _central_children(
    n: int, Wc: np.ndarray, stats: tuple, cands: list
) -> Iterator[tuple]:
    """Yield (u, sel, Ws, delta) for each pair (u, n+1-u) placed inside Wc.

    Rows of Wc hold the left half of a centrally symmetric state, and stats
    are their _pair_stats; the pair enters at the innermost free positions,
    u on the left. sel picks the rows that hold neither value yet,
    Ws = Wc[sel], and delta is the change of the count vector.
    """
    import numpy as np

    nn1 = n + 1
    odd = n & 1
    d = Wc.shape[1]
    # Rv: the right half's values, the center included, in reverse position
    # order, so u comes last in its triples with two right-half values
    Rv = (nn1 - Wc).astype(Wc.dtype)
    if odd:
        center = np.full((Wc.shape[0], 1), nn1 // 2, dtype=Wc.dtype)
        Rv = np.concatenate([Rv, center], axis=1)
    dR = d + odd
    stats_Rv = _pair_stats(Rv)
    RB = _right_below(n, Wc.astype(np.int32))

    for u in cands:
        up = nn1 - u
        sel = ~((Wc == u) | (Wc == up)).any(axis=1)
        Ws = Wc[sel]
        Ns = Ws.shape[0]
        B = Ws < u
        nb = B.sum(axis=1, dtype=np.int32)
        nbp = (Ws < up).sum(axis=1, dtype=np.int32)
        BRv = Rv[sel] < u
        nrb = BRv.sum(axis=1, dtype=np.int32)
        delta = np.zeros((Ns, 7), dtype=np.int32)

        # pairs: old-new doubled by the mirror, plus the new pair
        c12 = nb + (dR - nrb)
        delta[:, _P12_IDX] = 2 * c12 + (1 if u < up else 0)

        # triples {left copy, right copy, old}
        if u < up:
            a1, a2, a3 = nb, nbp - nb, d - nbp  # 123, 213, 312 via left
            delta[:, 0] += 2 * a1 + odd  # center triple is 123
            delta[:, 2] += a2
            delta[:, 1] += a2  # R(213) = 132
            delta[:, 4] += a3
            delta[:, 3] += a3  # R(312) = 231
        else:
            a1, a2, a3 = nbp, nb - nbp, d - nb  # 132, 231, 321 via left
            delta[:, 1] += a1
            delta[:, 2] += a1  # R(132) = 213
            delta[:, 3] += a2
            delta[:, 4] += a2  # R(231) = 312
            delta[:, 5] += 2 * a3 + odd  # center triple is 321

        # triples {old, old, new}, left copy; mirror added afterwards
        # both olds on the left: new point is last
        b = _last_triples(B, ~B, tuple(x[sel] for x in stats), 1)
        # both olds on the right: new point is first, so last in Rv's order
        b += _last_triples(BRv, ~BRv, tuple(x[sel] for x in stats_Rv), 1)[:, _REVMAP]
        # one old each side: new point is in the middle
        RBs = RB[sel]
        sab = (B * RBs).sum(axis=1, dtype=np.int32)
        b[:, 0] += nb * (dR - nrb)
        b[:, 1] += nb * nrb - sab
        b[:, 3] += sab
        b[:, 2] += ((~B) * (dR - RBs)).sum(axis=1, dtype=np.int32)
        b[:, 4] += ((~B) * RBs).sum(axis=1, dtype=np.int32) - (d - nb) * nrb
        b[:, 5] += (d - nb) * nrb

        for p in range(6):
            delta[:, p] += b[:, p] + b[:, _RMAP[p]]
        yield u, sel, Ws, delta


@dataclass(frozen=True)
class _Space:
    """The facts about one search space that the block driver needs.

    A candidate is built in `steps` steps of `per_step` values each; a state
    after d steps has leaves[d] candidates under it. A step chooses one of
    `values` not yet taken; taken(v) are the values a step placing v uses
    up. children is the space's child generator and as_hit turns a stored
    row into the candidate's value tuple. mixed is the space's rule for the
    counts that mix placed and unplaced points: the unplaced points follow
    the prefix (suffix rule) or sit inside the placed outer blocks
    (outer-inner rule).
    """

    steps: int
    per_step: int
    leaves: tuple
    values: tuple
    taken: Callable
    children: Callable
    mixed: Callable
    as_hit: Callable


def _space(n: int, central: bool) -> _Space:
    nn1 = n + 1
    if not central:
        return _Space(
            steps=n,
            per_step=1,
            leaves=tuple(factorial(n - d) for d in range(n + 1)),
            values=tuple(range(1, nn1)),
            taken=lambda v: {v},
            children=_full_children,
            mixed=partial(_suffix_counts, n),
            as_hit=lambda row: row,
        )
    m = n // 2
    mid = (nn1 // 2,) if n & 1 else ()
    return _Space(
        steps=m,
        per_step=2,
        leaves=tuple((1 << (m - d)) * factorial(m - d) for d in range(m + 1)),
        values=tuple(u for u in range(1, nn1) if 2 * u != nn1),
        taken=lambda v: {v, nn1 - v},
        children=partial(_central_children, n),
        mixed=partial(_outer_inner_counts, n),
        as_hit=lambda row: row + mid + tuple(nn1 - v for v in reversed(row)),
    )


def _kernel_dtypes(n: int, tv: tuple) -> tuple:
    """Dtypes of the search kernel's stored values and stored counts.

    Values take the smallest unsigned type that holds n + 1, since the
    central kernel forms n + 1 - v. Stored counts never exceed their
    targets, so int16 holds them while every target does. Working counts
    are int32 and stay below 3 * C(n, 3): a state's counts plus its exact
    mixed counts plus the slack left for the rest stay at most C(n, 3) per
    pattern. Lengths past that bound raise ValueError.
    """
    import numpy as np

    if 3 * comb(n, 3) > np.iinfo(np.int32).max:
        raise ValueError(f"length {n} is too long for the search kernel's int32 counts")
    counts = np.int16 if max(tv) <= np.iinfo(np.int16).max else np.int32
    return np.min_scalar_type(n + 1), counts


def _scan_shard(
    n: int, tv: tuple, space: _Space, first_u: int, deadline: Optional[float]
) -> tuple:
    """Scan the subtree of space rooted at first value first_u.

    Returns (hits, scanned, timed_out) with hits as sorted value tuples.
    The level kernel extends a block of partial states by every next value
    at once. Surviving children queue up and are descended into, depth
    first, as soon as a full block of them is ready. A block with d steps
    taken has at most _PATH_CELLS / (steps * d) rows, so the blocks held
    along one descent path hold at most _PATH_CELLS values at any length.
    A block entering with d >= 1 steps first keeps only the rows whose
    counts, with their exact mixed counts (space.mixed) added, neither
    overshoot a target nor fall short of it by more than the slack left;
    each dropped row is credited with its leaves. With a deadline, the
    kernel reads the clock as a block enters and after each child value it
    computes, and stops as soon as the deadline has passed.
    """
    import numpy as np

    vdtype, cdtype = _kernel_dtypes(n, tv)
    T = np.array(tv, dtype=np.int32)
    hits_rows: list[np.ndarray] = []
    scanned = 0
    timed_out = False

    def descend(Wc: np.ndarray, Cc: np.ndarray) -> None:
        nonlocal scanned, timed_out
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            return
        d = Wc.shape[1]
        stats = _pair_stats(Wc)
        if d:
            # exact counts of the triples and pairs that mix placed and
            # unplaced points; slack covers the rest of the unplaced ones
            k = space.per_step * (space.steps - d)  # unplaced values
            D = space.per_step * d  # placed values, the center left out
            placed = n - k
            slack = np.array(
                [comb(n, 3) - comb(placed, 3) - comb(D, 2) * k] * 6
                + [comb(n, 2) - comb(placed, 2) - D * k],
                dtype=np.int32,
            )
            CF = Cc.astype(np.int32) + space.mixed(Wc, stats)
            keep = ((CF <= T) & (CF + slack >= T)).all(axis=1)
            kept = int(keep.sum())
            scanned += (Wc.shape[0] - kept) * space.leaves[d]
            if not kept:
                return
            Wc, Cc = Wc[keep], Cc[keep]
            stats = tuple(x[keep] for x in stats)
        final = d + 1 == space.steps
        cands = [first_u] if d == 0 else space.values
        size = _PATH_CELLS // (space.steps * (d + 1))
        fixed = n - space.per_step * (space.steps - d - 1)  # values placed
        r3 = comb(n, 3) - comb(fixed, 3)
        r2 = comb(n, 2) - comb(fixed, 2)
        remv = np.array([r3] * 6 + [r2], dtype=np.int32)
        queue_W: list[np.ndarray] = []
        queue_C: list[np.ndarray] = []
        queued = 0

        for u, sel, Ws, delta in space.children(Wc, stats, cands):
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                return
            Ns = Ws.shape[0]
            C2 = Cc[sel].astype(np.int32) + delta
            keep = ((C2 <= T) & (C2 + remv >= T)).all(axis=1)
            kept = int(keep.sum())
            if final:
                scanned += Ns
            else:
                scanned += (Ns - kept) * space.leaves[d + 1]
            if not kept:
                continue
            children = np.concatenate(
                [Ws[keep], np.full((kept, 1), u, dtype=vdtype)], axis=1
            )
            if final:
                hits_rows.append(children)
                continue
            queue_W.append(children)
            queue_C.append(C2[keep].astype(cdtype))
            queued += kept
            if queued >= size:
                Wq = np.concatenate(queue_W)
                Cq = np.concatenate(queue_C)
                cut = queued - queued % size
                for start in range(0, cut, size):
                    descend(Wq[start:start + size], Cq[start:start + size])
                    if timed_out:
                        return
                queue_W, queue_C = [Wq[cut:]], [Cq[cut:]]
                queued -= cut
        if queued:
            descend(np.concatenate(queue_W), np.concatenate(queue_C))

    descend(np.zeros((1, 0), dtype=vdtype), np.zeros((1, 7), dtype=cdtype))
    hits = sorted(
        space.as_hit(tuple(row)) for rows in hits_rows for row in rows.tolist()
    )
    if not timed_out and scanned != space.leaves[1]:
        raise RuntimeError("shard coverage accounting is off")
    return hits, scanned, timed_out


# ---------------------------------------------------------------------------
# dispatch

def _complement_targets(n: int, tv: tuple) -> tuple:
    """The targets of the complements of tv's hits.

    Complement (v -> n+1-v) swaps 123/321, 132/312 and 213/231, and turns
    the ascending pairs into the descending ones.
    """
    return tv[5::-1] + (comb(n, 2) - tv[_P12_IDX],)


def _shard_jobs(n: int, tv: tuple, space: _Space) -> tuple:
    """The scans a run needs: (jobs, need).

    Complement maps shard u onto shard n+1-u in either space, so a shard
    with u > n+1-u is the complement image of shard n+1-u scanned under the
    complemented targets. jobs lists the (first value, targets) scans in
    shard order of first need, without repeats, and need[i] is the job that
    shard i is derived from. Where the complemented targets equal the
    targets, as the real ones do, the upper shards reuse the lower shards'
    scans and half the shards are scanned.
    """
    ctv = _complement_targets(n, tv)
    jobs: list = []
    need = []
    for u in space.values:
        job = (u, tv) if u <= n + 1 - u else (n + 1 - u, ctv)
        if job not in jobs:
            jobs.append(job)
        need.append(jobs.index(job))
    return jobs, need


def _derive_shard(n: int, u: int, source_u: int, result: tuple) -> tuple:
    """Shard u's (hits, scanned, timed_out) from the scan of shard source_u."""
    hits, scanned, timed_out = result
    if source_u != u:
        hits = sorted(tuple(n + 1 - v for v in h) for h in hits)
    return hits, scanned, timed_out


def _covered_through(space: _Space, hit: tuple) -> int:
    """Candidates of hit's shard up to and including hit.

    This is what a lexicographic scan of the shard covers when it stops at
    hit: each free value below the one chosen at step i stands for a whole
    subtree of leaves[i + 1] candidates.
    """
    free = set(space.values) - space.taken(hit[0])
    covered = 1
    for i in range(1, space.steps):
        v = hit[i]
        covered += sum(u < v for u in free) * space.leaves[i + 1]
        free -= space.taken(v)
    return covered


def _run_shard(args: tuple) -> tuple:
    """Scan one job; returns (hits, scanned, timed_out)."""
    central, n, tv, first_u, deadline = args
    return _scan_shard(n, tv, _space(n, central), first_u, deadline)


def _search_space(
    n: int,
    tv: tuple,
    central_only: bool,
    limit: Optional[int],
    threads: int,
    timeout: Optional[float],
    progress: Optional[Callable] = None,
) -> tuple:
    """Run the sharded scan; returns (hits as Perms, scanned).

    Shards are the first-placement choices, processed and merged in index
    order, so hits, scanned, and the limit cut are reproducible for any
    thread count. Shards past the middle are derived from their complement
    mirrors (see _shard_jobs), and each job is scanned when a shard first
    needs it. A shard with at least limit hits is cut at its own limit-th
    hit, with scanned counted up to that hit. Raises SearchTimeout when the
    deadline passes.
    """
    # imports numpy, and raises ValueError, before the clock starts
    _kernel_dtypes(n, tv)
    t0 = time.monotonic()
    deadline = t0 + timeout if timeout is not None else None
    space = _space(n, central_only)
    jobs, need = _shard_jobs(n, tv, space)
    results: dict = {}  # job index -> (hits, scanned, timed_out)

    def job_args(j: int) -> tuple:
        first_u, job_tv = jobs[j]
        return (central_only, n, job_tv, first_u, deadline)

    hits: list = []
    scanned = 0
    timed_out = False

    def consume(index: int, result: tuple) -> bool:
        nonlocal scanned, timed_out
        shard_hits, shard_scanned, shard_timed_out = result
        if limit is not None and len(shard_hits) >= limit and not shard_timed_out:
            shard_hits = shard_hits[:limit]
            shard_scanned = _covered_through(space, shard_hits[-1])
        scanned += shard_scanned
        room = None if limit is None else limit - len(hits)
        batch = shard_hits if room is None else shard_hits[:room]
        batch = [Perm(h) for h in batch]
        hits.extend(batch)
        if progress is not None and batch:
            progress(index, batch)
        if shard_timed_out:
            timed_out = True
            return False
        if limit is not None and len(hits) >= limit:
            return False
        return True

    def walk(get: Callable) -> None:
        for i, u in enumerate(space.values):
            j = need[i]
            if not consume(i, _derive_shard(n, u, jobs[j][0], get(j))):
                break

    if threads <= 1 or len(jobs) <= 1:
        def scan(j: int) -> tuple:
            if j not in results:
                results[j] = _run_shard(job_args(j))
            return results[j]

        walk(scan)
    else:
        # At most one job per worker is in flight, and the pool is closed
        # only once they are all back: terminating a worker that is sending
        # its result leaves the result queue locked and the pool hangs.
        workers = min(threads, len(jobs))
        with get_context("fork").Pool(processes=workers) as pool:
            pending = deque(
                (j, pool.apply_async(_run_shard, (job_args(j),)))
                for j in range(workers)
            )

            def collect(j: int) -> tuple:
                while j not in results:
                    k, res = pending.popleft()
                    results[k] = res.get()
                    nxt = k + workers
                    if nxt < len(jobs):
                        res = pool.apply_async(_run_shard, (job_args(nxt),))
                        pending.append((nxt, res))
                return results[j]

            walk(collect)
            for _, res in pending:
                res.wait()
            pool.close()
            pool.join()

    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if timed_out:
        raise SearchTimeout(sorted(hits), scanned, elapsed_ms)
    return sorted(hits), scanned


def search_3_inflatable(
    config: SearchConfig, progress: Optional[Callable] = None
) -> SearchResult:
    """Find every length-n permutation meeting the 3-inflatability targets.

    Inadmissible lengths short-circuit to an empty result without scanning.
    progress, when given, is called with (shard_index, [hits]) as shards
    complete; the CLI's --emit-all uses it to stream hits. Lengths above
    1626 raise ValueError in either space: the search kernel's int32
    counts would overflow there.

    >>> search_3_inflatable(SearchConfig(n=9)).status
    'inadmissible'
    """
    if config.n < 3:
        raise ValueError("search needs n >= 3")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if config.limit is not None and config.limit < 1:
        raise ValueError("limit must be >= 1 when given")
    t0 = time.monotonic()
    tv = _target_vector(config.n)
    if tv is None:
        residues = admissible_residues()
        return SearchResult(
            hits=[],
            scanned=0,
            found=0,
            status="inadmissible",
            reason=(
                f"length {config.n} is inadmissible: the exact targets are "
                f"not integer counts (admissible residues mod 144: {residues})"
            ),
            elapsed_ms=int((time.monotonic() - t0) * 1000),
        )
    hits, scanned = _search_space(
        config.n,
        tv,
        config.central_only,
        config.limit,
        config.threads,
        config.timeout,
        progress,
    )
    return SearchResult(
        hits=hits,
        scanned=scanned,
        found=len(hits),
        status="ok",
        reason=None,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )

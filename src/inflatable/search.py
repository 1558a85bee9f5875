"""Exhaustive search for 3-inflatable permutations.

Candidates are permutations whose six length-3 counts and ascending pair
count all equal the exact integer targets for their length, so the search
is a constraint scan, not a verification loop: a branch dies as soon as
any count overshoots its target or can no longer reach it.

Each search space has one exact count rule. Once a state's first steps
are placed, the positions of the unplaced points and their value set are
fixed: they follow the placed prefix (unrestricted) or sit between the
placed outer blocks (centrally symmetric). So every triple and pair with
at most one unplaced point already has a known pattern, except a triple
of the center and an unplaced point. The rule counts them all from the
placed values, in O(d^2) per state; the triples and pairs with more
unplaced points, and those of the center with one, are the slack. Once
every step is placed the slack is 0 and the test is an exact match.

Both search spaces go through one vectorized kernel (numpy). It extends a
block of partial states by every admissible next value at once, tests
each block of children on the count rule as it enters the next level,
and descends into the survivors a block at a time, depth first, so the
arrays it holds stay bounded. A block is stored position-major, one row
per position and one column per state, so every sum over a state's
positions is a few adds of contiguous vectors. The same kernel serves
full scans (length 17, 10,321,920 centrally symmetric candidates, in
about half a second on one core) and scans cut by a result limit or a
timeout: each shard is scanned whole and its sorted hits are cut at the
limit. Only the count rule and the step depend on the space:
unrestricted states grow by one value placed last, centrally symmetric
ones by a complementary pair. The test suite checks both against
brute-force filtering.

Shards are the choices of first value u. Complement (v -> n+1-v) maps
shard u onto shard n+1-u and fixes the real targets, so only the shards
with u <= n+1-u are scanned: every other shard is derived from its mirror
by complementing the hits (at length 17, 8 scans serve the 16 central
shards). Targets that complement does not fix, as in the tests, get a
scan of the mirror under the complemented targets, by the same rule.

Centrally symmetric states place complementary value pairs outside-in:
after d steps positions 1..d and n-d+1..n are filled and the pair
(u, n+1-u) enters at positions d+1 and n-d. The 180-degree rotation R maps
the state to itself, so every triple with two points in the right block
is the R-image of one with two points in the left block; the central
rule counts the left ones and adds the image counts, which halves the
work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from typing import Callable, Iterator, Optional

from .core import PATTERNS_3, Perm, _integer
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

# index image of each count under R: 132 <-> 213, 231 <-> 312, and an
# ascending pair stays ascending
_RMAP = (0, 2, 1, 4, 3, 5, _P12_IDX)

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

    n: candidate length, an integer >= 3.
    central_only: restrict to centrally symmetric candidates.
    limit: stop after this many hits, an integer >= 1 (None scans everything).
    threads: ignored (every scan runs in one process); it is still checked
        to be >= 1 and is kept only because the benchmark harness passes it.
    timeout: wall-clock seconds > 0 before SearchTimeout (None = no timeout).
    n and limit are read by operator.index; a bool n, limit or timeout
    raises ValueError.
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
    """Iterate over the length-n centrally symmetric permutations, lexicographically.

    The first half determines the rest (value at position i pairs with
    n+1-i summing to n+1; odd n pins the center), so there are
    2^(n//2) * (n//2)! of them and lexicographic order on the first half is
    lexicographic order on the whole permutation. An n below 1 raises
    ValueError at the call, not on the first step of the iterator.
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

    return rec(0)


def _target_vector(n: int) -> Optional[tuple]:
    tc = target_counts_3(n)
    if tc is None:
        return None
    return tuple(tc[p] for p in PATTERNS_3) + (tc[Perm((1, 2))],)


# ---------------------------------------------------------------------------
# level kernel (numpy)


def _pair_stats(M: np.ndarray) -> tuple:
    """Ascending/descending pair counts of each state, by position.

    M is position-major: M[j, s] is the value at position j of state s.
    Returns (asc_before, asc_after, desc_before, desc_after, asc_total)
    where asc_before[j, s] counts i < j with M[i, s] < M[j, s], etc.
    """
    import numpy as np

    d = M.shape[0]
    iu = np.triu(np.ones((d, d), dtype=bool), 1)
    lt = (M[:, None, :] < M[None, :, :]) & iu[:, :, None]
    asc_before = lt.sum(axis=0, dtype=np.int32)
    asc_after = lt.sum(axis=1, dtype=np.int32)
    idx = np.arange(d, dtype=np.int32)[:, None]
    desc_before = idx - asc_before
    desc_after = (d - 1 - idx) - asc_after
    asc_total = asc_before.sum(axis=0, dtype=np.int32)
    return asc_before, asc_after, desc_before, desc_after, asc_total


def _prefix_counts(n: int, W: np.ndarray, stats: tuple) -> np.ndarray:
    """The count vector of the triples with at least two points in the left
    block W and of the pairs with a point in it (unrestricted rule).

    stats are the _pair_stats of W. Every point outside the block lies
    after it and all of 1..n occur, so the later points below W[i, s] are
    the W[i, s] - 1 values below it less the block's own, and a triple
    {block, block, later} has its later point last, whatever its value.
    """
    import numpy as np

    asc_b, asc_a, desc_b, desc_a, asc_tot = stats
    d, N = W.shape
    k = n - d  # later points
    below = W.astype(np.int32) - 1 - asc_b - desc_a
    above = k - below
    P = np.empty((7, N), dtype=np.int32)
    # triples {block, block, later}: the block pair's order and where the
    # later value falls against the pair's values fix the pattern
    P[0] = (above * asc_b).sum(axis=0, dtype=np.int32)
    P[3] = (below * asc_a).sum(axis=0, dtype=np.int32)
    P[1] = asc_tot * k - P[0] - P[3]
    P[2] = (above * desc_a).sum(axis=0, dtype=np.int32)
    P[5] = (below * desc_b).sum(axis=0, dtype=np.int32)
    P[4] = (d * (d - 1) // 2 - asc_tot) * k - P[2] - P[5]

    def pairs(x: np.ndarray) -> np.ndarray:
        return (x * (x - 1) // 2).sum(axis=0, dtype=np.int32)

    # the block's own triples, by the closed forms of count_length3_all
    c123 = (asc_b * asc_a).sum(axis=0, dtype=np.int32)
    c321 = (desc_b * desc_a).sum(axis=0, dtype=np.int32)
    P[0] += c123
    P[1] += pairs(asc_a) - c123
    P[2] += pairs(asc_b) - c123
    P[3] += pairs(desc_b) - c321
    P[4] += pairs(desc_a) - c321
    P[5] += c321
    P[_P12_IDX] = asc_tot + above.sum(axis=0, dtype=np.int32)
    return P


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
    W[i, s] exactly when w + W[i, s] <= n.
    """
    import numpy as np

    d = W.shape[0]
    odd = n & 1
    k = n - 2 * d - odd
    stats = _pair_stats(W)
    asc_b, _, _, desc_a, _ = stats
    Wi = W.astype(np.int32)
    P = _prefix_counts(n, W, stats)
    F = P + P[_RMAP, :]
    A = (Wi[:, None, :] + Wi[None, :, :] <= n).sum(axis=1, dtype=np.int32)
    lo = A.sum(axis=0, dtype=np.int32)
    hi = d * d - lo
    F[_P12_IDX] -= lo
    # one point in each block and the unplaced point between them, below
    # a, between or above c: a < c gives 213, 123, 132; a > c gives 312,
    # 321, 231. r counts the unplaced values below each left value: its
    # later points below (as in _prefix_counts) less the right points and
    # the center below it.
    r = Wi - 1 - asc_b - desc_a - (d - A) - odd * (2 * Wi > n + 1)
    r_lo = (A * r).sum(axis=0, dtype=np.int32)
    r_hi = ((d - A) * r).sum(axis=0, dtype=np.int32)
    F[0] += k * lo - 2 * r_lo
    F[1] += r_lo
    F[2] += r_lo
    F[3] += k * hi - r_hi
    F[4] += k * hi - r_hi
    F[5] += 2 * r_hi - k * hi
    if odd:
        # one point in each block and the center m between them; lb left
        # values lie below m, and as many right values above it
        low = 2 * Wi < n + 1
        lb = low.sum(axis=0, dtype=np.int32)
        la = d - lb
        s132 = (low * (A - lb)).sum(axis=0, dtype=np.int32)
        s213 = (~low * A).sum(axis=0, dtype=np.int32)
        F[0] += lb * lb
        F[1] += s132
        F[2] += s213
        F[3] += lb * la - s132
        F[4] += la * lb - s213
        F[5] += la * la
    return F


@dataclass(frozen=True)
class _Space:
    """The facts about one search space that the block driver needs.

    A candidate is built in `steps` steps of `per_step` values each; a state
    after d steps has leaves[d] candidates under it. A step chooses one of
    `values` not yet taken; taken(v) are the values a step placing v uses
    up, and as_hit turns a state's stored values into the candidate's
    value tuple. counts(W) is the space's exact count rule for the
    position-major states W (W[j, s] is the value at position j of state
    s), one column of 7 counts per state: the unplaced points follow the
    prefix (prefix rule) or sit between the placed outer blocks (central
    rule).
    """

    steps: int
    per_step: int
    leaves: tuple
    values: tuple
    taken: Callable
    counts: Callable
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
            counts=lambda W: _prefix_counts(n, W, _pair_stats(W)),
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
        counts=partial(_central_counts, n),
        as_hit=lambda row: row + mid + tuple(nn1 - v for v in reversed(row)),
    )


def _value_dtype(n: int) -> np.dtype:
    """Dtype of the search kernel's stored values: the smallest unsigned
    type that holds n.

    The count rules work in int32. A state's counts, and its counts plus
    the slack left for the rest, stay at most C(n, 3) per pattern, and no
    term of a rule reaches 3 * C(n, 3). Lengths past that bound raise
    ValueError.
    """
    import numpy as np

    if 3 * comb(n, 3) > np.iinfo(np.int32).max:
        raise ValueError(f"length {n} is too long for the search kernel's int32 counts")
    return np.min_scalar_type(n)


def _scan_shard(
    n: int, tv: tuple, space: _Space, first_u: int, deadline: Optional[float]
) -> tuple:
    """Scan the subtree of space rooted at first value first_u.

    Returns (hits, scanned, timed_out) with hits as sorted value tuples.
    A block of N states with d steps taken is stored position-major, as a
    (d, N) array with one column per state. Each block is counted as it
    enters, by the space's exact rule, and keeps only the states whose
    counts neither overshoot a target nor fall short of it by more than
    the slack the rule leaves open; each dropped state is credited with its
    leaves. After the last step the slack is 0, so the kept states are the
    hits. A child step marks the values of the kept states in one used
    mask, and appends each next value, as a new row, to the states that
    hold none of the values it uses up. Children queue up and are
    descended into, depth first, as soon as a full block of them is ready.
    A block with d steps taken has at most _PATH_CELLS / (steps * d)
    states, so the blocks held along one descent path hold at most
    _PATH_CELLS values at any length. With a deadline, the kernel reads
    the clock as a block enters and before each child value, and stops as
    soon as the deadline has passed.
    """
    import numpy as np

    vdtype = _value_dtype(n)
    T = np.array(tv, dtype=np.int32)[:, None]
    hit_blocks: list[np.ndarray] = []
    scanned = 0
    timed_out = False

    def descend(W: np.ndarray) -> None:
        nonlocal scanned, timed_out
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            return
        d, N = W.shape
        k = space.per_step * (space.steps - d)  # unplaced values
        D = space.per_step * d  # placed values, the center left out
        placed = n - k
        # what the rule leaves open: triples of two or three unplaced
        # points or of the center and one, pairs of two unplaced points
        # or of the center and one
        slack = np.array(
            [comb(n, 3) - comb(placed, 3) - comb(D, 2) * k] * 6
            + [comb(n, 2) - comb(placed, 2) - D * k],
            dtype=np.int32,
        )[:, None]
        C = space.counts(W)
        keep = ((C <= T) & (C + slack >= T)).all(axis=0)
        kept = int(keep.sum())
        scanned += (N - kept) * space.leaves[d]
        if not kept:
            return
        W = W[:, keep]
        if d == space.steps:
            hit_blocks.append(W.T)
            scanned += kept
            return
        used = np.zeros((n + 1, kept), dtype=bool)
        used[W, np.arange(kept)] = True
        size = _PATH_CELLS // (space.steps * (d + 1))
        queue: list[np.ndarray] = []
        queued = 0
        for u in space.values:
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                return
            Ws = W[:, ~used[list(space.taken(u))].any(axis=0)]
            queue.append(np.concatenate([Ws, np.full((1, Ws.shape[1]), u, vdtype)]))
            queued += Ws.shape[1]
            if queued >= size:
                Wq = np.concatenate(queue, axis=1)
                cut = queued - queued % size
                for start in range(0, cut, size):
                    descend(Wq[:, start:start + size])
                    if timed_out:
                        return
                queue = [Wq[:, cut:]]
                queued -= cut
        if queued:
            descend(np.concatenate(queue, axis=1))

    descend(np.full((1, 1), first_u, dtype=vdtype))
    hits = sorted(
        space.as_hit(tuple(row)) for block in hit_blocks for row in block.tolist()
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


def _shard_job(n: int, tv: tuple, u: int) -> tuple:
    """The (first value, targets) scan that shard u is derived from.

    Complement maps shard u onto shard n+1-u in either space, so a shard
    with u > n+1-u is the complement image of shard n+1-u scanned under the
    complemented targets. Where the complemented targets equal the
    targets, as the real ones do, the upper shards reuse the lower shards'
    scans and half the shards are scanned.
    """
    if u <= n + 1 - u:
        return u, tv
    return n + 1 - u, _complement_targets(n, tv)


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


def _search_space(
    n: int,
    tv: tuple,
    central_only: bool,
    limit: Optional[int],
    timeout: Optional[float],
    progress: Optional[Callable] = None,
) -> tuple:
    """Run the sharded scan; returns (hits as Perms, scanned).

    Shards are the first-placement choices, processed and merged in index
    order, so hits, scanned, and the limit cut are reproducible. Each
    shard's hits come sorted and start with its first value, so the merged
    hits are sorted as built. Shards past the middle are derived from their
    complement mirrors (see _shard_job), and each scan is made when a shard
    first needs it. A shard with at least limit hits is cut at its own
    limit-th hit, with scanned counted up to that hit. Raises SearchTimeout
    when the deadline passes.
    """
    # imports numpy, and raises ValueError, before the clock starts
    _value_dtype(n)
    t0 = time.monotonic()
    deadline = t0 + timeout if timeout is not None else None
    space = _space(n, central_only)
    scans: dict = {}  # (first value, targets) -> (hits, scanned, timed_out)
    hits: list = []
    scanned = 0
    timed_out = False
    for i, u in enumerate(space.values):
        job = _shard_job(n, tv, u)
        first_u, job_tv = job
        if job not in scans:
            scans[job] = _scan_shard(n, job_tv, space, first_u, deadline)
        shard_hits, shard_scanned, timed_out = _derive_shard(n, u, first_u, scans[job])
        if limit is not None and len(shard_hits) >= limit and not timed_out:
            shard_hits = shard_hits[:limit]
            shard_scanned = _covered_through(space, shard_hits[-1])
        scanned += shard_scanned
        room = None if limit is None else limit - len(hits)
        batch = shard_hits if room is None else shard_hits[:room]
        batch = [Perm(h) for h in batch]
        hits.extend(batch)
        if progress is not None and batch:
            progress(i, batch)
        if timed_out or (limit is not None and len(hits) >= limit):
            break

    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if timed_out:
        raise SearchTimeout(hits, scanned, elapsed_ms)
    return hits, scanned


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
    n = _integer("n", config.n)
    limit = None if config.limit is None else _integer("limit", config.limit)
    if n < 3:
        raise ValueError("search needs n >= 3")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1 when given")
    if isinstance(config.timeout, bool):
        raise ValueError("timeout must be a number of seconds, not a bool")
    if config.timeout is not None and not config.timeout > 0:
        raise ValueError("timeout must be > 0 when given")
    t0 = time.monotonic()
    tv = _target_vector(n)
    if tv is None:
        residues = admissible_residues()
        return SearchResult(
            hits=[],
            scanned=0,
            found=0,
            status="inadmissible",
            reason=(
                f"length {n} is inadmissible: the exact targets are "
                f"not integer counts (admissible residues mod 144: {residues})"
            ),
            elapsed_ms=int((time.monotonic() - t0) * 1000),
        )
    hits, scanned = _search_space(
        n, tv, config.central_only, limit, config.timeout, progress
    )
    return SearchResult(
        hits=hits,
        scanned=scanned,
        found=len(hits),
        status="ok",
        reason=None,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )

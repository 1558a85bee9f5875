"""Exhaustive search for 3-inflatable permutations.

Candidates are permutations whose six length-3 counts and ascending pair
count all equal the exact integer targets for their length, so the search
is a constraint scan, not a verification loop: partial placements carry
incremental counts and a branch dies as soon as any count overshoots its
target or can no longer reach it.

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

import numpy as np

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

_KERNEL_NODE_CHECK = 1 << 16  # (state, value) pairs tried between deadline polls
_PATH_CELLS = 1 << 22  # most values held in kernel blocks along one descent path


class SearchTimeout(Exception):
    """Raised when a configured timeout expires mid-scan.

    Carries the partial progress: .hits, .scanned, .elapsed_ms. scanned
    credits only finished leaves and pruned subtrees, so an unrestricted
    scan that stops before its first prune reports 0 (the first 0.6 s or
    so at n=17, which go to wide shallow blocks with nothing to prune).
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


def _last_triples(B: np.ndarray, stats: tuple) -> np.ndarray:
    """Counts of triples {old, old, new} with the new point last, by pattern.

    B[s, i] says whether old value i of row s lies below the new value;
    stats are the _pair_stats of the same rows.
    """
    asc_b, asc_a, desc_b, desc_a, asc_tot = stats
    d = B.shape[1]
    b = np.empty((B.shape[0], 6), dtype=np.int32)
    b[:, 0] = (B * asc_b).sum(axis=1, dtype=np.int32)
    b[:, 3] = ((~B) * asc_a).sum(axis=1, dtype=np.int32)
    b[:, 1] = asc_tot - b[:, 0] - b[:, 3]
    b[:, 2] = (B * desc_a).sum(axis=1, dtype=np.int32)
    b[:, 5] = ((~B) * desc_b).sum(axis=1, dtype=np.int32)
    b[:, 4] = (d * (d - 1) // 2 - asc_tot) - b[:, 2] - b[:, 5]
    return b


def _full_children(Wc: np.ndarray, cands: list) -> Iterator[tuple]:
    """Yield (u, sel, Ws, delta) for each value u placed after the rows of Wc.

    sel picks the rows that do not hold u yet, Ws = Wc[sel], and delta is
    the change of the count vector when u becomes the last point.
    """
    stats = _pair_stats(Wc)
    for u in cands:
        sel = ~(Wc == u).any(axis=1)
        Ws = Wc[sel]
        B = Ws < u
        delta = np.empty((Ws.shape[0], 7), dtype=np.int32)
        delta[:, :6] = _last_triples(B, tuple(x[sel] for x in stats))
        delta[:, _P12_IDX] = B.sum(axis=1, dtype=np.int32)
        yield u, sel, Ws, delta


def _central_children(n: int, Wc: np.ndarray, cands: list) -> Iterator[tuple]:
    """Yield (u, sel, Ws, delta) for each pair (u, n+1-u) placed inside Wc.

    Rows of Wc hold the left half of a centrally symmetric state; the pair
    enters at the innermost free positions, u on the left. sel picks the
    rows that hold neither value yet, Ws = Wc[sel], and delta is the change
    of the count vector.
    """
    nn1 = n + 1
    odd = n & 1
    d = Wc.shape[1]
    stats = _pair_stats(Wc)
    # Rv: the right half's values, the center included, in reverse position
    # order, so u comes last in its triples with two right-half values
    Rv = (nn1 - Wc).astype(Wc.dtype)
    if odd:
        center = np.full((Wc.shape[0], 1), nn1 // 2, dtype=Wc.dtype)
        Rv = np.concatenate([Rv, center], axis=1)
    dR = d + odd
    stats_Rv = _pair_stats(Rv)
    # RB[s, i] = how many right-half values sit below Wc[s, i]
    RB = (Rv[:, None, :] < Wc[:, :, None]).sum(axis=2, dtype=np.int32)

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
        b = _last_triples(B, tuple(x[sel] for x in stats))
        # both olds on the right: new point is first, so last in Rv's order
        b += _last_triples(BRv, tuple(x[sel] for x in stats_Rv))[:, _REVMAP]
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
    row into the candidate's value tuple.
    """

    steps: int
    per_step: int
    leaves: tuple
    values: tuple
    taken: Callable
    children: Callable
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
        as_hit=lambda row: row + mid + tuple(nn1 - v for v in reversed(row)),
    )


def _kernel_dtypes(n: int, tv: tuple) -> tuple:
    """Dtypes of the search kernel's stored values and stored counts.

    Values take the smallest unsigned type that holds n + 1, since the
    central kernel forms n + 1 - v. Stored counts never exceed their
    targets, so int16 holds them while every target does. Working counts
    are int32 and stay below 3 * C(n, 3); lengths past that bound raise
    ValueError.
    """
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
    The kernel polls the deadline by node count: before a block, once
    _KERNEL_NODE_CHECK (state, value) pairs have been tried since the last
    poll, so a scan always gets past its first few tiny blocks before it
    can time out.
    """
    vdtype, cdtype = _kernel_dtypes(n, tv)
    T = np.array(tv, dtype=np.int32)
    hits_rows: list[np.ndarray] = []
    scanned = 0
    timed_out = False
    nodes = 0

    def descend(Wc: np.ndarray, Cc: np.ndarray) -> None:
        nonlocal scanned, timed_out, nodes
        if deadline is not None and nodes >= _KERNEL_NODE_CHECK:
            nodes = 0
            timed_out = time.monotonic() > deadline
        if timed_out:
            return
        d = Wc.shape[1]
        final = d + 1 == space.steps
        cands = [first_u] if d == 0 else space.values
        nodes += Wc.shape[0] * len(cands)
        size = _PATH_CELLS // (space.steps * (d + 1))
        fixed = n - space.per_step * (space.steps - d - 1)  # values placed
        r3 = comb(n, 3) - comb(fixed, 3)
        r2 = comb(n, 2) - comb(fixed, 2)
        remv = np.array([r3] * 6 + [r2], dtype=np.int32)
        queue_W: list[np.ndarray] = []
        queue_C: list[np.ndarray] = []
        queued = 0

        for u, sel, Ws, delta in space.children(Wc, cands):
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
    """Scan one shard; returns (hits, scanned, timed_out).

    A shard is scanned whole and then cut at its own limit-th hit, with
    scanned counted up to that hit.
    """
    central, n, tv, first_u, limit, deadline = args
    space = _space(n, central)
    hits, scanned, timed_out = _scan_shard(n, tv, space, first_u, deadline)
    if limit is not None and len(hits) >= limit and not timed_out:
        hits = hits[:limit]
        scanned = _covered_through(space, hits[-1])
    return hits, scanned, timed_out


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
    thread count. Raises SearchTimeout when the deadline passes.
    """
    t0 = time.monotonic()
    deadline = time.monotonic() + timeout if timeout is not None else None
    _kernel_dtypes(n, tv)  # raises ValueError before any worker starts
    firsts = _space(n, central_only).values
    shards = [(central_only, n, tv, u, limit, deadline) for u in firsts]

    hits: list = []
    scanned = 0
    timed_out = False

    def consume(index: int, result: tuple) -> bool:
        nonlocal scanned, timed_out
        shard_hits, shard_scanned, shard_timed_out = result
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

    if threads <= 1 or len(shards) <= 1:
        for i, sh in enumerate(shards):
            if not consume(i, _run_shard(sh)):
                break
    else:
        # At most one shard per worker is in flight, and the pool is closed
        # only once they are all back: terminating a worker that is sending
        # its result leaves the result queue locked and the pool hangs.
        workers = min(threads, len(shards))
        with get_context("fork").Pool(processes=workers) as pool:
            jobs = deque(pool.apply_async(_run_shard, (sh,)) for sh in shards[:workers])
            for i in range(len(shards)):
                res = jobs.popleft().get()
                if i + workers < len(shards):
                    jobs.append(pool.apply_async(_run_shard, (shards[i + workers],)))
                if not consume(i, res):
                    break
            for job in jobs:
                job.wait()
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

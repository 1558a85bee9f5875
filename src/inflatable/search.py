"""Exhaustive search for 3-inflatable permutations.

Candidates are permutations whose six length-3 counts and ascending pair
count all equal the exact integer targets for their length, so the search
is a constraint scan, not a verification loop: partial placements carry
incremental counts and a branch dies as soon as any count overshoots its
target or can no longer reach it.

Centrally symmetric candidates go through one vectorized kernel (numpy).
It extends a block of partial states by every admissible next value at
once and descends into the surviving children a block at a time, depth
first, so the arrays it holds stay bounded. The same kernel serves full
scans (length 17, 10,321,920 candidates, in seconds on one core) and
scans cut by a result limit or a timeout: each shard is scanned whole and
its sorted hits are cut at the limit. The unrestricted space goes through
a depth-first backtracker in plain Python. The test suite checks both
against brute-force filtering.

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
from math import comb, factorial
from multiprocessing import get_context
from typing import Callable, Iterator, Optional

import numpy as np

from .core import Perm, PermLike, as_perm
from .criteria import admissible_residues, target_counts_3, target_densities_3
from .core import PATTERNS_3

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchTimeout",
    "search_3_inflatable",
    "enumerate_centrally_symmetric",
    "space_size",
]

# count vector layout: the six length-3 patterns in lexicographic order,
# then ascending and descending pair counts
_P12_IDX = 6
_P21_IDX = 7

# index image of each length-3 pattern under R (132 <-> 213, 231 <-> 312)
_RMAP = (0, 2, 1, 4, 3, 5)

_NODE_CHECK = 4096  # deadline poll interval for the depth-first engine
_KERNEL_NODE_CHECK = 1 << 16  # the same for the central kernel
_PATH_CELLS = 1 << 22  # most values held in kernel blocks along one descent path


class SearchTimeout(Exception):
    """Raised when a configured timeout expires mid-scan.

    Carries the partial progress: .hits, .scanned, .elapsed_ms.
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
    if central_only:
        m = n // 2
        return (1 << m) * factorial(m)
    return factorial(n)


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
        return

    yield from rec(0)


def _target_vector(n: int) -> Optional[tuple]:
    tc = target_counts_3(n)
    if tc is None:
        return None
    six = tuple(tc[p] for p in PATTERNS_3)
    t12 = tc[Perm((1, 2))]
    return six + (t12, comb(n, 2) - t12)


def _tri_index(x: int, y: int, z: int) -> int:
    # pattern of the value triple (x, y, z) in position order -> 0..5
    if x < y:
        if z > y:
            return 0  # 123
        if z > x:
            return 1  # 132
        return 3  # 231
    if z > x:
        return 2  # 213
    if z > y:
        return 4  # 312
    return 5  # 321


# ---------------------------------------------------------------------------
# depth-first engine (unrestricted space)


def _dfs_full_shard(
    n: int,
    tv: tuple,
    first_u: int,
    limit: Optional[int],
    deadline: Optional[float],
) -> tuple:
    """Scan the unrestricted subtree of permutations starting with first_u."""
    leaves = [factorial(n - d) for d in range(n + 1)]
    rem = [(comb(n, 3) - comb(d, 3), comb(n, 2) - comb(d, 2)) for d in range(n + 1)]
    hits: list = []
    W: list[int] = []
    used = bytearray(n + 1)
    counts = [0] * 8
    state = {"scanned": 0, "nodes": 0, "timed_out": False, "capped": False}

    def rec(d: int) -> None:
        cand = range(first_u, first_u + 1) if d == 0 else range(1, n + 1)
        r3, r2 = rem[d + 1]
        for u in cand:
            if state["timed_out"] or state["capped"]:
                return
            if used[u]:
                continue
            state["nodes"] += 1
            if deadline is not None and state["nodes"] % _NODE_CHECK == 0:
                if time.monotonic() > deadline:
                    state["timed_out"] = True
                    return
            delta = [0] * 8
            nb = 0
            for w in W:
                nb += w < u
            delta[_P12_IDX] = nb
            delta[_P21_IDX] = d - nb
            for j in range(d):
                vj = W[j]
                for i in range(j):
                    delta[_tri_index(W[i], vj, u)] += 1
            ok = True
            for i in range(8):
                c = counts[i] + delta[i]
                r = r3 if i < 6 else r2
                if c > tv[i] or c + r < tv[i]:
                    ok = False
                    break
            if not ok:
                state["scanned"] += leaves[d + 1]
                continue
            if d + 1 == n:
                state["scanned"] += 1
                hits.append(tuple(W) + (u,))
                if limit is not None and len(hits) >= limit:
                    state["capped"] = True
                    return
                continue
            W.append(u)
            used[u] = 1
            for i in range(8):
                counts[i] += delta[i]
            rec(d + 1)
            for i in range(8):
                counts[i] -= delta[i]
            used[u] = 0
            W.pop()

    rec(0)
    if not state["capped"] and not state["timed_out"] and state["scanned"] != leaves[1]:
        raise RuntimeError("shard coverage accounting is off")
    return hits, state["scanned"], state["timed_out"]


# ---------------------------------------------------------------------------
# central kernel (numpy)


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


def _kernel_dtypes(n: int, tv: tuple) -> tuple:
    """Dtypes of the central kernel's stored values and stored counts.

    Values take the smallest unsigned type that holds n + 1, since the
    kernel forms n + 1 - v. Stored counts never exceed their targets, so
    int16 holds them while every target does. Working counts are int32 and
    stay below 3 * C(n, 3); lengths past that bound raise ValueError.
    """
    if 3 * comb(n, 3) > np.iinfo(np.int32).max:
        raise ValueError(f"length {n} is too long for the search kernel's int32 counts")
    counts = np.int16 if max(tv) <= np.iinfo(np.int16).max else np.int32
    return np.min_scalar_type(n + 1), counts


def _bfs_central_shard(
    n: int, tv: tuple, first_u: int, deadline: Optional[float]
) -> tuple:
    """Scan the central subtree rooted at first value first_u.

    Returns (hits, scanned, timed_out) with hits as sorted value tuples.
    The level kernel extends a block of partial states by every next pair
    at once. Surviving children queue up and are descended into, depth
    first, as soon as a full block of them is ready. A block with d values
    placed has at most _PATH_CELLS / (m * d) rows, so the blocks held along
    one descent path hold at most _PATH_CELLS values at any length. Like
    the depth-first engine, the kernel polls the deadline by node count:
    before a block, once _KERNEL_NODE_CHECK (state, value) pairs have been
    tried since the last poll, so a scan always gets past its first few
    tiny blocks before it can time out.
    """
    vdtype, cdtype = _kernel_dtypes(n, tv)
    nn1 = n + 1
    m = n // 2
    odd = n & 1
    center = nn1 // 2 if odd else 0
    T = np.array(tv, dtype=np.int32)
    leaves = [factorial(m - d) * (1 << (m - d)) for d in range(m + 1)]
    others = [u for u in range(1, n + 1) if 2 * u != nn1]
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
        final = d + 1 == m
        cands = [first_u] if d == 0 else others
        nodes += Wc.shape[0] * len(cands)
        size = _PATH_CELLS // (m * (d + 1))
        r3 = comb(n, 3) - comb(2 * (d + 1) + odd, 3)
        r2 = comb(n, 2) - comb(2 * (d + 1) + odd, 2)
        remv = np.array([r3] * 6 + [r2] * 2, dtype=np.int32)
        queue_W: list[np.ndarray] = []
        queue_C: list[np.ndarray] = []
        queued = 0

        asc_b, asc_a, desc_b, desc_a, asc_tot = _pair_stats(Wc)
        total2 = d * (d - 1) // 2
        if odd:
            A = np.concatenate(
                [
                    np.full((Wc.shape[0], 1), center, dtype=vdtype),
                    (nn1 - Wc[:, ::-1]).astype(vdtype),
                ],
                axis=1,
            )
        else:
            A = (nn1 - Wc[:, ::-1]).astype(vdtype)
        dA = d + odd
        ascA_b, ascA_a, descA_b, descA_a, ascA_tot = _pair_stats(A)
        totalA2 = dA * (dA - 1) // 2
        # AB[s, i] = how many A-values sit below W[s, i]
        AB = (A[:, None, :] < Wc[:, :, None]).sum(axis=2, dtype=np.int32)

        for u in cands:
            up = nn1 - u
            sel = ~((Wc == u) | (Wc == up)).any(axis=1)
            if not sel.any():
                continue
            Ws = Wc[sel]
            As = A[sel]
            Ns = Ws.shape[0]
            B = Ws < u
            nb = B.sum(axis=1, dtype=np.int32)
            nbp = (Ws < up).sum(axis=1, dtype=np.int32)
            BA = As < u
            naB = BA.sum(axis=1, dtype=np.int32)
            delta = np.zeros((Ns, 8), dtype=np.int32)

            # pairs: old-new doubled by the mirror, plus the new pair
            c12 = nb + (dA - naB)
            delta[:, _P12_IDX] = 2 * c12 + (1 if u < up else 0)
            delta[:, _P21_IDX] = 2 * (d + dA - c12) + (0 if u < up else 1)

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
            b = np.zeros((Ns, 6), dtype=np.int32)
            sb_asc = asc_b[sel]
            sa_asc = asc_a[sel]
            sb_desc = desc_b[sel]
            sa_desc = desc_a[sel]
            st_asc = asc_tot[sel]
            # both olds on the left: new point is last
            b[:, 0] += (B * sb_asc).sum(axis=1, dtype=np.int32)
            b231 = ((~B) * sa_asc).sum(axis=1, dtype=np.int32)
            b[:, 3] += b231
            b[:, 1] += st_asc - b[:, 0] - b231
            b213 = (B * sa_desc).sum(axis=1, dtype=np.int32)
            b321 = ((~B) * sb_desc).sum(axis=1, dtype=np.int32)
            b[:, 2] += b213
            b[:, 5] += b321
            b[:, 4] += (total2 - st_asc) - b213 - b321
            # one old each side: new point is in the middle
            ABs = AB[sel]
            sab = (B * ABs).sum(axis=1, dtype=np.int32)
            b[:, 0] += nb * (dA - naB)
            b[:, 1] += nb * naB - sab
            b[:, 3] += sab
            b[:, 2] += ((~B) * (dA - ABs)).sum(axis=1, dtype=np.int32)
            b312 = ((~B) * ABs).sum(axis=1, dtype=np.int32) - (d - nb) * naB
            b[:, 4] += b312
            b[:, 5] += (d - nb) * naB
            # both olds on the right: new point is first
            sbA_asc = ascA_b[sel]
            saA_asc = ascA_a[sel]
            sbA_desc = descA_b[sel]
            saA_desc = descA_a[sel]
            stA_asc = ascA_tot[sel]
            b123 = ((~BA) * saA_asc).sum(axis=1, dtype=np.int32)
            b312a = (BA * sbA_asc).sum(axis=1, dtype=np.int32)
            b[:, 0] += b123
            b[:, 4] += b312a
            b[:, 2] += stA_asc - b123 - b312a
            b132 = ((~BA) * sbA_desc).sum(axis=1, dtype=np.int32)
            b321a = (BA * saA_desc).sum(axis=1, dtype=np.int32)
            b[:, 1] += b132
            b[:, 5] += b321a
            b[:, 3] += (totalA2 - stA_asc) - b132 - b321a

            for p in range(6):
                delta[:, p] += b[:, p] + b[:, _RMAP[p]]

            C2 = Cc[sel].astype(np.int32) + delta
            keep = ((C2 <= T) & (C2 + remv >= T)).all(axis=1)
            kept = int(keep.sum())
            if final:
                scanned += Ns
            else:
                scanned += (Ns - kept) * leaves[d + 1]
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

    descend(np.zeros((1, 0), dtype=vdtype), np.zeros((1, 8), dtype=cdtype))
    hits: list = []
    for rows in hits_rows:
        for row in rows:
            left = [int(v) for v in row]
            full = tuple(left) + ((center,) if odd else ()) + tuple(
                nn1 - v for v in reversed(left)
            )
            hits.append(full)
    hits.sort()
    if not timed_out and scanned != leaves[1]:
        raise RuntimeError("shard coverage accounting is off")
    return hits, scanned, timed_out


# ---------------------------------------------------------------------------
# dispatch

def _covered_through(n: int, hit: tuple) -> int:
    """Candidates of hit's central shard up to and including hit.

    This is what a lexicographic scan of the shard covers when it stops at
    hit: each free value below the one placed at position i stands for a
    whole subtree of 2^k * k! leaves, k = n // 2 - 1 - i.
    """
    nn1 = n + 1
    m = n // 2
    free = {u for u in range(1, n + 1) if 2 * u != nn1} - {hit[0], nn1 - hit[0]}
    covered = 1
    for i in range(1, m):
        v = hit[i]
        k = m - 1 - i
        covered += sum(u < v for u in free) * (1 << k) * factorial(k)
        free -= {v, nn1 - v}
    return covered


def _run_shard(args: tuple) -> tuple:
    """Scan one shard; returns (hits, scanned, timed_out).

    A shard stops at its own limit-th hit. Central shards are scanned
    whole and then cut there, with scanned counted up to that hit.
    """
    central, n, tv, first_u, limit, deadline = args
    if not central:
        return _dfs_full_shard(n, tv, first_u, limit, deadline)
    hits, scanned, timed_out = _bfs_central_shard(n, tv, first_u, deadline)
    if limit is not None and len(hits) >= limit and not timed_out:
        hits = hits[:limit]
        scanned = _covered_through(n, hits[-1])
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
    nn1 = n + 1
    deadline = time.monotonic() + timeout if timeout is not None else None
    if central_only:
        _kernel_dtypes(n, tv)  # raises ValueError before any worker starts
        firsts = [u for u in range(1, n + 1) if 2 * u != nn1]
    else:
        firsts = list(range(1, n + 1))
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
    complete; the CLI's --emit-all uses it to stream hits. Centrally
    symmetric lengths above 1626 raise ValueError: the search kernel's
    int32 counts would overflow there.

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

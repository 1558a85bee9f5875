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

Both search spaces go through one vectorized kernel (numpy). It lists
the children of a chunk of partial states, each state with every
admissible next value, in one pass, tests each block of children on the
count rule as it enters the next level, and descends into the survivors
a block at a time, depth first, so the arrays it holds stay bounded.
Near the root the rule covers too few triples and pairs to drop any
state (each target lies between what it covers and what it leaves
open), so those levels go uncounted. The last four steps skip the rule:
the counts are linear in five rank sums, so each completion of a state
gets a key of its sums, and only key matches meet the rule, at the last
level.
A block is stored position-major (C-contiguous), one row per position
and one column per state, so every sum over a state's positions is a few
adds of contiguous vectors. The same kernel serves full scans (length 17,
10,321,920 centrally symmetric candidates, in about 0.03 s on one core;
see BENCH_search17.json) and scans cut by a result limit or a timeout:
each shard is scanned whole and the run's sorted hits are cut at the
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
from functools import cached_property, partial
from itertools import accumulate
from math import comb
from operator import mul
from typing import Callable, Iterator, Optional

from .core import PATTERNS_3, Perm, _integer, _record
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
_TAIL = 4  # last steps of a shard completed by five-sum key, not by the count rule


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


@_record
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


@_record
class SearchResult:
    """Search outcome; iterates as the triple (hits, scanned, found).

    scanned counts candidates covered: visited leaves plus every leaf under
    a pruned branch, so a completed scan reports exactly the space size.
    A run that reaches its limit reports the lexicographic rank of its
    last hit, the candidates a scan in lexicographic order would cover
    when it stops there; one with fewer hits than its limit reports the
    space size.
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
    where asc_before[j, s] counts i < j with M[i, s] < M[j, s], etc. The
    per-position counts are int16 (each is below d <= n, so the int16
    reductions are exact; see _check_length) and asc_total is int32.
    """
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


@_record
class _Space:
    """The facts about one search space that the block driver needs.

    A candidate of length n is built in `steps` steps of `per_step` values
    each; a state after d steps has leaves[d] candidates under it. A step
    chooses one of `values` not yet taken; taken(v) are the values a step
    placing v uses up (v may be an array), and as_hit turns a state's
    stored values into the candidate's value tuple. counts(W) is the
    space's exact count rule for the position-major states W (W[j, s] is
    the value at position j of state s), one column of 7 counts per state:
    the unplaced points follow the prefix (prefix rule) or sit between the
    placed outer blocks (central rule).
    """

    n: int
    steps: int
    per_step: int
    leaves: tuple
    values: tuple
    taken: Callable
    counts: Callable
    as_hit: Callable

    def slack(self, d: int) -> tuple:
        """What the count rule leaves open after d steps, per count: the
        triples of two or three unplaced points or of the center and one,
        and the pairs of two unplaced points or of the center and one. The
        rule covers the rest, C(n, 3) or C(n, 2) less the slack."""
        n = self.n
        k = self.per_step * (self.steps - d)  # unplaced values
        D = self.per_step * d  # placed values, the center left out
        placed = n - k
        triples = comb(n, 3) - comb(placed, 3) - comb(D, 2) * k
        return (triples,) * 6 + (comb(n, 2) - comb(placed, 2) - D * k,)

    @cached_property
    def tail(self) -> tuple:
        """(d0, plan): a shard completes the states it keeps at depth
        d0 = max(1, steps - _TAIL) by plan.matches (_fivesum.Tail)."""
        from . import _fivesum

        d0 = max(1, self.steps - _TAIL)
        return d0, _fivesum.tail_plan(self.n, self.steps, self.per_step == 2, d0, _PATH_CELLS)


def _leaves(steps: int, per_step: int) -> tuple:
    """leaves[d] for d = 0..steps: the candidates under a state after d steps.

    A step taken with i steps left, itself included, has per_step * i
    choices, so leaves[d] is the product of per_step * i for i = 1..steps - d:
    one running product, read from its end. That is (n - d)! unrestricted
    and 2**(m - d) * (m - d)! centrally symmetric (m = n // 2).
    """
    return tuple(accumulate(range(per_step, per_step * steps + 1, per_step), mul, initial=1))[::-1]


def _space(n: int, central: bool) -> _Space:
    nn1 = n + 1
    if not central:
        return _Space(
            n=n,
            steps=n,
            per_step=1,
            leaves=_leaves(n, 1),
            values=tuple(range(1, nn1)),
            taken=lambda v: (v,),
            counts=lambda W: _prefix_counts(n, W)[0],
            as_hit=lambda row: row,
        )
    m = n // 2
    mid = (nn1 // 2,) if n & 1 else ()
    return _Space(
        n=n,
        steps=m,
        per_step=2,
        leaves=_leaves(m, 2),
        values=tuple(u for u in range(1, nn1) if 2 * u != nn1),
        taken=lambda v: (v, nn1 - v),
        counts=partial(_central_counts, n),
        as_hit=lambda row: row + mid + tuple(map(nn1.__sub__, reversed(row))),
    )


def _rule_prunes(n: int, tv: tuple, slack: tuple) -> bool:
    """Whether the count rule, leaving slack open, can drop a state under
    the targets tv. A state's counts lie between 0 and what the rule
    covers, so where every target lies between that covered total and the
    slack, every state's counts are at most the targets and within the
    slack of them, and no state fails."""
    full = (comb(n, 3),) * 6 + (comb(n, 2),)
    return any(not f - s <= t <= s for t, f, s in zip(tv, full, slack))


def _check_length(n: int) -> None:
    """Refuse lengths whose counts could overflow the search kernel's int32.

    The kernel stores values as int16 (n <= 1626 fits it), the count rules
    keep per-position counts in int16 and sum over positions in int32.
    Every per-position count (pairs before or after a position, values
    below or above it, A and r) is at most n - 1 <= 1625, so the int16
    reductions and differences are exact. A state's counts,
    and its counts plus the slack left for the rest, stay at most C(n, 3)
    per pattern, and no term of a rule reaches 3 * C(n, 3): a column sum
    of squares x**2, with x at position i at most d - 1 - i, is at most
    2 * C(d, 3) + C(d, 2), and d * sum(r) = r_lo + r_hi counts distinct
    triples, so it is at most C(n, 3). Lengths past that bound (n > 1626)
    raise ValueError.
    """
    import numpy as np

    if 3 * comb(n, 3) > np.iinfo(np.int32).max:
        raise ValueError(f"length {n} is too long for the search kernel's int32 counts")


def _scan_shard(
    n: int, tv: tuple, space: _Space, first_u: int, deadline: Optional[float]
) -> tuple:
    """Scan the subtree of space rooted at first value first_u.

    Returns (hits, scanned, timed_out) with hits as sorted value tuples.
    A block of N states with d steps taken is stored position-major, as a
    C-contiguous (d, N) int16 array, one column per state (_check_length).
    Each block is counted as it enters, by the space's exact rule, and keeps
    only the states whose counts neither overshoot a target nor fall short
    of it by more than the slack the rule leaves open; each dropped state
    is credited with its leaves. At the depths where no state can fail the
    rule (_rule_prunes), a block enters whole and uncounted. A child step
    marks the values the kept states use up in one mask, and lists the
    children of a chunk of kept states in one pass, value-major, as the
    (next value, state) pairs whose value uses up none of the state's.
    Their blocks, the states' columns with the value as a new row, are
    descended into, depth first, as soon as each is built.
    Below the last level, a block with d steps taken has at most
    _PATH_CELLS / (steps * d) states, and a chunk's index arrays list at
    most as many children (at least one state's), so the blocks and index
    arrays held along one descent path hold O(_PATH_CELLS) values at any
    length. The last level's block holds one tail pass's key matches,
    which the budget does not bound. With a deadline, the kernel reads the
    clock once as each block enters, and stops as soon as the deadline has
    passed.

    The states kept at depth d0 (space.tail) are completed in every way at
    once: each completion's five-sum key (the prefix points' terms plus the
    tail's, made once per left value set) is compared with the targets'.
    The key is a 16-bit filter: its matches enter the last level as one
    block, where the count rule with slack 0 decides every one of them.
    """
    import numpy as np

    T = np.array(tv, dtype=np.int32)[:, None]
    # the slack of each depth where the count rule can drop a state; the
    # last level, where the slack is 0 and the rule decides each hit,
    # always counts
    slack = {}
    for d in range(1, space.steps + 1):
        s = space.slack(d)
        if d == space.steps or _rule_prunes(n, tv, s):
            slack[d] = np.array(s, dtype=np.int32)[:, None]
    d0, tail = space.tail
    values = np.array(space.values, dtype=np.int16)
    hit_blocks: list[np.ndarray] = []
    scanned = 0
    timed_out = False

    def descend(W: np.ndarray) -> None:
        nonlocal scanned, timed_out
        if deadline is not None and time.monotonic() > deadline:
            timed_out = True
            return
        d, N = W.shape
        if d in slack:  # elsewhere every state meets the rule
            C = space.counts(W)
            W = W.compress(((C <= T) & (C + slack[d] >= T)).all(axis=0), axis=1)
        kept = W.shape[1]
        scanned += (N - kept) * space.leaves[d]
        if not kept:
            return
        if d == space.steps:
            hit_blocks.append(W.T)
            scanned += kept
            return
        used = np.zeros((n + 1, kept), dtype=bool)
        used[0] = True  # so ~used holds the free values only
        for taken in space.taken(W):
            used[taken, np.arange(kept)] = True
        if d == d0:
            s, placed = tail.matches(tv, W, used)
            scanned += kept * space.leaves[d] - len(s)
            if len(s):
                descend(np.concatenate([W.take(s, axis=1), placed]))
            return
        size = _PATH_CELLS // (space.steps * (d + 1))
        chunk = max(1, size // len(values))
        for a in range(0, kept, chunk):
            # the chunk's children, value-major: values[u] placed after state a + s
            u, s = np.nonzero(~used[values, a:a + chunk])
            for b in range(0, len(s), size):
                part = slice(b, b + size)
                descend(np.concatenate([W.take(a + s[part], axis=1), values[None, u[part]]]))
                if timed_out:
                    return

    descend(np.full((1, 1), first_u, dtype=np.int16))
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


def _covered_through(space: _Space, hit: tuple) -> int:
    """Candidates of hit's shard up to and including hit.

    This is what a lexicographic scan of the shard covers when it stops at
    hit: each free value below the one chosen at step i stands for a whole
    subtree of leaves[i + 1] candidates.
    """
    free = set(space.values).difference(space.taken(hit[0]))
    covered = 1
    for i in range(1, space.steps):
        v = hit[i]
        covered += sum(u < v for u in free) * space.leaves[i + 1]
        free.difference_update(space.taken(v))
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
    hits are sorted as built. A shard u > n+1-u is derived from the scan
    of its mirror n+1-u under the complemented targets, made when a shard
    first needs it. The shard that brings the hits to the limit is cut
    there and credited up to its last kept hit, so a limited run's scanned
    is the lexicographic rank of its last hit. Raises SearchTimeout when
    the deadline passes.
    """
    # imports numpy, raises ValueError and builds the tail's plan before
    # the clock starts
    _check_length(n)
    space = _space(n, central_only)
    space.tail
    t0 = time.monotonic()
    deadline = t0 + timeout if timeout is not None else None
    scans: dict = {}  # (first value, targets) -> (hits, scanned, timed_out)
    hits: list = []
    scanned = 0
    timed_out = False
    for i, u in enumerate(space.values):
        first_u, job_tv = (u, tv) if u <= n + 1 - u else (n + 1 - u, _complement_targets(n, tv))
        if (first_u, job_tv) not in scans:
            scans[first_u, job_tv] = _scan_shard(n, job_tv, space, first_u, deadline)
        shard_hits, shard_scanned, timed_out = scans[first_u, job_tv]
        if first_u != u:
            shard_hits = sorted(tuple(map((n + 1).__sub__, h)) for h in shard_hits)
        room = None if limit is None else limit - len(hits)
        if room is not None and len(shard_hits) >= room:
            shard_hits = shard_hits[:room]
            if not timed_out:
                shard_scanned = _covered_through(space, shard_hits[-1])
        scanned += shard_scanned
        # the kernel places each value 1..n once and the count rule with
        # slack 0 decides each hit, so a hit is a permutation as built
        batch = [tuple.__new__(Perm, h) for h in shard_hits]
        hits.extend(batch)
        if progress is not None and batch:
            progress(i, batch)
        if timed_out or len(hits) == limit:
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

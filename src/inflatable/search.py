"""Exhaustive search for 3-inflatable permutations: the public API and the
shard driver.

Candidates are permutations whose six length-3 counts and ascending pair
count all equal the exact integer targets for their length, so the search
is a constraint scan, not a verification loop: a branch dies as soon as
any count overshoots its target or can no longer reach it.

A search space builds each candidate in steps. Unrestricted states grow
by one value placed last. Centrally symmetric states place complementary
value pairs outside-in: after d steps positions 1..d and n-d+1..n are
filled and the pair (u, n+1-u) enters at positions d+1 and n-d. The numpy
kernel that scans a shard of either space is _kernel; the driver imports
it before its first scan's clock starts, so importing this module, or a
call that scans nothing, loads no numpy.

Shards are the choices of first value u. Complement (v -> n+1-v) maps
shard u onto shard n+1-u and fixes the real targets, so only the shards
with u <= n+1-u are scanned: every other shard is derived from its mirror
by complementing the hits (at length 17, 8 scans serve the 16 central
shards). Targets that complement does not fix, as in the tests, get a
scan of the mirror under the complemented targets, by the same rule.
The kernel scans the jobs of one targets from root blocks of one or more
first values. Without a limit or a timeout a block holds as many shards
as fit one child block at the tail's depth, a fact of the space alone
(all 8 at central length 17, one at unrestricted length 17 and central
64), and the block's sorted hits are split by first value. Under a
limit or a timeout each shard has its own block, since any shard may
end the run: every shard is scanned whole, unless the deadline passes
in it, and the limit cuts the run's hits, which come in lexicographic
order, at the limit.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from itertools import accumulate
from math import comb
from operator import mul

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
    limit: int | None = None
    threads: int = 1
    timeout: float | None = None


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
    without scanning or reading a clock (scanned = 0, elapsed_ms = 0) and
    reason says why.
    elapsed_ms is the scan's wall time on the clock a timeout reads, which
    starts after the kernel is loaded.
    """

    hits: list
    scanned: int
    found: int
    status: str = "ok"
    reason: str | None = None
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


def _target_vector(n: int) -> tuple | None:
    tc = target_counts_3(n)
    if tc is None:
        return None
    return tuple(tc[p] for p in PATTERNS_3) + (tc[Perm((1, 2))],)


@_record
class _Space:
    """The facts about one search space that the block driver needs.

    A candidate of length n is built in `steps` steps of `per_step` values
    each; a state after d steps has leaves[d] candidates under it. A step
    chooses one of `values` not yet taken; taken(v) are the values a step
    placing v uses up (v may be an array), and as_hit turns a block of
    states' stored values, one row per state, into the candidates' values,
    one row per candidate, in one array expansion. per_step 1 is the
    unrestricted space and 2 the centrally symmetric one; the kernel picks
    the space's count rule by it.
    """

    n: int
    steps: int
    per_step: int
    leaves: tuple
    values: tuple
    taken: Callable
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
            as_hit=lambda rows: rows,
        )
    m = n // 2
    # a hit's columns: the left half, a column for the center (odd n) and
    # the left half reversed, whose values are then mirrored
    cols = [*range(m), *[0] * (n & 1), *reversed(range(m))]

    def as_hit(rows):
        out = rows[:, cols]
        out[:, m:] = nn1 - out[:, m:]
        if n & 1:
            out[:, m] = nn1 // 2
        return out

    return _Space(
        n=n,
        steps=m,
        per_step=2,
        leaves=_leaves(m, 2),
        values=tuple(u for u in range(1, nn1) if 2 * u != nn1),
        taken=lambda v: (v, nn1 - v),
        as_hit=as_hit,
    )


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
    if 3 * comb(n, 3) > (1 << 31) - 1:  # the int32 maximum
        raise ValueError(f"length {n} is too long for the search kernel's int32 counts")


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
    limit: int | None,
    timeout: float | None,
    progress: Callable | None = None,
) -> tuple:
    """Run the sharded scan; returns (hits as Perms, scanned, elapsed_ms).

    Shards are the first-placement choices, processed and merged in index
    order, so hits, scanned, and the limit cut are reproducible. When a
    shard first needs its job, the next k unscanned jobs of its targets,
    in the order shards first need them, are scanned in one root block of
    their first values, sorted: k is as many shards as fit one child
    block at the tail's depth (_kernel._shards_per_block), or 1 under a
    limit or a timeout. The block's hits come as a sorted array of value
    rows, split by first value with one searchsorted, so each shard's hits
    start with its first value and the merged hits are sorted as built;
    each shard's rows become Perms in one batch. A shard scanned whole is
    credited its leaves, and the one-shard block that times out what the
    kernel covered. A shard u > n+1-u is derived from the scan of its
    mirror n+1-u under the complemented targets: its rows are n+1 less
    the mirror's, in reverse order.
    The shard that brings the hits to the limit is cut there and credited
    up to its last kept hit, so a limited run's scanned is the
    lexicographic rank of its last hit. elapsed_ms is read on the
    deadline's clock, which starts once the kernel is loaded and the
    tail's plan built. Raises SearchTimeout when the deadline passes.
    """
    # raises ValueError, then loads the kernel and numpy and builds the
    # tail's plan, before the clock starts
    _check_length(n)
    from . import _kernel

    space = _space(n, central_only)
    tail = _kernel._tail(space)
    t0 = time.monotonic()
    deadline = t0 + timeout if timeout is not None else None

    def expired() -> bool:  # the kernel asks as each block enters
        return deadline is not None and time.monotonic() > deadline

    # each shard's job: a scan of its first value under tv, or of its
    # mirror's under the complemented targets. A root block scans k jobs
    # of one targets; k is 1 under a limit or a timeout, since any shard
    # may end the run.
    jobs = [(u, tv) if u <= n + 1 - u else (n + 1 - u, _complement_targets(n, tv)) for u in space.values]
    k = 1 if limit is not None or timeout is not None else _kernel._shards_per_block(space, tail[0])
    scans: dict = {}  # job -> its hits, a sorted array of value rows
    hits: list = []
    scanned = 0
    timed_out = False
    for i, (u, job) in enumerate(zip(space.values, jobs)):
        if job not in scans:
            # the next k unscanned jobs of its targets, as shards first need them
            todo = [f for f, t in dict.fromkeys(jobs[i:]) if t == job[1] and (f, t) not in scans]
            block = sorted(todo[:k])
            rows, block_scanned, timed_out = _kernel._scan_shard(n, job[1], space, block, tail, expired)
            # its sorted rows, split by first value
            cuts = [0, *rows[:, 0].searchsorted(block[1:]).tolist(), len(rows)]
            for f, a, b in zip(block, cuts, cuts[1:]):
                scans[f, job[1]] = rows[a:b]
        shard_hits = scans[job]
        # a shard scanned whole covers its leaves; only a one-shard block times out
        shard_scanned = block_scanned if timed_out else space.leaves[1]
        if job[0] != u:
            # complement reverses lexicographic order
            shard_hits = (n + 1) - shard_hits[::-1]
        room = None if limit is None else limit - len(hits)
        if room is not None and len(shard_hits) >= room:
            shard_hits = shard_hits[:room]
            if not timed_out:
                shard_scanned = _covered_through(space, shard_hits[-1].tolist())
        scanned += shard_scanned
        # the kernel places each value 1..n once and the count rule with
        # slack 0 decides each hit, so a hit is a permutation as built
        batch = [tuple.__new__(Perm, h) for h in shard_hits.tolist()]
        hits.extend(batch)
        if progress is not None and batch:
            progress(i, batch)
        if timed_out or len(hits) == limit:
            break

    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if timed_out:
        raise SearchTimeout(hits, scanned, elapsed_ms)
    return hits, scanned, elapsed_ms


def search_3_inflatable(
    config: SearchConfig, progress: Callable | None = None
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
        )
    hits, scanned, elapsed_ms = _search_space(
        n, tv, config.central_only, limit, config.timeout, progress
    )
    return SearchResult(
        hits=hits,
        scanned=scanned,
        found=len(hits),
        status="ok",
        reason=None,
        elapsed_ms=elapsed_ms,
    )

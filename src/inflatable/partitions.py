"""Block partitions: every way to write a permutation as a generalized inflation.

A block partition of pi cuts 1..n into consecutive segments whose value sets
are intervals. The segment patterns are the inner blocks and the pattern of
the intervals themselves is the outer permutation sigma, so that
generalized_inflate(sigma, inner) reconstructs pi. These are the index set
the limit-density formula sums over.
"""

from __future__ import annotations

from .core import Perm, PermLike, _pattern, _record, as_perm, generalized_inflate

__all__ = ["BlockPartition", "block_partitions", "BLOCK_PARTITION_MAX"]

BLOCK_PARTITION_MAX = 10


@_record
class BlockPartition:
    """One way to cut pi into interval blocks.

    outer is the pattern sigma of the blocks, inner the per-block patterns
    in position order, sizes the block lengths (a composition of |pi|).
    """

    outer: Perm
    inner: tuple
    sizes: tuple


def block_partitions(pi: PermLike) -> list[BlockPartition]:
    """All block partitions of pi, ordered lexicographically by sizes.

    The trivial cuts are always present: n singletons (sigma = pi) and the
    single block of length n (sigma = 1). Enumeration recurses over interval
    prefixes: a segment grows while its min and max are tracked, and a cut
    is made only where max - min + 1 equals its length, so no composition
    whose segments are not intervals is ever built. Trying the shorter first
    block first yields the sizes in lexicographic order. Every partition is
    checked to rebuild pi. The length is capped at BLOCK_PARTITION_MAX.

    >>> [bp.sizes for bp in block_partitions("132")]
    [(1, 1, 1), (1, 2), (3,)]
    """
    p = as_perm(pi)
    n = p.n
    if n > BLOCK_PARTITION_MAX:
        raise ValueError(f"block partition enumeration caps at length {BLOCK_PARTITION_MAX}")
    out: list[BlockPartition] = []
    lows: list[int] = []
    blocks: list[Perm] = []

    def cut_from(start: int) -> None:
        if start == n:
            bp = BlockPartition(
                outer=_pattern(lows),
                inner=tuple(blocks),
                sizes=tuple(map(len, blocks)),
            )
            # reconstruction is a definitional invariant, cheap at n <= 10
            if generalized_inflate(bp.outer, bp.inner) != p:
                raise RuntimeError(f"block partition {bp} does not rebuild {p}")
            out.append(bp)
            return
        lo = hi = p[start]
        for end in range(start + 1, n + 1):
            v = p[end - 1]
            lo = min(lo, v)
            hi = max(hi, v)
            if hi - lo + 1 == end - start:
                lows.append(lo)
                blocks.append(_pattern(p[start:end]))
                cut_from(end)
                lows.pop()
                blocks.pop()

    cut_from(0)
    return out

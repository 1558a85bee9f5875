"""Block partitions: every way to write a permutation as a generalized inflation.

A block partition of pi cuts 1..n into consecutive segments whose value sets
are intervals. The segment patterns are the inner blocks and the pattern of
the intervals themselves is the outer permutation sigma, so that
generalized_inflate(sigma, inner) reconstructs pi. These are the index set
the limit-density formula sums over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Perm, PermLike, as_perm, generalized_inflate, pattern_of

__all__ = ["BlockPartition", "block_partitions", "BLOCK_PARTITION_MAX"]

BLOCK_PARTITION_MAX = 10


@dataclass(frozen=True)
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
    single block of length n (sigma = 1). Enumeration walks all 2^(n-1)
    compositions and keeps those whose segments are value intervals, so the
    length is capped at BLOCK_PARTITION_MAX.

    >>> [bp.sizes for bp in block_partitions("132")]
    [(1, 1, 1), (1, 2), (3,)]
    """
    p = as_perm(pi)
    n = p.n
    if n > BLOCK_PARTITION_MAX:
        raise ValueError(f"block partition enumeration caps at length {BLOCK_PARTITION_MAX}")
    out: list[BlockPartition] = []
    for cuts in range(n):
        for cut_positions in combinations(range(1, n), cuts):
            bounds = (0,) + cut_positions + (n,)
            segments = [p[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]
            ok = True
            for seg in segments:
                if max(seg) - min(seg) + 1 != len(seg):
                    ok = False
                    break
            if not ok:
                continue
            outer = pattern_of([min(seg) for seg in segments])
            inner = tuple(pattern_of(seg) for seg in segments)
            out.append(
                BlockPartition(
                    outer=outer,
                    inner=inner,
                    sizes=tuple(len(seg) for seg in segments),
                )
            )
    out.sort(key=lambda bp: bp.sizes)
    for bp in out:
        # reconstruction is a definitional invariant, cheap at n <= 10
        if generalized_inflate(bp.outer, bp.inner) != p:
            raise RuntimeError(f"block partition {bp} does not rebuild {p}")
    return out

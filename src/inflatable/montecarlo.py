"""Monte Carlo estimation of limit densities, as an independent check.

The exact limit formula predicts pattern densities of inflate(tau, lambda)
for a uniformly random permutation lambda of length j. This module runs
that experiment: sample lambda, measure the pattern's density in the
inflation, average. Estimates here are the only floating-point surface of the
package; everything they are compared against stays exact.

Neither mode builds the host. Exact mode counts it from the paper's
finite formula: every occurrence of pi in inflate(tau, lambda) picks a
block partition pi = sigma[alpha_1, ..., alpha_m], an occurrence of sigma
in tau and one of each alpha_i in lambda, so
occ(pi) = sum occ(sigma, tau) * prod occ(alpha_i, lambda). tau's counts
are filled once per call and lambda's once per sample, each into a dict
of its own (``core._fill``, so the host memo is left alone), and the sum
runs over ``partitions.block_partitions(pi)``. That is neither ``density``
nor the forward sum the limit formula uses (``core._inflation_sums``,
which ``_fill`` reaches only for a lambda that splits itself), so the
estimate stays independent of the code that computes the limit it checks.
Subset mode: the value at index x of inflate(tau, lambda) is
j * (tau[x // j] - 1) + lambda[x % j], so it reads values off that
formula as a numpy vector and classifies all of a sample's subsets at
once: a compare-exchange network sorts each block's rows on its k index
columns (``_sorted_columns``), and a row is a hit when its host values,
read in pi's value order, rise. The perfbench workload ``montecarlo``
runs 20 subset-mode samples of 5,000 subsets in about 0.033 s
(``stage2_s``, median of 10 pairs on a 2-vCPU Intel Xeon VM with Python
3.11.7, BENCH_montecarlo.json).

Determinism: sample i uses its own ``random.Random(f"{seed}:{i}")``, which
string-seeds through SHA-512, so runs are reproducible across platforms
and insensitive to sampling order. Each sample's lambda is exactly the
list ``Random.shuffle`` would leave, from the same 32-bit words, but the
words are read in bulk (``_shuffle``). Subset mode then draws exactly the
subsets ``rng.sample(range(|tau| * j), |pi|)`` would, likewise in bulk
(``_subset_draws``).
"""

from __future__ import annotations

from math import ceil, comb, log, prod, sqrt
from statistics import fmean, stdev
import random
import sys

from .core import Perm, PermLike, _fill, _integer, _record, as_perm
from .partitions import block_partitions

__all__ = ["Estimate", "estimate_limit_density", "GENERATOR_ID", "EXACT_CELL_CAP"]

GENERATOR_ID = "mt19937; per-sample seed sha512('{seed}:{index}'); Fisher-Yates shuffle"

# exact per-sample counting fills the counts of the j long lambda (one
# rank-count length-3 counter call) and sums over pi's block partitions, so
# its cost follows j, not |tau| * j; one sample of tau = 472951836 takes
# about 2.5 ms at j = 2,000 and 30-33 ms at j = 11,111 (99,999 cells), CPU
# time, best of 3, 3 seeds at the larger j (2-vCPU Xeon VM, Python 3.11.7)
EXACT_CELL_CAP = 100_000

# subset mode draws and classifies at most this many subsets at a time, so
# its memory does not grow with subset_samples
_DRAW_ROWS = 1 << 14


@_record
class Estimate:
    """A Monte Carlo density estimate with its sampling uncertainty.

    mean averages the per-sample densities; stderr is their sample standard
    deviation over sqrt(samples) (NaN when samples == 1). Bias relative to
    the j -> infinity limit is O(1/j) and is not included in stderr.
    """

    mean: float
    stderr: float
    samples: int
    j: int
    seed: int
    generator: str = GENERATOR_ID


def estimate_limit_density(
    tau: PermLike,
    pi: PermLike,
    j: int,
    samples: int,
    subset_samples: int = 0,
    seed: int = 0,
) -> Estimate:
    """Estimate lim t(pi, inflate(tau, lambda_j)) by direct simulation.

    Each of the ``samples`` repetitions draws a uniform lambda of length j
    (Fisher-Yates on its own per-sample generator, the words of
    ``Random.shuffle`` read in bulk) and measures t(pi, inflate(tau, lambda)):
    exactly when subset_samples == 0 (requires |pi| <= 3 and
    |tau| * j <= EXACT_CELL_CAP), otherwise by classifying subset_samples
    uniform index subsets. Neither builds the host. Exact mode sums
    occ(sigma, tau) * prod occ(alpha_i, lambda) over pi's block partitions;
    subset mode reads host values by formula, and draws its subsets' words
    in bulk from the same stream ``rng.sample`` would read.

    j, samples, subset_samples and seed must be integers (anything
    ``operator.index`` accepts); a bool raises ValueError.
    """
    j = _integer("j", j)
    samples = _integer("samples", samples)
    subset_samples = _integer("subset_samples", subset_samples)
    seed = _integer("seed", seed)
    t = as_perm(tau)
    p = as_perm(pi)
    k = p.n
    if j < k:
        raise ValueError(f"j = {j} is smaller than the pattern length {k}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if subset_samples < 0:
        raise ValueError("subset_samples must be >= 0")
    big_n = t.n * j
    if subset_samples == 0:
        if k > 3:
            raise ValueError("exact per-sample counting is limited to |pi| <= 3")
        if big_n > EXACT_CELL_CAP:
            raise ValueError(
                f"exact per-sample counting caps at |tau|*j = {EXACT_CELL_CAP}, "
                f"got {big_n}; pass subset_samples > 0"
            )
        outer: dict = {}
        _fill(t, k, outer)
        # (occ(sigma, tau), (alpha_1, ..., alpha_m)) for each block
        # partition of pi whose sigma occurs in tau
        terms = [
            (w, bp.inner)
            for bp in block_partitions(p)
            if (w := outer[bp.outer.n].get(bp.outer))
        ]
        total = comb(big_n, k)
    else:
        import numpy as np

        order = sorted(range(k), key=p.__getitem__)
        # host value at index x is j * (tau[x // j] - 1) + lambda[x % j]
        block_base = j * (np.repeat(np.array(t, dtype=np.int64), j) - 1)
    values = []
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        lam = list(range(1, j + 1))
        _shuffle(rng, lam)
        if subset_samples == 0:
            counts: dict = {}
            _fill(tuple.__new__(Perm, lam), k, counts)
            c = sum(w * prod(counts[len(a)].get(a, 0) for a in inner) for w, inner in terms)
            # int / int rounds correctly, so this is float(Fraction(c, total))
            values.append(c / total)
        else:
            host = block_base + np.tile(np.array(lam, dtype=np.int64), t.n)
            hit = 0
            for idx in _subset_draws(rng, big_n, k, subset_samples):
                cols = _sorted_columns(idx)
                # a subset is a hit when its values, read in pi's value order, rise
                low = host[cols[order[0]]]
                rise = np.ones(len(low), dtype=bool)
                for o in order[1:]:
                    high = host[cols[o]]
                    rise &= high > low
                    low = high
                hit += int(np.count_nonzero(rise))
            values.append(hit / subset_samples)
    mean = fmean(values)
    err = stdev(values) / sqrt(samples) if samples >= 2 else float("nan")
    return Estimate(mean=mean, stderr=err, samples=samples, j=j, seed=seed)


def _shuffle(rng: random.Random, x: list) -> None:
    """Leave x and rng as Random.shuffle(rng, x) would, reading the words in bulk.

    Random.shuffle steps i from len(x) - 1 down to 1 and swaps x[i] with x[c],
    c the top (i + 1).bit_length() bits of a 32-bit MT19937 word, drawn
    again while c > i (``_randbelow_with_getrandbits``). So with i steps
    left at least i more words are read: one getrandbits call reads exactly
    i of them (the first drawn is the lowest), and they are walked in order
    until they run out, never past the words Random.shuffle would read.
    """
    i = len(x) - 1
    if i < 1:
        return
    k = (i + 1).bit_length()
    shift = 32 - k
    low = (1 << (k - 1)) - 1  # once i drops below this, i + 1 takes one bit less
    while i:
        words = memoryview(rng.getrandbits(32 * i).to_bytes(4 * i, sys.byteorder)).cast("I")
        for w in words if sys.byteorder == "little" else reversed(words):
            c = w >> shift
            if c <= i:
                x[i], x[c] = x[c], x[i]
                i -= 1
                if i < low:
                    shift += 1
                    low >>= 1


def _sorted_columns(idx) -> list:
    """The columns of idx with every row sorted: k vectors, the smallest entries first.

    An odd-even transposition network sorts the k columns in k rounds of
    np.minimum/np.maximum on adjacent columns, so every row is sorted at
    once without a per-row sort. Each compare-exchange leaves two fresh
    contiguous vectors. Its cost grows with k**2 and meets np.sort(idx,
    axis=1) near k = 10; past that a pattern's density is at most about
    1/10!, which a few thousand subsets per sample read as 0.
    """
    import numpy as np

    k = idx.shape[1]
    cols = list(idx.T)
    for r in range(k):
        for a in range(r & 1, k - 1, 2):
            x, y = cols[a], cols[a + 1]
            cols[a], cols[a + 1] = np.minimum(x, y), np.maximum(x, y)
    return cols


def _subset_draws(rng: random.Random, n: int, k: int, count: int):
    """Yield int64 blocks of rows that stack to [rng.sample(range(n), k) for _ in range(count)].

    On a population too large for its pool branch, sample() picks each
    index as the top n.bit_length() bits of a 32-bit MT19937 word, drawing
    again while that is >= n (``_randbelow_with_getrandbits``) or already
    picked. Here one getrandbits call per block reads the words
    (little-endian, so the first word drawn is the lowest) and numpy keeps
    the candidates < n. Rows are read k candidates at a time. A candidate
    equal to one of the k - 1 before it is flagged, and a row holding a
    flag is replayed by sample()'s redraw rule, which shifts every later
    row; a flag set by an equal index in the row before replays to the
    same row. Words drawn past the last row are never read: each sample's
    generator is discarded after its subset draws, so over-drawing moves
    no later stream. Where sample() takes its pool branch, or an index
    spans two words, it is called itself.
    """
    import numpy as np

    bits = n.bit_length()
    setsize = 21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))
    if n <= setsize or bits > 32:
        for start in range(0, count, _DRAW_ROWS):
            rows = [rng.sample(range(n), k) for _ in range(min(_DRAW_ROWS, count - start))]
            yield np.array(rows, dtype=np.int64).reshape(-1, k)
        return
    cand = np.empty(0, dtype=np.uint32)
    left = count
    while left:
        # about 5% more words than the block's rows need on average
        m = (min(left, _DRAW_ROWS) * k << bits) // n * 21 // 20 + k
        raw = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        words = np.frombuffer(raw, dtype="<u4") >> (32 - bits)
        cand = np.concatenate((cand, np.compress(words < n, words)))
        dup = np.zeros(len(cand), dtype=bool)
        for d in range(1, k):
            dup[d:] |= cand[d:] == cand[:-d]
        flags = np.flatnonzero(dup)
        block = []
        pos = 0
        while left:
            # the rows that end before the next flag after pos are clean
            b = int(np.searchsorted(flags, pos, side="right"))
            stop = int(flags[b]) if b < len(flags) else len(cand)
            clean = min((stop - pos) // k, left)
            if clean:
                block.append(cand[pos:pos + clean * k].reshape(clean, k))
            left -= clean
            pos += clean * k
            if not left or b == len(flags):
                break  # done, or every full row left is clean
            picked = []
            nxt = pos
            while len(picked) < k and nxt < len(cand):
                c = int(cand[nxt])
                nxt += 1
                if c not in picked:
                    picked.append(c)
            if len(picked) < k:
                break  # replayed again from pos once more words are read
            block.append(np.array([picked], dtype=np.uint32))
            left -= 1
            pos = nxt
        cand = cand[pos:]
        if block:
            yield np.concatenate(block, dtype=np.int64)

"""Monte Carlo estimation of limit densities, as an independent check.

The exact limit formula predicts pattern densities of inflate(tau, lambda)
for a uniformly random permutation lambda of length j. This module builds
that experiment directly: sample lambda, inflate, measure the density,
average. Estimates here are the only floating-point surface of the
package; everything they are compared against stays exact.

Determinism: sample i uses its own ``random.Random(f"{seed}:{i}")``, which
string-seeds through SHA-512, so runs are reproducible across platforms
and insensitive to sampling order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from statistics import fmean, stdev
import random

from .core import PermLike, as_perm, density, inflate

__all__ = ["Estimate", "estimate_limit_density", "GENERATOR_ID", "EXACT_CELL_CAP"]

GENERATOR_ID = "mt19937; per-sample seed sha512('{seed}:{index}'); Fisher-Yates shuffle"

# full enumeration of index triples is only allowed on hosts this small
EXACT_CELL_CAP = 500


@dataclass(frozen=True)
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
    (Fisher-Yates on its own per-sample generator), inflates tau by it, and
    measures t(pi, .): exactly when subset_samples == 0 (requires
    |pi| <= 3 and |tau| * j <= EXACT_CELL_CAP), otherwise by classifying
    subset_samples uniform index subsets.
    """
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
    order = sorted(range(k), key=p.__getitem__)
    values = []
    for i in range(samples):
        rng = random.Random(f"{seed}:{i}")
        lam = list(range(1, j + 1))
        rng.shuffle(lam)
        g = inflate(t, lam)
        if subset_samples == 0:
            values.append(float(density(p, g)))
        else:
            hit = 0
            idx_range = range(big_n)
            for _ in range(subset_samples):
                idx = rng.sample(idx_range, k)
                idx.sort()
                vals = [g[x] for x in idx]
                hit += sorted(range(k), key=vals.__getitem__) == order
            values.append(hit / subset_samples)
    mean = fmean(values)
    err = stdev(values) / sqrt(samples) if samples >= 2 else float("nan")
    return Estimate(mean=mean, stderr=err, samples=samples, j=j, seed=seed)

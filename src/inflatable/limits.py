"""Limit densities of patterns under repeated inflation.

The central formula: if inflation blocks are drawn so that the pattern
densities of the block sequence converge to a profile s, then

    lim t(pi, inflate(tau, gamma_j))
        = (|pi|! / n^|pi|) * sum over block partitions (b, sigma) of pi of
          occ(sigma, tau) * prod_alpha s(alpha) / |alpha|!

with n = |tau|, occ(sigma, tau) = C(n, |sigma|) t(sigma, tau) the number of
occurrences of sigma in tau, and the product running over the inner blocks
alpha of b. Terms with |sigma| > n drop out (sigma does not occur), and
blocks of length 1 contribute a factor of exactly 1, since every valid
profile has s(1) = 1.

The sum runs forward: a block partition of pi is one way to write pi as
sigma[alpha_1, ..., alpha_m], so one pass over every sigma, every block
size composition and every choice of inner patterns (core._inflation_sums)
adds each term to the pattern it builds, and gives every length-k limit
on a host at once. The table is kept per (host, k, profile object) in
core's memo, next to the host's occurrence counts of every length up to
k, which one core._occurrences call fills and every pattern summed on the
host shares. So the first pattern asked for on a host pays for the whole
table, about 10 ms for k = 6 on a 9-long host (2-vCPU Xeon VM, Python
3.11), and every later length-6 pattern there is a lookup. A warm
limit_density_uniform call reads its pattern and host once, checks the
cap once and does that lookup: about 0.8 us in-process (best of 9
timeit repeats, same machine), and the exact bench workload's stage2_s
reads 3.15 ms (median of 10 pairs, the latest rows of BENCH_exact.json). A fresh profile
object per call rebuilds the table, and takes the place of the last one.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .core import (
    Perm,
    PermLike,
    _MEMOS,
    _inflation_sums,
    _occurrences,
    all_patterns,
    as_perm,
)

__all__ = [
    "LIMIT_PATTERN_MAX",
    "DensityProfile",
    "uniform_profile",
    "limit_density_inflation",
    "limit_density_uniform",
    "abc_coefficients",
    "parse_rational",
]

LIMIT_PATTERN_MAX = 6

# the limit of a pattern no term reaches; Fractions are immutable, so every
# such call returns this one
_ZERO = Fraction(0)

RationalLike = Fraction | int | str


def parse_rational(value: RationalLike) -> Fraction:
    """Exact rational from an int (not a bool), Fraction, or "p/q" / "p" text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"not a rational: {value!r} (zero denominator)") from None
    raise ValueError(
        f"not a rational: {value!r} (accepted: an int that is not a bool, "
        'a Fraction, or "p/q" text)'
    )


class DensityProfile:
    """Assumed limiting pattern densities of the inflation block sequence.

    Maps patterns to exact rationals. Validation is eager: for every length
    k present, all k! patterns of that length must be present and their
    values must sum to 1 (each length is a probability distribution over
    patterns of that length).
    """

    def __init__(self, entries: Mapping[PermLike, RationalLike]):
        table: dict[Perm, Fraction] = {}
        for key, val in entries.items():
            p = as_perm(key)
            f = parse_rational(val)
            if f < 0 or f > 1:
                raise ValueError(f"density for {p} out of [0, 1]: {f}")
            if p in table:
                raise ValueError(f"duplicate profile entry for {p}")
            table[p] = f
        by_len: dict[int, list[Perm]] = {}
        for p in table:
            by_len.setdefault(p.n, []).append(p)
        for k, group in sorted(by_len.items()):
            if len(group) != factorial(k):
                raise ValueError(
                    f"profile incomplete at length {k}: "
                    f"{len(group)} of {factorial(k)} patterns present"
                )
            total = sum(table[p] for p in group)
            if total != 1:
                raise ValueError(f"length-{k} profile densities sum to {total}, not 1")
        self._table = table
        self.lengths = frozenset(by_len)

    def __getitem__(self, pattern: PermLike) -> Fraction:
        return self._table[as_perm(pattern)]

    def __contains__(self, pattern: PermLike) -> bool:
        return as_perm(pattern) in self._table

    def covers(self, max_len: int) -> bool:
        return self.lengths.issuperset(range(1, max_len + 1))

    @classmethod
    def from_json(cls, text: str) -> "DensityProfile":
        """Profile from a JSON object mapping pattern text to rational text."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("profile JSON must be an object")
        return cls(raw)


@lru_cache(maxsize=LIMIT_PATTERN_MAX)
def uniform_profile(max_len: int) -> DensityProfile:
    """The uniform profile: every length-k pattern at density 1/k!.

    This is the almost-sure limit for blocks drawn uniformly at random, so
    it is the profile behind limit_density_uniform.
    """
    if not 1 <= max_len <= LIMIT_PATTERN_MAX:
        raise ValueError(f"max_len must be in 1..{LIMIT_PATTERN_MAX}")
    entries: dict[Perm, Fraction] = {}
    for k in range(1, max_len + 1):
        w = Fraction(1, factorial(k))
        for p in all_patterns(k):
            entries[p] = w
    return DensityProfile(entries)


_MEMOS.append(uniform_profile)


def limit_density_inflation(
    pi: PermLike, tau: PermLike, profile: DensityProfile
) -> Fraction:
    """Exact limit of t(pi, inflate(tau, gamma_j)) for blocks following profile.

    Each block partition (b, sigma) of pi adds occ(sigma, tau) times the
    product of s(alpha) / |alpha|! over its inner blocks of length >= 2
    (a singleton block's factor is exactly 1). The value is read from the
    host's table of every length-|pi| limit under profile (_limit_table).
    Requires |pi| <= LIMIT_PATTERN_MAX and a profile covering every length
    up to |pi|.

    >>> limit_density_inflation("12", "132", uniform_profile(2))
    Fraction(11, 18)
    """
    p = as_perm(pi)
    t = as_perm(tau)
    k = p.n
    if k > LIMIT_PATTERN_MAX:
        raise ValueError(f"pattern length caps at {LIMIT_PATTERN_MAX}, got {k}")
    if not profile.covers(k):
        missing = [s for s in range(1, k + 1) if s not in profile.lengths]
        raise ValueError(f"profile lacks lengths {missing} needed for |pi| = {k}")
    return _limit_table(t, k, profile).get(p, _ZERO)


def _limit_table(t: Perm, k: int, profile: DensityProfile) -> dict:
    """Every length-k limit on host t under profile, kept with t's occurrence tables.

    One core._occurrences call reads t's memo, filled through length k.
    One forward sum (core._inflation_sums) over that memo's counts occ(rho)
    (it reads only the length keys) and the inner weights
    w(alpha) = s(alpha) / |alpha|! gives every pattern's sum at once. The
    weights are scaled to integers: B is the lcm of den(s(alpha)) * |alpha|!
    over every alpha, and the length-j weights are multiplied by B^j, which
    multiplies every term of a length-k pattern by the same B^k. The host
    keeps one table per k, for the last profile object it was asked with,
    so a run of fresh profiles on one host holds one table, not one per
    profile.
    """
    tables = _occurrences(t, k)
    held = tables.get(("limit", k))
    if held is not None and held[0] is profile:
        return held[1]
    weights = {j: {a: profile[a] for a in all_patterns(j)} for j in range(1, k + 1)}
    scale = lcm(*(f.denominator * factorial(j) for j, ws in weights.items() for f in ws.values()))
    inner = {
        j: {a: f.numerator * scale**j // (f.denominator * factorial(j)) for a, f in ws.items()}
        for j, ws in weights.items()
    }
    denominator = t.n**k * scale**k
    table = {
        pi: Fraction(factorial(k) * total, denominator)
        for pi, total in _inflation_sums(k, tables, inner).items()
    }
    tables[("limit", k)] = (profile, table)
    return table


def limit_density_uniform(pi: PermLike, tau: PermLike) -> Fraction:
    """Limit density under uniformly random blocks (uniform profile).

    >>> limit_density_uniform("132", "472951836")
    Fraction(29, 162)
    """
    p = as_perm(pi)
    k = p.n
    if k > LIMIT_PATTERN_MAX:
        raise ValueError(f"pattern length caps at {LIMIT_PATTERN_MAX}, got {k}")
    # uniform_profile(k) holds every length 1..k, so it covers |pi|
    return _limit_table(as_perm(tau), k, uniform_profile(k)).get(p, _ZERO)


def abc_coefficients(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of the linear forms the length-3 limits take.

    For |tau| = n and uniformly random blocks,

        a(n) = 6 C(n,3) / n^3
        b(n) = 6 C(n,2) / (4 n^3)
        c(n) = 1 / (6 n^2)

    and the six length-3 limit densities collapse to

        pi in {132, 213}: a t(pi,tau) +   b t(12,tau) + c
        pi in {231, 312}: a t(pi,tau) +   b t(21,tau) + c
        pi = 123:         a t(pi,tau) + 2 b t(12,tau) + c
        pi = 321:         a t(pi,tau) + 2 b t(21,tau) + c

    (the b multiplicity counts the two-block partitions of pi; the
    monotone patterns have two, the others one).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    a = Fraction(6 * comb(n, 3), n**3)
    b = Fraction(6 * comb(n, 2), 4 * n**3)
    c = Fraction(1, 6 * n**2)
    return a, b, c

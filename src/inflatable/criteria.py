"""Decision procedures for 2- and 3-inflatability.

A permutation tau of length n is 3-inflatable when the iterated inflations
tau, inflate(tau, tau), ... are quasirandom for patterns up to length 3.
That pins every pattern density of tau itself to an exact rational target:
t(12) must be 1/2 and each length-3 density must solve

    1/6 = a(n) t(pi, tau) + mult * b(n) t(pair, tau) + c(n)

with the coefficients from abc_coefficients. The targets are rational, so
the corresponding counts are integers only for certain n; lengths where all
targets are integral are called admissible. target_counts_3 is the one
admissibility rule: admissible_residues reads its residues mod 144 off it,
and the tests pin that the rule has period 144.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .core import (
    PATTERNS_3,
    Perm,
    PermLike,
    _P12,
    _occurrences,
    _record,
    as_perm,
    density,
    format_permutation,
    inflate,
)

__all__ = [
    "target_densities_3",
    "target_counts_3",
    "is_2_inflatable",
    "InflatabilityReport",
    "check_3_inflatable",
    "admissible_residues",
    "residue_multiplication_table",
    "compose_inflatables",
]

_MONOTONE = (Perm((1, 2, 3)), Perm((3, 2, 1)))


def target_densities_3(n: int) -> dict:
    """Exact densities a 3-inflatable permutation of length n must have.

    Keys are 12 and the six length-3 patterns. Closed forms:

        t(12)  = 1/2
        t(123) = t(321) = (2n - 7) / (12 (n - 2))
        others = (4n - 5) / (24 (n - 2))

    >>> target_densities_3(17)[Perm("123")]
    Fraction(3, 20)
    """
    if n < 3:
        raise ValueError("targets are defined for n >= 3")
    mono = Fraction(2 * n - 7, 12 * (n - 2))
    other = Fraction(4 * n - 5, 24 * (n - 2))
    out: dict[Perm, Fraction] = {_P12: Fraction(1, 2)}
    for p in PATTERNS_3:
        out[p] = mono if p in _MONOTONE else other
    return out


def target_counts_3(n: int) -> dict | None:
    """Integer occurrence counts matching the targets, or None.

    None means the length is inadmissible: at least one target density
    times the relevant binomial is not an integer, so no permutation of
    that length can meet the targets.

    >>> target_counts_3(17)[Perm("123")]
    102
    >>> target_counts_3(9) is None
    True
    """
    dens = target_densities_3(n)
    out: dict[Perm, int] = {}
    for p, d in dens.items():
        total = comb(n, p.n)
        c = d * total
        if c.denominator != 1 or c < 0:
            return None
        out[p] = int(c)
    return out


def is_2_inflatable(tau: PermLike) -> bool:
    """True when iterated inflation is quasirandom at length 2.

    Equivalent to t(12, tau) = 1/2. Length 1 is trivially inflatable; no
    length-2 or length-3 permutation qualifies (C(n,2) odd or target
    unreachable).
    """
    t = as_perm(tau)
    if t.n == 1:
        return True
    return density(_P12, t) == Fraction(1, 2)


@_record
class InflatabilityReport:
    """Outcome of the length-3 inflatability test for one permutation.

    required / observed map 12 and the six length-3 patterns to exact
    densities; observed_counts holds the raw integer counts. verdict is
    True only when every observed density equals its target, which can
    only happen at admissible lengths.
    """

    tau: Perm
    length: int
    admissible_length: bool
    required: dict
    observed: dict
    observed_counts: dict
    verdict: bool


def check_3_inflatable(tau: PermLike) -> InflatabilityReport:
    """Full 3-inflatability test with the evidence it rests on.

    Lengths 1 and 2 are handled as degenerate cases: length 1 passes
    (every density condition is vacuous), length 2 fails (a single pair
    cannot have density 1/2).
    """
    t = as_perm(tau)
    n = t.n
    if n == 1:
        required = {}
    elif n == 2:
        required = {_P12: Fraction(1, 2)}
    else:
        required = target_densities_3(n)
    tables = _occurrences(t, min(n, 3))
    observed_counts = {p: tables[p.n].get(p, 0) for p in required}
    observed = {p: Fraction(c, comb(n, p.n)) for p, c in observed_counts.items()}
    admissible = n == 1 or (n >= 3 and target_counts_3(n) is not None)
    verdict = admissible and all(observed[p] == required[p] for p in required)
    return InflatabilityReport(
        tau=t,
        length=n,
        admissible_length=admissible,
        required=required,
        observed=observed,
        observed_counts=observed_counts,
        verdict=verdict,
    )


def admissible_residues(modulus: int = 144) -> list[int]:
    """Residues r mod modulus such that every n = r (mod modulus) is admissible.

    The admissible set mod 144 is read off target_counts_3 over one period,
    144 <= n < 288 (the tests pin that the rule has period 144). A residue r
    is kept only when every lift of r in one period of lcm(modulus, 144)
    lands in that set.

    >>> admissible_residues()
    [0, 1, 17, 64, 80, 81]
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    base = {n % 144 for n in range(144, 288) if target_counts_3(n) is not None}
    period = lcm(modulus, 144)
    return [
        r
        for r in range(modulus)
        if all(s % 144 in base for s in range(r, period + r, modulus))
    ]


def residue_multiplication_table() -> dict:
    """Products of the admissible residues mod 144, as a nested map.

    table[r][s] = (r * s) mod 144. The admissible set is closed under this
    product, matching the closure of inflation (lengths multiply).
    """
    rs = admissible_residues(144)
    return {r: {s: (r * s) % 144 for s in rs} for r in rs}


def compose_inflatables(tau1: PermLike, tau2: PermLike) -> Perm:
    """Inflate one 3-inflatable permutation by another.

    Both inputs are re-checked; a failing input is named in the error. The
    product of 3-inflatable permutations is 3-inflatable, which makes the
    admissible lengths a multiplicative structure.
    """
    t1 = as_perm(tau1)
    t2 = as_perm(tau2)
    for label, t in (("first", t1), ("second", t2)):
        if not check_3_inflatable(t).verdict:
            raise ValueError(
                f"{label} input {format_permutation(t)} is not 3-inflatable"
            )
    return inflate(t1, t2)

"""Permutations, inflation constructions, and exact pattern counting.

Permutations are 1-based: a permutation of length n contains each of 1..n
exactly once, held in one-line notation. All densities are exact
``fractions.Fraction`` values; nothing in this module touches floats.

Two text styles are supported. Compact writes one symbol per value, digits
1-9 then A-Z, so it caps at length 35 ("312", "G54ABC319HF678ED2"). Comma
style has no length cap ("3,1,2").
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, isqrt
from operator import attrgetter, index, mul, sub

__all__ = [
    "COMPACT_MAX",
    "Perm",
    "PermLike",
    "PatternCounts3",
    "as_perm",
    "parse_permutation",
    "format_permutation",
    "pattern_of",
    "inflate",
    "generalized_inflate",
    "rotate",
    "is_centrally_symmetric",
    "count_occurrences",
    "density",
    "count_length3_all",
    "all_patterns",
    "PATTERNS_3",
]

_COMPACT_SYMBOLS = "123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_COMPACT_VALUE = {ch: i + 1 for i, ch in enumerate(_COMPACT_SYMBOLS)}

COMPACT_MAX = 35


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting a field of a frozen record."""


def _record(cls):
    """Make cls a frozen record of its annotated fields, as the standard
    library's ``@dataclass(frozen=True)`` would, without its import, which
    pulls inspect, ast and dis into every start.

    The class gets an ``__init__`` taking the fields in order, with the
    class defaults as defaults, a ``Name(field=value, ...)`` repr,
    ``__eq__`` over the field tuple for records of the same class, a hash
    of that tuple, and ``__match_args__``. Any assignment or deletion
    raises FrozenInstanceError.
    """
    names = tuple(cls.__annotations__)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    # __init__ is compiled for each class, so that building a record (one
    # per Monte Carlo exact-mode sample) binds its arguments as any call does
    params = "".join(f", {f}=_d[{f!r}]" if f in defaults else f", {f}" for f in names)
    body = "\n    ".join(f"_set(self, {f!r}, {f})" for f in names)
    scope = {"_d": defaults, "_set": object.__setattr__}
    exec(f"def __init__(self{params}):\n    {body}", scope)
    fields = attrgetter(*names)

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (scope["__init__"], __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def _validate_values(values: Sequence) -> Sequence:
    """values, as exact ints, if they are 1..n in some order; else ValueError."""
    if not values:
        raise ValueError("permutation must be non-empty")
    # the type pass runs at C speed, and exact ints need no per-value check
    if set(map(type, values)) == {int}:
        return _validate_ints(values)
    return _validate_each(values)


def _validate_ints(values: Sequence[int]) -> Sequence[int]:
    """values, non-empty and all exact ints, if they are 1..n in some order.

    Any failure runs _validate_each, for its first error.
    """
    n = len(values)
    seen = [False] * (n + 1)
    for v in values:
        if not 0 < v <= n or seen[v]:
            return _validate_each(values)
        seen[v] = True
    return values


def _validate_each(values: Sequence) -> Sequence:
    """The full check, entry by entry: the first error, or values as plain ints."""
    n = len(values)
    seen = [False] * (n + 1)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"permutation entries must be integers, got {v!r}")
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range 1..{n}")
        if seen[v]:
            raise ValueError(f"duplicate value {v}")
        seen[v] = True
    # an int subclass is held as the int it equals, so that every Perm
    # formats, hashes and computes as plain ints do
    return tuple(map(index, values))


def _integer(name: str, value) -> int:
    """value as an int, by operator.index; a bool raises ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a bool")
    return index(value)


class Perm(tuple):
    """A permutation of {1, ..., n} in one-line notation.

    Behaves as a tuple of ints. Construction validates that the values are
    exactly 1..n, and holds an int subclass's values as plain ints. Strings
    are parsed in either text style:

    >>> Perm("312") == Perm((3, 1, 2)) == Perm("3,1,2")
    True
    """

    __slots__ = ()

    def __new__(cls, values: str | Iterable[int]) -> "Perm":
        if isinstance(values, str):
            return parse_permutation(values)
        return super().__new__(cls, _validate_values(tuple(values)))

    @property
    def n(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"Perm({format_permutation(self)!r})"

    def __str__(self) -> str:
        return format_permutation(self)


PermLike = Perm | str | Sequence[int]


def as_perm(p: PermLike) -> Perm:
    """Coerce a Perm, text form, or integer sequence to a Perm."""
    if isinstance(p, Perm):
        return p
    return Perm(p)


def parse_permutation(text: str) -> Perm:
    """Parse either text style.

    Comma style is used when the string contains a comma; otherwise every
    character must be a compact symbol. Mixed styles are rejected.

    A comma-style entry is what int() reads, less its "+" sign and "_"
    separators: an optional "-" and decimal digits, Unicode ones included,
    with whitespace around them. A JSON read of the whole text sits in front
    of that grammar. It keeps its result only when every entry is an int,
    which JSON gives only for "-?(0|[1-9][0-9]*)" entries with space, tab,
    LF or CR around them, each the value int() reads; any other text is read
    entry by entry, so every error is int()'s or names the bad entry.

    >>> parse_permutation("G54ABC319HF678ED2").n
    17
    """
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    if "," in s:
        import json

        try:
            values = json.loads(f"[{s}]")
        except (ValueError, RecursionError):
            values = ()
        if set(map(type, values)) != {int}:
            # an entry is an optional "-" and decimal digits; int() raises
            # only its own cap on the digits of one entry
            entries = [p.strip() for p in s.split(",")]
            bad = next((p for p in entries if not p.removeprefix("-").isdecimal()), None)
            if bad is not None:
                raise ValueError(f"malformed comma-style entry {bad!r} in {text!r}")
            values = tuple(map(int, entries))
    else:
        try:
            values = tuple(map(_COMPACT_VALUE.__getitem__, s))
        except KeyError as exc:
            raise ValueError(
                f"invalid character {exc.args[0]!r} in compact permutation {text!r}"
            ) from None
    # every branch above yields a non-empty run of exact ints
    return tuple.__new__(Perm, _validate_ints(values))


def format_permutation(p: PermLike, style: str = "auto") -> str:
    """Render a permutation as text.

    style is "compact", "comma", or "auto" (compact when length allows).
    Compact style is only defined up to length 35.
    """
    q = as_perm(p)
    if style == "auto":
        style = "compact" if q.n <= COMPACT_MAX else "comma"
    if style == "compact":
        if q.n > COMPACT_MAX:
            raise ValueError(f"compact style caps at length {COMPACT_MAX}, got {q.n}")
        return "".join(_COMPACT_SYMBOLS[v - 1] for v in q)
    if style == "comma":
        import json

        return json.dumps(q, separators=(",", ":"))[1:-1]
    raise ValueError(f"unknown style {style!r}")


def _echo_text(text: str, p: Perm) -> str:
    """format_permutation(p), for p as parse_permutation(text) read it.

    A text longer than COMPACT_MAX entries is comma style, and when its
    stripped form s is ASCII and as long as the comma text of 1..n, s is
    returned as it is, with no pass over p. That s is then the canonical
    text byte for byte: the parser read each of its n entries as an
    optional "-" and decimal digits with whitespace around them, and
    checked that the values are 1..n. Every entry is at least as long as
    its value's canonical digits; a sign, whitespace or a leading zero
    makes it longer, and a non-ASCII digit fails isascii. The n - 1 commas
    are fixed, so a text of the canonical length has every entry
    canonical. Any other text is printed afresh.
    """
    n = p.n
    if n > COMPACT_MAX:
        s = text.strip()
        # n - 1 commas and the digits of 1..n: with d the digits of n, each
        # k <= d counts one digit for every value >= 10**(k - 1)
        d = len(str(n))
        if s.isascii() and len(s) == n - 1 + d * (n + 1) - (10**d - 1) // 9:
            return s
    return format_permutation(p)


def pattern_of(values: Sequence[int]) -> Perm:
    """The pattern (rank sequence) of a list of distinct integers.

    >>> pattern_of((4, 7, 2))
    Perm('231')
    """
    if len(set(values)) != len(values):
        raise ValueError("values must be distinct")
    if not values:
        raise ValueError("values must be non-empty")
    return _pattern(values)


def _pattern(values: Sequence[int]) -> Perm:
    """pattern_of for values already known to be distinct and non-empty.

    The ranks of distinct values are a permutation by construction, so the
    result skips Perm's validation.
    """
    return _from_argsort(sorted(range(len(values)), key=values.__getitem__))


def _from_argsort(order: Sequence[int]) -> Perm:
    """The pattern whose argsort is order: position order[r - 1] holds rank r."""
    ranks = [0] * len(order)
    for r, idx in enumerate(order, start=1):
        ranks[idx] = r
    return tuple.__new__(Perm, ranks)


def inflate(tau: PermLike, gamma: PermLike) -> Perm:
    """Uniform inflation: replace every entry of tau by a copy of gamma.

    The result has length |tau| * |gamma|; position (i-1)m + j holds
    m*(tau_i - 1) + gamma_j where m = |gamma|. Block i occupies consecutive
    positions and its values form the interval the rank of tau_i selects.

    >>> inflate("12", "312")
    Perm('312645')
    """
    t = as_perm(tau)
    g = as_perm(gamma)
    m = g.n
    # each block's base is worked out once, not once per cell
    return tuple.__new__(Perm, [b + gv for b in [m * (tv - 1) for tv in t] for gv in g])


def generalized_inflate(tau: PermLike, blocks: Sequence[PermLike]) -> Perm:
    """Inflate entry i of tau by its own block gamma_i.

    Block i sits at consecutive positions, and the value intervals are
    stacked in the order given by the ranks of tau: the block at the entry
    with rank r gets the r-th lowest interval.

    >>> generalized_inflate("231", ("12", "213", "1"))
    Perm('235461')
    """
    t = as_perm(tau)
    gs = [as_perm(b) for b in blocks]
    if len(gs) != t.n:
        raise ValueError(f"expected {t.n} blocks, got {len(gs)}")
    # walk the entries of tau by increasing value: each block starts where
    # the blocks of all smaller entries end
    offsets = [0] * t.n
    off = 0
    for i in sorted(range(t.n), key=t.__getitem__):
        offsets[i] = off
        off += gs[i].n
    out: list[int] = []
    for i, g in enumerate(gs):
        out.extend(offsets[i] + gv for gv in g)
    return tuple.__new__(Perm, out)


def rotate(pi: PermLike) -> Perm:
    """Rotate the plot of pi by 180 degrees: R(pi)_i = n+1 - pi_{n+1-i}.

    An involution. Fixed points are the centrally symmetric permutations.
    """
    p = as_perm(pi)
    n = p.n
    return tuple.__new__(Perm, [n + 1 - v for v in reversed(p)])


def is_centrally_symmetric(pi: PermLike) -> bool:
    p = as_perm(pi)
    n = p.n
    # check i paired with n+1-i; center (odd n) is forced automatically
    return all(p[i] + p[n - 1 - i] == n + 1 for i in range((n + 1) // 2))


def count_occurrences(pi: PermLike, tau: PermLike) -> int:
    """Number of occurrences of pattern pi in tau, by direct enumeration.

    Reference implementation: iterates all C(|tau|, |pi|) index subsets.
    Returns 0 when |pi| > |tau|. Intended as the oracle the optimized
    counters are tested against; cost grows binomially.
    """
    p = as_perm(pi)
    t = as_perm(tau)
    k = p.n
    if k > t.n:
        return 0
    target = tuple(p)
    count = 0
    for sub in combinations(t, k):
        order = sorted(range(k), key=sub.__getitem__)
        ranks = [0] * k
        for r, idx in enumerate(order, start=1):
            ranks[idx] = r
        if tuple(ranks) == target:
            count += 1
    return count


def density(pi: PermLike, tau: PermLike) -> Fraction:
    """Pattern density t(pi, tau) = occurrences / C(|tau|, |pi|), exact.

    The count is read from the host's occurrence tables (_occurrences), so
    every pattern of one length on one host shares a single count.

    >>> density("12", "132")
    Fraction(2, 3)
    """
    p = as_perm(pi)
    t = as_perm(tau)
    if p.n > t.n:
        raise ValueError(
            f"density undefined: pattern length {p.n} exceeds host length {t.n}"
        )
    return Fraction(_occurrences(t, p.n)[p.n].get(p, 0), comb(t.n, p.n))


# a few hosts at once: enough for a check and a limit sum on the same host,
# while a long host counted once is soon let go
@lru_cache(maxsize=4)
def _host_tables(tau: Perm) -> dict:
    """One host's memo: length -> occurrence counts, closed downward (_fill),
    and ("limit", k) -> (profile, limit densities) (limits._limit_table)."""
    return {}


# every module-level memo of the package that has run: limits registers its
# own as it runs, so clearing them imports no module
_MEMOS = [_host_tables]


def _clear_memos() -> None:
    """Empty every module-level memo, so that the next call counts afresh."""
    for memo in _MEMOS:
        memo.cache_clear()


def _occurrences(tau: Perm, s: int) -> dict:
    """tau's memo (_host_tables), filled with the counts of every length 1..s.

    memo[j] maps each length-j pattern that occurs to its count; do not
    change those. A caller reads it once, at its longest length: a hit
    hashes the host once and tests one key. Factors of a composed host are
    filled into dicts of their own, so they take no host's place here.
    """
    tables = _host_tables(tau)
    if s not in tables:
        _fill(tau, s, tables)
    return tables


# every table _fill makes is keyed by these; built once, not validated per fill
_P1, _P12, _P21 = Perm((1,)), Perm((1, 2)), Perm((2, 1))


def _fill(tau: Perm, s: int, tables: dict) -> None:
    """Add tau's occurrence counts of every length 1..s to tables.

    The one place that decides how a host is counted, and the one fill
    rule: a length is present only with every shorter one. At s >= 2 a host
    inflate(tau1, tau2) (_split_inflation) gets every length up to max(s, 3)
    at once: an occurrence of pi picks an occurrence of some rho in tau1
    and, in the i-th block it picks, one of some alpha_i in tau2, with
    pi = rho[alpha_1, ..., alpha_m]; so occ(pi) is the forward sum of
    _inflation_sums over the factors' tables, each filled here through the
    same length into a fresh dict. Any other host is counted directly, in
    order: length 1 occurs |tau| times, lengths 2 and 3 on hosts of length
    >= 3 come from one count_length3_all call, and each other length is one
    pass over the C(|tau|, j) index subsets that turns each distinct
    argsort into its pattern once.
    """
    split = _split_inflation(tau) if s > 1 else None
    if split is not None:
        top = max(s, 3)
        factors = ({}, {})
        for f, counts in zip(split, factors):
            _fill(f, top, counts)
        tables.update({j: _inflation_sums(j, *factors) for j in range(1, top + 1)})
        return
    tables[1] = {_P1: tau.n}
    if s > 1 and tau.n >= 3 and 3 not in tables:
        pc = count_length3_all(tau)
        tables[2] = {_P12: pc.inv12, _P21: pc.inv21}
        tables[3] = pc.counts
    for j in range(2, s + 1):
        if j not in tables:
            keys = Counter(tuple(sorted(range(j), key=q.__getitem__)) for q in combinations(tau, j))
            tables[j] = {_from_argsort(key): c for key, c in keys.items()}


def _proper_divisors(n: int) -> list[int]:
    """The divisors m of n with 1 < m < n, in increasing order."""
    small = [m for m in range(2, isqrt(n) + 1) if n % m == 0]
    return small + [n // m for m in reversed(small) if m * m != n]


def _split_inflation(tau: Perm):
    """(tau1, tau2) with tau = inflate(tau1, tau2) and |tau1|, |tau2| > 1, or None.

    Tries each divisor m of n, smallest first. The first m positions must
    hold the values of an interval; their pattern is tau2. Then every block
    of m positions must hold those values shifted by the same amount, read
    off its first entry: so each column j (positions j, j + m, ...) is the
    first column plus tau2[j] - tau2[0], one pass over each column. The blocks
    then hold disjoint intervals of m values, which can only be the aligned
    ones, and tau1 ranks them. The whole search is O(n d(n)).
    """
    n = len(tau)
    for m in _proper_divisors(n):
        first = tau[:m]
        low = min(first) - 1
        if max(first) - low != m:
            continue
        heads = tau[::m]
        # differences within a block are below m: for m < 257 they are
        # ints Python keeps cached, so the pass allocates none
        if all(set(map(sub, tau[j::m], heads)) == {v - first[0]} for j, v in enumerate(first)):
            g0 = first[0] - low
            outer = tuple((h - g0) // m + 1 for h in heads)
            return tuple.__new__(Perm, outer), tuple.__new__(Perm, (v - low for v in first))
    return None


def _inflation_sums(k: int, outer: dict, inner: dict) -> dict:
    """pi -> sum of outer[rho] * prod inner[alpha_i] over pi = rho[alpha_1, ..., alpha_m].

    outer and inner map a length to {pattern: int weight}; a pattern
    missing there weighs 0. Each block partition of each length-k pi is one
    way to write pi as rho[alpha_1, ..., alpha_m], and this builds each
    once, forward: every rho, every composition of k into m = |rho| block
    sizes, and every choice of inner patterns of those sizes. So no
    partition is searched for and no pattern is rebuilt to be checked. A
    pi that no term reaches is missing from the result.
    """
    sums: dict = {}
    for m in range(1, k + 1):
        rhos = outer.get(m)
        if not rhos:
            continue
        for cuts in combinations(range(1, k), m - 1):
            bounds = (0, *cuts, k)
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            blocks = [[(a, w) for a, w in inner.get(c, {}).items() if w] for c in sizes]
            if not all(blocks):
                continue
            for rho, weight in rhos.items():
                if not weight:
                    continue
                # the block at entry i of rho sits above the blocks of every
                # smaller entry, as in generalized_inflate
                base = [0] * m
                low = 0
                for i in sorted(range(m), key=rho.__getitem__):
                    base[i] = low
                    low += sizes[i]
                choices = [
                    [(tuple(b + v for v in alpha), w) for alpha, w in block]
                    for b, block in zip(base, blocks)
                ]
                for combo in product(*choices):
                    key = ()
                    term = weight
                    for part, w in combo:
                        key += part
                        term *= w
                    sums[key] = sums.get(key, 0) + term
    return {tuple.__new__(Perm, key): c for key, c in sums.items()}


def all_patterns(k: int) -> list[Perm]:
    """All permutations of length k in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [tuple.__new__(Perm, p) for p in permutations(range(1, k + 1))]


PATTERNS_3 = tuple(all_patterns(3))


@_record
class PatternCounts3:
    """All six length-3 pattern counts of one permutation, plus pair counts.

    counts maps each element of PATTERNS_3 to its occurrence count; inv12
    and inv21 count ascending and descending pairs.
    """

    n: int
    counts: dict
    inv12: int
    inv21: int

    def density_of(self, pi: PermLike) -> Fraction:
        """The density of pi, a pattern of length 2 or 3, in the counted host."""
        p = as_perm(pi)
        if p.n not in (2, 3):
            raise ValueError(f"density_of takes a pattern of length 2 or 3, got length {p.n}")
        if p.n == 2:
            c = self.inv12 if p == Perm((1, 2)) else self.inv21
            return Fraction(c, comb(self.n, 2))
        return Fraction(self.counts[p], comb(self.n, 3))


def count_length3_all(tau: PermLike) -> PatternCounts3:
    """Count all six length-3 patterns and both length-2 patterns at once.

    Each position i (0-based) with value v splits the other points into
    four groups: smaller or larger values, to its left or to its right
    (ls, ll, rs, rl). One pass builds the rank vector r, r_i = ls, by a
    bisect on the sorted prefix; the other three follow from it, as
    ll = i - r, rs = v - 1 - r and rl = n - v - i + r. With the position in
    the middle, ls*rl triples form 123 and ll*rs form 321; C(rl,2),
    C(ls,2), C(ll,2) and C(rs,2) count the triples in which it is the
    lowest and first, highest and last, lowest and last, and highest and
    first point, each the sum of a monotone pattern and another one. Every
    term is a polynomial of degree <= 2 in (i, v, r), so the counts need
    only five sums over the positions, S = sum r, Q = sum r^2,
    Si = sum r*i, Sv = sum r*v and P = sum i*v, each one C-level pass in
    exact integers, and the closed forms of sum i and sum i^2 (v - 1 runs
    over the same values as i). O(n log n) comparisons; the sorted-prefix
    insertions move O(n^2) words, which is what dominates on long hosts.
    """
    t = as_perm(tau)
    n = t.n
    if n < 3:
        raise ValueError(f"need length >= 3, got {n}")
    ranks: list[int] = []
    prefix: list[int] = []
    for v in t:
        ranks.append(bisect_left(prefix, v))
        insort(prefix, v)
    pos = range(n)
    S = sum(ranks)
    Q = sum(map(mul, ranks, ranks))
    Si = sum(map(mul, ranks, pos))
    Sv = sum(map(mul, ranks, t))
    P = sum(map(mul, pos, t))
    # sum of i and of i^2 over 0..n-1; v - 1 runs over the same values
    I1 = n * (n - 1) // 2
    I2 = I1 * (2 * n - 1) // 3
    c123 = n * S - Sv - Si + Q
    c321 = P - I1 - Si - Sv + S + Q
    # each other pattern is sum C(x, 2) for x one of rl, ls, ll, rs, less a
    # monotone count; sum C(x, 2) = (sum x^2 - sum x) / 2, with
    # sum rl = sum ls = S and sum ll = sum rs = I1 - S
    by_pattern = (
        c123,
        I2 - n * I1 + P - (Q + S) // 2,
        (Q - S) // 2 - c123,
        (I2 - I1 - 2 * Si + S + Q) // 2 - c321,
        (I2 - I1 - 2 * Sv + 3 * S + Q) // 2 - c321,
        c321,
    )
    counts = dict(zip(PATTERNS_3, by_pattern))
    return PatternCounts3(n=n, counts=counts, inv12=S, inv21=I1 - S)


def five_sums_of_targets(n: int, tv: tuple) -> tuple:
    """(S, Q, Si, Sv, P) of every length-n permutation with the count
    vector tv (the six length-3 counts, then the ascending pairs): the
    closed forms of count_length3_all, inverted."""
    c123, c132, c213, c231, c312, c321, s = tv
    i1 = comb(n, 2)
    i2 = i1 * (2 * n - 1) // 3  # the sum of i^2
    q = 2 * (c123 + c213) + s
    h = (i2 - i1 + s + q) // 2
    return s, q, h - c231 - c321, h + s - c312 - c321, c132 - i2 + n * i1 + (q + s) // 2

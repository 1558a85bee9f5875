import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflatable import core
from inflatable import (
    PATTERNS_3,
    Perm,
    all_patterns,
    check_3_inflatable,
    count_length3_all,
    count_occurrences,
    density,
    format_permutation,
    generalized_inflate,
    inflate,
    is_centrally_symmetric,
    parse_permutation,
    pattern_of,
    rotate,
)
from util import brute_counts3, per_position_counts3, random_perm, record_count3_calls


def test_parse_compact_and_comma_agree():
    assert parse_permutation("312") == Perm((3, 1, 2))
    assert parse_permutation("3,1,2") == Perm((3, 1, 2))
    assert parse_permutation("G54ABC319HF678ED2").n == 17
    assert parse_permutation("E534BGA9HC2D1687F").n == 17


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError, match="duplicate"):
        parse_permutation("122")
    with pytest.raises(ValueError, match="out of range"):
        parse_permutation("1,2,9")
    with pytest.raises(ValueError, match="invalid character"):
        parse_permutation("1a2")
    with pytest.raises(ValueError):
        parse_permutation("1,,2")
    with pytest.raises(ValueError):
        parse_permutation("0,1")
    # int() reads a "+" sign and "_" separators; the comma style does not
    with pytest.raises(ValueError, match="malformed"):
        parse_permutation("+1,2")
    with pytest.raises(ValueError, match="malformed"):
        parse_permutation("1_0,9,8,7,6,5,4,3,2,1")
    assert parse_permutation("1, 2") == Perm((1, 2))
    with pytest.raises(ValueError, match="non-empty"):
        Perm(())
    with pytest.raises(ValueError, match="must be integers"):
        Perm([1.0])


def test_parse_keeps_ints_own_error_past_its_digit_cap():
    # an entry of decimal digits that int() refuses for its length is not
    # malformed: int()'s own message, naming the cap, goes through
    cap = sys.get_int_max_str_digits()
    if not cap:
        pytest.skip("int() has no digit cap in this interpreter")
    with pytest.raises(ValueError, match=rf"limit \({cap} digits\)"):
        parse_permutation("1," + "2" * (cap + 1))


def test_format_round_trip():
    rng = random.Random(11)
    for n in (1, 2, 9, 35, 36, 80):
        p = random_perm(rng, n)
        assert parse_permutation(format_permutation(p, "comma")) == p
        if n <= 35:
            assert parse_permutation(format_permutation(p, "compact")) == p
        else:
            with pytest.raises(ValueError, match="compact"):
                format_permutation(p, "compact")
    with pytest.raises(ValueError, match="unknown style"):
        format_permutation("12", style="x")


class Loud(int):
    """An int that prints as something else."""

    def __str__(self):
        return f"loud {int(self)}"

    __repr__ = __str__


def old_validate(values) -> None:
    """Validation by one per-value loop, with no type pass in front: the
    reference for the outcome and first error of core._validate_values."""
    n = len(values)
    if n == 0:
        raise ValueError("permutation must be non-empty")
    seen = [False] * (n + 1)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"permutation entries must be integers, got {v!r}")
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range 1..{n}")
        if seen[v]:
            raise ValueError(f"duplicate value {v}")
        seen[v] = True


def old_parse(text: str) -> Perm:
    """The entry-by-entry parser, with no JSON read in front: the reference
    for every text parse_permutation accepts and every error it raises."""
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    if "," in s:
        parts = s.split(",")
        try:
            if "+" in s or "_" in s:
                raise ValueError
            values = tuple(map(int, parts))
        except ValueError:
            entries = map(str.strip, parts)
            bad = next((p for p in entries if not p.removeprefix("-").isdecimal()), None)
            if bad is None:
                raise
            raise ValueError(f"malformed comma-style entry {bad!r} in {text!r}") from None
    else:
        try:
            values = tuple(map(core._COMPACT_VALUE.__getitem__, s))
        except KeyError as exc:
            raise ValueError(
                f"invalid character {exc.args[0]!r} in compact permutation {text!r}"
            ) from None
    old_validate(values)
    return tuple.__new__(Perm, values)


def outcome(call, arg):
    """("ok", result) or the exception's type and message."""
    try:
        return "ok", call(arg)
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)


FUZZ_TOKENS = (
    *"0123456789", ",", " ", "\t", "\n", "\r", "\x0b", "-", "+", "_", ".", "e",
    "[", "]", "{", '"', "true", "٢",
)


def fuzz_texts(rng: random.Random, count: int) -> list:
    """count texts: a third random token strings, a third permutations
    (some with a wrong value) written with random signs, zeros, whitespace
    and JSON values of other types, a third those with one to three tokens
    put in or replaced."""
    pads = ("",) * 30 + (" ", "\t", "\n", "\r", "\x0b")
    forms = ("{}.0", "{}e0", "[{}]", '"{}"', "true", "{}.", "-{}", "0{}", "{}_0", "+{}")
    texts = []
    for i in range(count):
        if i % 3 == 0:
            texts.append("".join(rng.choices(FUZZ_TOKENS, k=rng.randint(1, 12))))
            continue
        n = rng.randint(2, 12)
        values = rng.sample(range(1, n + 1), n)
        if rng.random() < 0.2:
            values[rng.randrange(n)] = rng.choice((0, -1, n + 1, values[0]))
        entries = [
            rng.choice(pads)
            + (rng.choice(forms) if rng.random() < 0.02 else "{}").format(v)
            + rng.choice(pads)
            for v in values
        ]
        text = ",".join(entries)
        if i % 3 == 2:
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(chars) + 1)
                chars[at:at + rng.randint(0, 1)] = [rng.choice(FUZZ_TOKENS)]
            text = "".join(chars)
        texts.append(text)
    return texts


def test_comma_parser_matches_the_entry_by_entry_oracle():
    cap = sys.get_int_max_str_digits() or 4300
    deep = "[" * 100_000
    explicit = [
        "01,2", "1,02", "00,1", "-0,1", "1,-0", "0,1", "-1,1", "2,1", " 2 ,\t1\n",
        "\x0b2,1", "2\x0b,1", "٢,1", "1,٢", "2,+1", "2,1_0", "1.0,2", "1e0,2",
        "true,1", "[1],2", "[1,2]", "{},1", '"1",2', "NaN,1", "Infinity,1", "null,1",
        "1,,2", ",1", "1,", "1 2,3", "-,1", "1," + "1" * (cap + 1),
        deep + "1,2" + "]" * 100_000, deep + ",",
    ]
    texts = explicit + fuzz_texts(random.Random(35), 3000)
    parsed = 0
    for text in texts:
        expected = outcome(old_parse, text)
        got = outcome(parse_permutation, text)
        assert got == expected, text
        if got[0] == "ok":
            parsed += 1
            assert type(got[1]) is Perm and {type(v) for v in got[1]} == {int}
    # the deep nesting is malformed, not a RecursionError
    assert outcome(parse_permutation, deep + ",")[0] is ValueError
    # both parsers' paths are walked: JSON's and the entry-by-entry one
    assert 600 < parsed < len(texts) - 600


def long_texts(rng: random.Random) -> list:
    """Comma texts of permutations of lengths 36 to 1100, the digit-count
    boundaries among them: each canonical, spelled with fuzz_texts' pads
    around the whole, or with one to three entries spelled as fuzz_texts
    spells them (pads, signs, leading zeros, "٢" for 2, "+", "_")."""
    pads = (" ", "\t", "\n", "\r", "\x0b")
    forms = ("-{}", "0{}", "{}_0", "+{}", "00{}", "-0{}")
    # each boundary takes all four spellings below
    lengths = [n for n in (36, 99, 100, 101, 999, 1000, 1001) for _ in range(4)]
    lengths += [rng.randint(36, 1100) for _ in range(150)]
    texts = []
    for i, n in enumerate(lengths):
        entries = [str(v) for v in rng.sample(range(1, n + 1), n)]
        if i % 4 == 1:
            at = entries.index("2")
            entries[at] = "٢"
        elif i % 4 == 2:
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(n)
                form = rng.choice(forms) if rng.random() < 0.5 else rng.choice(pads) + "{}"
                entries[at] = form.format(entries[at])
        text = ",".join(entries)
        if i % 4 == 3:
            text = rng.choice(pads) + text + rng.choice(("",) + pads)
        texts.append(text)
    return texts


def test_echoed_text_is_the_printed_form(monkeypatch):
    # a parsed text is echoed as given exactly when its stripped form is
    # the canonical text; every other text is printed afresh, the short
    # ones of fuzz_texts among them
    reprinted = []

    def spy(p, style="auto"):
        reprinted.append(p)
        return format_permutation(p, style)

    monkeypatch.setattr(core, "format_permutation", spy)
    echoed = fresh = 0
    for text in long_texts(random.Random(38)) + fuzz_texts(random.Random(35), 3000):
        try:
            p = parse_permutation(text)
        except ValueError:
            continue
        want = format_permutation(p)
        before = len(reprinted)
        assert core._echo_text(text, p) == want, text[:80]
        was_echoed = len(reprinted) == before
        assert was_echoed == (p.n > core.COMPACT_MAX and text.strip() == want), text[:80]
        echoed += was_echoed
        fresh += not was_echoed
    assert echoed > 50 and fresh > 600


def test_validation_matches_the_per_value_loop():
    pool = (0, 1, 2, 3, -1, True, False, 1.0, 2.5, Loud(1), Loud(2), "1", None)
    inputs = [()] + [v for k in (1, 2, 3) for v in product(pool, repeat=k)]
    accepted = 0
    for values in inputs:
        expected = outcome(old_validate, values)
        got = outcome(core._validate_values, values)
        if expected == ("ok", None):
            accepted += 1
            assert got[0] == "ok" and got[1] == values, values
            assert {type(v) for v in got[1]} == {int}
        else:
            assert got == expected, values
    assert accepted > 10


def assert_comma_round_trip(p: Perm) -> None:
    text = format_permutation(p, "comma")
    assert text == ",".join(map(str, p))
    assert parse_permutation(text) == p


@settings(max_examples=100, deadline=None)
@given(values=st.integers(1, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_comma_text_is_each_value_joined(values):
    assert_comma_round_trip(Perm(values))


def test_comma_text_round_trips_a_17_4_composition():
    e1, e2 = Perm("G54ABC319HF678ED2"), Perm("E534BGA9HC2D1687F")
    host = inflate(inflate(e1, e2), inflate(e2, e1))
    assert host.n == 83_521
    assert_comma_round_trip(host)


def test_a_perm_holds_an_int_subclass_as_plain_ints():
    # so its text is the ints' own, whatever the subclass prints
    p = Perm((Loud(2), Loud(3), Loud(1)))
    assert p == (2, 3, 1) and {type(v) for v in p} == {int}
    assert format_permutation(p, "comma") == "2,3,1"
    assert str(p) == "231"


def test_format_compact_symbols():
    # value 10 and up use letters
    p = Perm(tuple(range(1, 18)))
    assert format_permutation(p) == "123456789ABCDEFGH"


def test_pattern_of():
    assert pattern_of((4, 7, 2)) == Perm("231")
    assert pattern_of((10,)) == Perm("1")
    with pytest.raises(ValueError):
        pattern_of((3, 3))
    with pytest.raises(ValueError, match="non-empty"):
        pattern_of(())
    with pytest.raises(ValueError, match="k must be >= 1"):
        all_patterns(0)


def test_inflate_worked_examples():
    assert inflate("12", "312") == Perm("312645")
    assert inflate("312", "12") == Perm("561234")
    assert inflate("1", "2413") == Perm("2413")
    assert inflate("21", "1") == Perm("21")


def test_inflate_block_structure():
    rng = random.Random(3)
    for _ in range(25):
        t = random_perm(rng, rng.randint(1, 6))
        g = random_perm(rng, rng.randint(1, 6))
        out = inflate(t, g)
        m = g.n
        assert out.n == t.n * m
        for i in range(t.n):
            block = out[i * m:(i + 1) * m]
            # each block is a copy of g occupying one value interval
            assert pattern_of(block) == g
            assert max(block) - min(block) + 1 == m
            assert min(block) == m * (t[i] - 1) + 1
        # the blocks, as intervals, are ordered like t
        assert pattern_of([out[i * m] for i in range(t.n)]) == pattern_of(t)


def test_generalized_inflate_examples():
    # uneven blocks; the block at the entry with rank r gets the r-th
    # lowest value interval
    assert generalized_inflate("231", ("12", "213", "1")) == Perm("235461")
    assert generalized_inflate("231", ("12", "231", "1")) == Perm("235641")
    assert generalized_inflate("21", ("1", "12")) == Perm("312")
    assert generalized_inflate("1", ("54321",)) == Perm("54321")


def test_generalized_inflate_matches_uniform():
    rng = random.Random(5)
    for _ in range(20):
        t = random_perm(rng, rng.randint(1, 5))
        g = random_perm(rng, rng.randint(1, 5))
        assert generalized_inflate(t, [g] * t.n) == inflate(t, g)


def test_generalized_inflate_definition_properties():
    rng = random.Random(6)
    for _ in range(30):
        t = random_perm(rng, rng.randint(1, 5))
        blocks = [random_perm(rng, rng.randint(1, 4)) for _ in range(t.n)]
        out = generalized_inflate(t, blocks)
        sizes = [b.n for b in blocks]
        assert out.n == sum(sizes)
        pos = 0
        starts = []
        for i, b in enumerate(blocks):
            seg = out[pos:pos + sizes[i]]
            assert pattern_of(seg) == b
            assert max(seg) - min(seg) + 1 == sizes[i]
            starts.append(min(seg))
            pos += sizes[i]
        assert pattern_of(starts) == pattern_of(t)


def test_generalized_inflate_block_count_mismatch():
    with pytest.raises(ValueError, match="blocks"):
        generalized_inflate("21", ("1",))


def test_rotate_on_s3():
    images = {"123": "123", "321": "321", "132": "213",
              "213": "132", "231": "312", "312": "231"}
    for src, dst in images.items():
        assert rotate(src) == Perm(dst)


def test_rotate_involution():
    rng = random.Random(7)
    for _ in range(50):
        p = random_perm(rng, rng.randint(1, 12))
        assert rotate(rotate(p)) == p


perms = st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1)))


@settings(max_examples=100, deadline=None)
@given(tau=perms, blocks=st.lists(perms, min_size=6, max_size=6))
def test_built_permutations_are_valid(tau, blocks):
    # inflate, generalized_inflate and rotate skip Perm's validation
    for out in (
        inflate(tau, blocks[0]),
        generalized_inflate(tau, blocks[: len(tau)]),
        rotate(tau),
    ):
        assert isinstance(out, Perm) and Perm(tuple(out)) == out


def test_central_symmetry():
    assert is_centrally_symmetric("472951836")
    assert is_centrally_symmetric("G54ABC319HF678ED2")
    assert not is_centrally_symmetric("E534BGA9HC2D1687F")
    assert is_centrally_symmetric("1")
    assert is_centrally_symmetric("21")
    assert not is_centrally_symmetric("312")
    # fixed points of rotation are exactly the centrally symmetric ones
    rng = random.Random(8)
    for _ in range(60):
        p = random_perm(rng, rng.randint(1, 9))
        assert is_centrally_symmetric(p) == (rotate(p) == p)


def test_count_occurrences_paper_values():
    tau = Perm("472951836")
    assert count_occurrences("132", tau) == 17
    assert count_occurrences("123", tau) == 8
    assert count_occurrences("12", "132") == 2
    assert count_occurrences("12", tau) == 18
    assert count_occurrences("1234", "123") == 0  # pattern longer than host
    assert count_occurrences("1", "54321") == 5


def test_density_examples():
    assert density("12", "132") == Fraction(2, 3)
    assert density("12", "472951836") == Fraction(1, 2)
    assert density("1", "312") == Fraction(1)
    with pytest.raises(ValueError):
        density("123", "12")
    # lengths 2 and 3 on hosts of length >= 3 come from the length-3
    # counter, everything else from the host's subset tally
    rng = random.Random(16)
    for k in range(1, 5):
        for pi in permutations(range(1, k + 1)):
            for n in range(k, 13):
                tau = random_perm(rng, n)
                assert density(pi, tau) == Fraction(count_occurrences(pi, tau), comb(n, k))


def test_occurrence_table_matches_count_occurrences():
    # one call at length s fills every length 1..s: every pattern of length
    # 1..5 on hosts of length 1..9, the hosts shorter than 3 and than s
    # included, each counted from a cleared memo
    rng = random.Random(17)
    for n in range(1, 10):
        for _ in range(2):
            tau = random_perm(rng, n)
            oracle = {k: {pi: count_occurrences(pi, tau) for pi in all_patterns(k)} for k in range(1, 6)}
            for s in range(1, 6):
                core._host_tables.cache_clear()
                tables = core._occurrences(tau, s)
                for k in range(1, s + 1):
                    assert sum(tables[k].values()) == comb(n, k)
                    assert {pi: tables[k].get(pi, 0) for pi in oracle[k]} == oracle[k]


def test_check_and_density_share_one_count(monkeypatch):
    calls = record_count3_calls(monkeypatch)
    host = Perm("G54ABC319HF678ED2")
    assert check_3_inflatable(host).verdict
    assert density("132", host) == Fraction(119, 680)
    assert calls == [host]


def test_count_length3_all_anchor():
    pc = count_length3_all("472951836")
    expected = {"123": 8, "132": 17, "213": 17, "231": 17, "312": 17, "321": 8}
    assert {str(k): v for k, v in pc.counts.items()} == expected
    assert pc.inv12 == 18
    assert pc.inv21 == 18
    assert sum(pc.counts.values()) == comb(9, 3)


def test_count_length3_all_matches_brute():
    rng = random.Random(12)
    for _ in range(120):
        p = random_perm(rng, rng.randint(3, 22))
        pc = count_length3_all(p)
        bc, b12, b21 = brute_counts3(p)
        assert pc.counts == bc
        assert (pc.inv12, pc.inv21) == (b12, b21)


@settings(max_examples=60, deadline=None)
@given(values=st.integers(3, 600).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_count_length3_all_matches_per_position_sums(values):
    # the rank-vector sums against the per-position loop, on hosts too long
    # for brute_counts3
    pc = count_length3_all(values)
    assert (pc.counts, pc.inv12, pc.inv21) == per_position_counts3(values)


def test_count_length3_all_extremes():
    # the identity and the reverse, short and at the Monte Carlo benchmark's
    # host length
    for n in (10, 450):
        up = count_length3_all(tuple(range(1, n + 1)))
        assert up.counts[Perm("123")] == comb(n, 3)
        assert sum(v for k, v in up.counts.items() if k != Perm("123")) == 0
        assert (up.inv12, up.inv21) == (comb(n, 2), 0)
        down = count_length3_all(tuple(range(n, 0, -1)))
        assert down.counts[Perm("321")] == comb(n, 3)
        assert sum(v for k, v in down.counts.items() if k != Perm("321")) == 0
        assert (down.inv12, down.inv21) == (0, comb(n, 2))
    with pytest.raises(ValueError):
        count_length3_all("12")


def test_density_of_helper():
    pc = count_length3_all("472951836")
    assert pc.density_of("12") == Fraction(1, 2)
    assert pc.density_of("132") == Fraction(17, 84)
    # only lengths 2 and 3 are counted; any other length is named, not a KeyError
    for pi, n in (("1", 1), ("1234", 4), ("21543", 5)):
        with pytest.raises(ValueError, match=f"got length {n}"):
            pc.density_of(pi)


def test_rotation_lemma_counts():
    # occurrences transport along the 180-degree rotation
    rng = random.Random(13)
    for _ in range(80):
        g = random_perm(rng, rng.randint(2, 10))
        k = rng.randint(1, min(4, g.n))
        p = random_perm(rng, k)
        assert count_occurrences(p, g) == count_occurrences(rotate(p), rotate(g))


def test_centrally_symmetric_count_pairing():
    # for centrally symmetric hosts the rotation fixes the host, so counts
    # pair up as 132 with 213 and 231 with 312 (123 and 321 are self-paired)
    rng = random.Random(14)
    cases = 0
    for _ in range(300):
        p = random_perm(rng, rng.randint(3, 7))
        if not is_centrally_symmetric(p):
            continue
        cases += 1
        pc = count_length3_all(p)
        assert pc.counts[Perm("132")] == pc.counts[Perm("213")]
        assert pc.counts[Perm("231")] == pc.counts[Perm("312")]
        assert pc.inv12 == count_occurrences("12", p)
    assert cases >= 3
    # directed example: counts are NOT forced equal across the 132/231 divide
    pc = count_length3_all((1, 4, 3, 2, 5))
    assert pc.counts[Perm("132")] == 3 and pc.counts[Perm("213")] == 3
    assert pc.counts[Perm("231")] == 0 and pc.counts[Perm("312")] == 0


def test_inflation_associativity():
    rng = random.Random(15)
    for _ in range(40):
        a = random_perm(rng, rng.randint(1, 4))
        b = random_perm(rng, rng.randint(1, 4))
        c = random_perm(rng, rng.randint(1, 4))
        assert inflate(inflate(a, b), c) == inflate(a, inflate(b, c))


def test_perm_is_a_tuple():
    p = Perm("312")
    assert isinstance(p, tuple)
    assert p[0] == 3 and len(p) == 3
    assert repr(p) == "Perm('312')"
    assert str(Perm(tuple(range(1, 40)))).count(",") == 38

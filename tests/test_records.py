"""The behaviour of the package's record classes, pinned field by field.

Each public record is a frozen value: it builds from its fields by position or keyword, prints as
``Name(field=value, ...)``, compares equal to a record of the same class
with equal fields and to nothing else, and hashes by its fields when they
are all hashable.
"""

import inspect

import pytest

from inflatable import (
    BlockPartition,
    Estimate,
    InflatabilityReport,
    PatternCounts3,
    Perm,
    SearchConfig,
    SearchResult,
    block_partitions,
    check_3_inflatable,
    count_length3_all,
    search_3_inflatable,
)
from inflatable import _kernel
from inflatable.cli import CommandResult
from inflatable.montecarlo import GENERATOR_ID

P3 = [Perm(p) for p in ("123", "132", "213", "231", "312", "321")]
COUNTS = dict(zip(P3, (0, 1, 1, 1, 1, 0)))

# (record, its fields positionally, the text of its repr, whether it hashes)
CASES = [
    (
        count_length3_all("2413"),
        (4, COUNTS, 3, 3),
        "PatternCounts3(n=4, counts={Perm('123'): 0, Perm('132'): 1, Perm('213'): 1, "
        "Perm('231'): 1, Perm('312'): 1, Perm('321'): 0}, inv12=3, inv21=3)",
        False,
    ),
    (
        check_3_inflatable("1"),
        (Perm("1"), 1, True, {}, {}, {}, True),
        "InflatabilityReport(tau=Perm('1'), length=1, admissible_length=True, "
        "required={}, observed={}, observed_counts={}, verdict=True)",
        False,
    ),
    (
        SearchConfig(5),
        (5, True, None, 1, None),
        "SearchConfig(n=5, central_only=True, limit=None, threads=1, timeout=None)",
        True,
    ),
    (
        SearchResult([(1, 2)], 3, 1),
        ([(1, 2)], 3, 1, "ok", None, 0),
        "SearchResult(hits=[(1, 2)], scanned=3, found=1, status='ok', reason=None, elapsed_ms=0)",
        False,
    ),
    (
        block_partitions("132")[1],
        (Perm("12"), (Perm("1"), Perm("21")), (1, 2)),
        "BlockPartition(outer=Perm('12'), inner=(Perm('1'), Perm('21')), sizes=(1, 2))",
        True,
    ),
    (
        Estimate(0.5, 0.25, 2, 3, 4),
        (0.5, 0.25, 2, 3, 4, GENERATOR_ID),
        "Estimate(mean=0.5, stderr=0.25, samples=2, j=3, seed=4, "
        "generator=\"mt19937; per-sample seed sha512('{seed}:{index}'); Fisher-Yates shuffle\")",
        True,
    ),
    (
        CommandResult("ok", {}),
        ("ok", {}, (), None, None),
        "CommandResult(status='ok', payload={}, diagnostics=(), text=None, out=None)",
        False,
    ),
]
IDS = [type(case[0]).__name__ for case in CASES]

FIELDS = {
    PatternCounts3: ("n", "counts", "inv12", "inv21"),
    InflatabilityReport: (
        "tau", "length", "admissible_length", "required", "observed", "observed_counts", "verdict",
    ),
    SearchConfig: ("n", "central_only", "limit", "threads", "timeout"),
    SearchResult: ("hits", "scanned", "found", "status", "reason", "elapsed_ms"),
    BlockPartition: ("outer", "inner", "sizes"),
    Estimate: ("mean", "stderr", "samples", "j", "seed", "generator"),
    CommandResult: ("status", "payload", "diagnostics", "text", "out"),
}
# the defaults of the fields that have one
DEFAULTS = {
    SearchConfig: {"central_only": True, "limit": None, "threads": 1, "timeout": None},
    SearchResult: {"status": "ok", "reason": None, "elapsed_ms": 0},
    Estimate: {"generator": GENERATOR_ID},
    CommandResult: {"diagnostics": (), "text": None, "out": None},
}


@pytest.mark.parametrize("record, values, text, hashable", CASES, ids=IDS)
def test_repr_and_construction(record, values, text, hashable):
    cls = type(record)
    names = FIELDS[cls]
    assert repr(record) == text
    assert tuple(getattr(record, f) for f in names) == values
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert cls.__match_args__ == names
    # every case holds its defaults, so the required fields alone rebuild it
    required = len(names) - len(DEFAULTS.get(cls, {}))
    assert cls(*values[:required]) == record


@pytest.mark.parametrize("record, values, text, hashable", CASES, ids=IDS)
def test_equality(record, values, text, hashable):
    cls = type(record)
    twin = cls(*values)
    assert twin == record and not twin != record
    other = cls(*values[:-1], "different")
    assert other != record and not other == record
    # another class, or the bare field tuple, is never equal
    assert record != values and values != record
    for case in CASES:
        if type(case[0]) is not cls:
            assert record != case[0]
    assert record.__eq__(values) is NotImplemented
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("record, values, text, hashable", CASES, ids=IDS)
def test_hash(record, values, text, hashable):
    cls = type(record)
    if hashable:
        assert hash(record) == hash(cls(*values)) == hash(values)
        assert len({record, cls(*values)}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable type: '(dict|list)'"):
            hash(record)


@pytest.mark.parametrize("record, values, text, hashable", CASES, ids=IDS)
def test_frozen(record, values, text, hashable):
    cls = type(record)
    first = FIELDS[cls][0]
    for name in (first, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$") as err:
            setattr(record, name, None)
        assert type(err.value).__name__ == "FrozenInstanceError"
    with pytest.raises(AttributeError, match=f"^cannot delete field '{first}'$") as err:
        delattr(record, first)
    assert type(err.value).__name__ == "FrozenInstanceError"
    assert tuple(getattr(record, f) for f in FIELDS[cls]) == values


@pytest.mark.parametrize("cls", list(FIELDS), ids=[c.__name__ for c in FIELDS])
def test_signature_and_argument_errors(cls):
    names = FIELDS[cls]
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{names[0]}'"):
        cls(**{f: None for f in names[1:]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*[None] * len(names), bogus=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*[None] * (len(names) + 1))


def test_one_tail_plan_per_search(monkeypatch):
    # a search builds its tail plan once, before its first shard scan, and
    # every shard it scans (8 of the 16 central ones at n=17, in one root
    # block) completes by that plan; the next search builds its own
    plans, tails, blocks = [], [], []
    real_plan, real_scan = _kernel.tail_plan, _kernel._scan_shard

    def counted(*args):
        plans.append(real_plan(*args))
        return plans[-1]

    def scan(n, tv, space, firsts, tail, expired):
        tails.append(tail[1])
        blocks.append(tuple(firsts))
        return real_scan(n, tv, space, firsts, tail, expired)

    monkeypatch.setattr(_kernel, "tail_plan", counted)
    monkeypatch.setattr(_kernel, "_scan_shard", scan)
    assert search_3_inflatable(SearchConfig(n=17)).found == 750
    assert len(plans) == 1 and blocks == [tuple(range(1, 9))]
    assert isinstance(plans[0], _kernel.Tail) and all(t is plans[0] for t in tails)
    search_3_inflatable(SearchConfig(n=17, limit=1))
    assert len(plans) == 2 and tails[-1] is plans[1]

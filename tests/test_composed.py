"""The uniform-inflation splitter and the composed-host count path of core._occurrences."""

import importlib
import importlib.util
import io
import json
import pkgutil
import random
from math import comb
from pathlib import Path
from types import ModuleType

from hypothesis import given, settings
from hypothesis import strategies as st

import inflatable
from inflatable import (
    PATTERNS_3,
    Perm,
    check_3_inflatable,
    count_length3_all,
    count_occurrences,
    inflate,
    limit_density_uniform,
    pattern_of,
)
from inflatable import cli, core
from util import random_perm, record_count3_calls

EXAMPLES_17 = (Perm("G54ABC319HF678ED2"), Perm("E534BGA9HC2D1687F"))
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def brute_split(tau):
    """(tau1, tau2) for the smallest block length m that rebuilds tau, or None.

    If tau = inflate(tau1, tau2) with |tau2| = m, then tau's first m entries
    have the pattern tau2 and its entries m apart, from the first, have the
    pattern tau1; so rebuilding from those two patterns decides each m.
    """
    n = tau.n
    for m in range(2, n):
        if n % m == 0:
            parts = pattern_of(tau[::m]), pattern_of(tau[:m])
            if inflate(*parts) == tau:
                return parts
    return None


def test_splitter_round_trips_random_inflations():
    rng = random.Random(41)
    for _ in range(60):
        tau = inflate(random_perm(rng, rng.randint(2, 5)), random_perm(rng, rng.randint(2, 5)))
        split = core._split_inflation(tau)
        assert split is not None and min(map(len, split)) > 1
        assert inflate(*split) == tau
        # the smallest block length is tried first
        assert split == brute_split(tau)


def test_splitter_round_trips_the_17_by_17_examples():
    for a in EXAMPLES_17:
        for b in EXAMPLES_17:
            assert core._split_inflation(inflate(a, b)) == (a, b)


@settings(max_examples=200, deadline=None)
@given(values=st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_splitter_agrees_with_brute_force(values):
    # random permutations of composite length are mostly not inflations
    tau = Perm(values)
    assert core._split_inflation(tau) == brute_split(tau)


def test_splitter_returns_none_on_prime_lengths_and_non_inflations():
    rng = random.Random(42)
    for n in (1, 2, 3, 5, 7, 11, 13, 17):
        assert core._split_inflation(Perm(range(1, n + 1))) is None
    assert core._split_inflation(EXAMPLES_17[0]) is None
    found = 0
    for n in (4, 6, 8, 9, 12, 15, 16):
        for _ in range(20):
            tau = random_perm(rng, n)
            if brute_split(tau) is None:
                found += 1
                assert core._split_inflation(tau) is None
    assert found > 100


def test_splitter_rejects_a_transposition_across_a_block_boundary():
    for a, b, m in ((Perm("2413"), Perm("312"), 3), (*EXAMPLES_17, 17)):
        values = list(inflate(a, b))
        for cut in (m, len(values) - m):
            swapped = values.copy()
            swapped[cut - 1], swapped[cut] = swapped[cut], swapped[cut - 1]
            tau = Perm(swapped)
            assert brute_split(tau) is None
            assert core._split_inflation(tau) is None


def test_composed_tables_match_count_occurrences():
    # one call at length s fills every length 1..s, on inflations whose
    # factors may split again, and on three-fold ones, one of whose factors
    # does; the counts listed add up to all C(n, k) subsets, so every
    # pattern left out does not occur
    rng = random.Random(43)
    hosts = [
        inflate(random_perm(rng, rng.randint(2, 4)), random_perm(rng, rng.randint(2, 4)))
        for _ in range(12)
    ]
    for a, c in ((Perm("21"), Perm("132")), (Perm("12"), Perm("231"))):
        hosts.append(inflate(inflate(a, random_perm(rng, 2)), c))
        assert any(map(core._split_inflation, core._split_inflation(hosts[-1])))
    for tau in hosts:
        assert core._split_inflation(tau) is not None
        oracle = {}
        for s in range(1, 6):
            core._host_tables.cache_clear()
            tables = core._occurrences(tau, s)
            for k in range(1, s + 1):
                assert sum(tables[k].values()) == comb(tau.n, k)
                for pi, count in tables[k].items():
                    if pi not in oracle:
                        oracle[pi] = count_occurrences(pi, tau)
                    assert count == oracle[pi], (tau, pi)


def test_composed_tables_match_count_length3_all_at_4913():
    # the 4913-long hosts of perfbench's exact workload, as it builds them
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (1, 7, 801):
        host = workloads.Exact(seed).host4913
        split = core._split_inflation(host)
        assert host.n == 4913 and split is not None
        tables = {}
        core._fill(host, 3, tables)
        pc = count_length3_all(host)
        assert tables[3] == {p: c for p, c in pc.counts.items() if c}
        assert tables[2] == {Perm("12"): pc.inv12, Perm("21"): pc.inv21}


def test_cli_counts_splits_composed_hosts(monkeypatch):
    # the 289 and 4913 compositions are counted through their length-17 factors
    host289 = inflate(*EXAMPLES_17)
    for host in (host289, inflate(host289, EXAMPLES_17[0])):
        pc = count_length3_all(host)
        expected = {
            "n": host.n,
            "counts": {str(p): pc.counts[p] for p in PATTERNS_3},
            "inv12": pc.inv12,
            "inv21": pc.inv21,
        }
        calls = record_count3_calls(monkeypatch)
        buf = io.StringIO()
        assert cli.run(["counts", str(host), "--json"], stdout=buf).exit_code == 0
        assert json.loads(buf.getvalue()) == expected
        assert calls and {h.n for h in calls} == {17}


def test_a_cold_composed_host_takes_one_memo_place():
    # the factors' tables are not memoized, so counting a 17^k host leaves
    # the other hosts in the memo where they are
    host289 = inflate(*EXAMPLES_17)
    host4913 = inflate(host289, EXAMPLES_17[0])
    core._host_tables.cache_clear()
    for expected, host in enumerate((host289, host4913), start=1):
        assert check_3_inflatable(host).verdict
        assert core._host_tables.cache_info().currsize == expected
    # a limit table is kept in its host's entry
    assert limit_density_uniform("123", host289) == limit_density_uniform("123", host289)
    assert core._host_tables.cache_info().currsize == 2


def test_each_call_reads_its_host_once():
    # a check reads all seven of its patterns, and a cold limit sum every
    # length up to its own, from one memo lookup
    def lookups():
        info = core._host_tables.cache_info()
        return info.hits + info.misses

    host289 = inflate(*EXAMPLES_17)
    core._host_tables.cache_clear()
    for host in (EXAMPLES_17[0], host289, EXAMPLES_17[0]):
        before = lookups()
        assert check_3_inflatable(host).verdict
        assert lookups() == before + 1
    host = Perm("472951836")
    for k in range(1, 7):
        core._host_tables.cache_clear()
        limit_density_uniform(Perm(range(1, k + 1)), host)
        assert lookups() == 1


def test_clear_memos_empties_every_module_level_cache():
    # every module of the package runs, and its memos are filled; a new
    # memo that core._clear_memos does not reach fails here
    modules = []
    for info in pkgutil.iter_modules(inflatable.__path__):
        module = importlib.import_module(f"inflatable.{info.name}")
        vars(module)  # runs a lazy module
        modules.append(module)
    assert all(type(m) is ModuleType for m in modules)
    host = inflate(*EXAMPLES_17)
    assert check_3_inflatable(host).verdict
    assert limit_density_uniform("123", host) == limit_density_uniform("123", EXAMPLES_17[0])

    def sizes():
        return {
            f"{mod.__name__}.{name}": obj.cache_info().currsize
            for mod in modules
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
        }

    filled = sizes()
    assert filled["inflatable.core._host_tables"] > 0
    assert filled["inflatable.limits.uniform_profile"] > 0
    core._clear_memos()
    assert sizes() == dict.fromkeys(filled, 0)

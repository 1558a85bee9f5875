"""Tests of the benchmark itself: every gate trips on a wrong answer and is counted.

Run from the repository root with ``python -m pytest perfbench``. Inputs
are small, so the whole module takes seconds.
"""

from __future__ import annotations

import io
import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import run

run.use_checkout_src()

import inflatable  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from inflatable import Estimate, Perm, SearchResult  # noqa: E402

EX = [Perm(e) for e in wl.EXAMPLES_17]
IDENTITY17 = Perm(range(1, 18))
COUNTS17 = {inflatable.format_permutation(p): c for p, c in inflatable.target_counts_3(17).items()}


def cli_check(text: str) -> tuple:
    buf = io.StringIO()
    return inflatable.cli.run(["check", text, "--json"], stdout=buf).exit_code, buf.getvalue()


def test_every_symmetry_image_of_the_examples_is_3_inflatable():
    for example in EX:
        images = {wl.symmetry_image(example, k) for k in range(8)}
        assert example in images and len(images) >= 4
        assert all(inflatable.check_3_inflatable(img).verdict for img in images)


def test_inputs_come_from_the_seed():
    a, b = wl.Exact(5), wl.Exact(5)
    assert (a.host4913, a.tau9) == (b.host4913, b.tau9)
    assert len({(wl.Exact(s).host4913, wl.Exact(s).tau9) for s in range(4)}) > 1
    assert a.host4913 == inflatable.inflate(a.host289, a.ex17)
    assert len(a.host4913) == 17**3


def test_scan_gate():
    good = SearchResult(hits=sorted(EX), scanned=10, found=2)
    assert wl.check_scan(good, 2, 10) == []
    assert wl.check_scan(good, 3, 10)  # hit count off by one
    assert wl.check_scan(good, 2, 11)  # coverage off by one
    bad_hit = SearchResult(hits=sorted([EX[0], IDENTITY17]), scanned=10, found=2)
    assert any("check_3_inflatable" in p for p in wl.check_scan(bad_hit, 2, 10))
    unsorted = SearchResult(hits=sorted(EX, reverse=True), scanned=10, found=2)
    assert wl.check_scan(unsorted, 2, 10)
    assert wl.check_scan(SearchResult(hits=[], scanned=0, found=0, status="inadmissible"), 0, 0)


def test_first_hits_gate():
    res = SearchResult(hits=sorted(EX), scanned=5, found=2)
    assert wl.check_first(res, sorted(EX)) == []
    assert wl.check_first(res, sorted(EX)[:1])
    assert wl.check_first(res, [EX[0], IDENTITY17])


def test_cli_check_gate():
    assert wl.check_cli_report(cli_check(str(EX[0])), COUNTS17) == []
    off_by_one = dict(COUNTS17, **{"123": COUNTS17["123"] + 1})
    assert wl.check_cli_report(cli_check(str(EX[0])), off_by_one)
    assert wl.check_cli_report(cli_check(str(IDENTITY17)), COUNTS17)
    assert wl.check_cli_report(cli_check("472951836"), COUNTS17)
    assert wl.check_cli_report(cli_check("1,1,2"), COUNTS17)  # exit code 2
    assert wl.check_cli_report((0, "not json"), COUNTS17)


def test_limit_gates():
    assert wl.check_value("limit", inflatable.limit_density_uniform("123", EX[1]), Fraction(1, 6)) == []
    assert wl.check_value("limit", inflatable.limit_density_uniform("123", "472951836"), Fraction(1, 6))
    tau9 = wl.Exact(0).tau9
    terms = [inflatable.limit_density_uniform(p, tau9) for p in inflatable.all_patterns(3)]
    assert wl.check_value("sum", sum(terms), Fraction(1)) == []
    assert wl.check_value("sum", sum(terms[1:]), Fraction(1))
    assert wl.check_value("sum", 1.0, Fraction(1))  # a float is never exact


def test_estimate_gate():
    exact = inflatable.limit_density_uniform(wl.MC_PATTERN, wl.MC_TAU)
    good = Estimate(mean=float(exact) + 1e-4, stderr=1e-3, samples=50, j=50, seed=0)
    assert wl.check_estimate(good, good, exact) == []
    far = Estimate(mean=float(exact) + 6e-3, stderr=1e-3, samples=50, j=50, seed=0)
    assert wl.check_estimate(far, far, exact)
    assert wl.check_estimate(good, far, exact)  # differs from the first iteration
    flat = Estimate(mean=float(exact), stderr=0.0, samples=50, j=50, seed=0)
    assert wl.check_estimate(flat, flat, exact)


def test_workload_checks_count_wrong_answers_in_failed_ratio():
    exact = wl.Exact(0)
    out = {
        "compose": exact.host289,
        "check": cli_check(str(IDENTITY17)),
        "limit_long": Fraction(1, 7),
        "limit_wide": Fraction(1),
    }
    ledger = run.Ledger()
    ledger.record(exact.check(out))
    assert (ledger.attempted, ledger.failed, ledger.failed_ratio) == (4, 3, 0.75)

    mc = wl.MonteCarlo(0)
    value = float(mc.exact)
    first = Estimate(mean=value, stderr=1e-3, samples=50, j=50, seed=0)
    moved = Estimate(mean=value + 1e-9, stderr=1e-3, samples=50, j=50, seed=0)
    ledger.record(mc.check({"mc_exact": first, "mc_subset": first}))
    ledger.record(mc.check({"mc_exact": first, "mc_subset": moved}))
    assert (ledger.attempted, ledger.failed) == (8, 4)

    search = wl.Search17(0)
    fake = SearchResult(hits=sorted(EX), scanned=search.space, found=2)
    problems = search.check({"scan": fake, "first3": fake})
    assert problems["scan"] and problems["first3"] == []
    other = SearchResult(hits=[EX[0]], scanned=search.space, found=1)
    assert any("differ" in p for p in search.check_traced(fake, {"scan": other}))


class _Tiny:
    """A two-operation workload whose second answer is wrong."""

    stages = {"stage1_s": ("limit",), "stage2_s": ("check",)}

    def ops(self, progress=None):
        return [
            ("limit", lambda: inflatable.limit_density_uniform("123", EX[0])),
            ("check", lambda: cli_check(str(IDENTITY17))),
        ]

    def check(self, out):
        return {
            "limit": wl.check_value("limit", out["limit"], Fraction(1, 6)),
            "check": wl.check_cli_report(out["check"], COUNTS17),
        }


def test_result_line_reports_the_failure():
    ledger = run.Ledger()
    times, raws = run.measure(_Tiny(), 0, ledger, pace.Pace())
    assert all(t.keys() == r.keys() for t, r in zip(times, raws))
    metrics = run.end_to_end(_Tiny(), times, [0.5])
    result = json.loads(run.result_line(ledger, metrics))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_nests_spans_and_restores_the_library():
    originals = (inflatable.criteria.check_3_inflatable, inflatable.core.parse_permutation)
    tracer = spans.Tracer()
    with tracer.installed():
        assert inflatable.criteria.check_3_inflatable is not originals[0]
        with tracer.span("op.compose"):
            inflatable.compose_inflatables(EX[0], EX[1])
        with tracer.span("op.check"):
            cli_check(str(EX[0]))
        with tracer.span("op.limit"):
            inflatable.limit_density_uniform("1234", "472951836")
    assert (inflatable.criteria.check_3_inflatable, inflatable.core.parse_permutation) == originals
    assert inflatable.cli.check_3_inflatable is originals[0]

    names = [s.name for s in tracer.spans]
    compose = names.index("criteria.compose_inflatables")
    checks = [i for i, s in enumerate(tracer.spans) if s.parent == compose]
    assert [names[i] for i in checks] == ["criteria.check_3_inflatable"] * 2 + ["core.inflate"]
    run_span = names.index("cli.run")
    children = {names[i] for i, s in enumerate(tracer.spans) if s.parent == run_span}
    assert children == {"core.parse_permutation", "criteria.check_3_inflatable"}

    m = spans.layer_metrics(tracer)
    assert m["core.count3_calls"] == 3
    assert m["core.count3_pairs"] == 3 * comb(17, 2)
    assert m["core.inflate_cells"] == 17 * 17
    assert m["partitions.calls"] == 1
    assert 0 < m["partitions.kept_ratio"] <= 1
    assert m["core.occurrences_subsets"] > 0
    assert m["limits.sigma_repeat_ratio"] == 0
    run_time = tracer.spans[run_span].duration
    assert 0 < m["cli.self_s"] < run_time
    assert 0 < m["criteria.self_s"] < m["criteria.compose_s"] + m["criteria.check_s"]

    per_layer = spans.run_metrics([(1.0, tracer)], [(0.8, {"check": 0.25})], 0.0, 2)
    assert list(per_layer) == [name for name, *_ in spans.LAYER_METRICS]
    assert per_layer["op.check_s"] == 0.25 and per_layer["op.scan_s"] == 0.0
    assert per_layer["trace.overhead"] == 0.25


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    for name, start, end, parent in [("a", 0, 10, -1), ("b", 1, 4, 0), ("c", 2, 3, 1), ("d", 5, 7, 0)]:
        span = spans.Span(name, start, parent)
        span.end = end
        tracer.spans.append(span)
    assert spans.self_times(tracer.spans) == [5, 2, 1, 2]


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == [m[:3] for m in spans.LAYER_METRICS]
    for name, _, _, moves, where in spans.LAYER_METRICS:
        if where == "all":
            continue
        for target in moves.split():
            stage, _, op = target.partition(":")
            assert stage in {"stage1_s", "stage2_s"}
            assert any(op in wl.WORKLOADS[w].stages[stage] for w in where.split()), name
    for workload in wl.WORKLOADS.values():
        assert set(workload.stages) == {"stage1_s", "stage2_s"}


def test_pace_scales_by_the_reference_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    timer = pace.Pace()
    chunks = 100  # about 0.5 s, so timer ticks run inside the call
    result, _, calibrated = timer.time(lambda: pace.reference_chunk(chunks * pace.REF_ROUNDS))
    assert result == pace.reference_chunk(chunks * pace.REF_ROUNDS)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timer._ref_count > 1  # ticks ran inside the call, plus the one after it
    # the call is `chunks` reference chunks of work, whatever the host's pace
    assert 0.5 * chunks * pace.REF_NOMINAL_S < calibrated < 2 * chunks * pace.REF_NOMINAL_S


def test_setup_is_timed_in_fresh_processes():
    values = run.setup_seconds("exact", 3)
    assert len(values) == run.SETUP_PROCESSES and all(v > 0 for v in values)


def test_run_fails_without_the_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

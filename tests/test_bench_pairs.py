import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_medians_quartiles_and_wins(bench_pairs):
    parent = [{"t": v, "rate": 10.0} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"t": v, "rate": r} for v, r in ((0.5, 11.0), (2.5, 10.0), (3.0, 9.0), (1.0, 12.0), (0.1, 10.0))]
    out = bench_pairs.summarize(parent, change, [("t", "s", "lower"), ("rate", "1/s", "higher")])
    assert out["t"] == {
        "unit": "s",
        "parent_median": 3.0,
        "parent_quartiles": [2.0, 4.0],
        "change_median": 1.0,
        "change_quartiles": [0.5, 2.5],
        # pair 2 lost, pair 3 tied: a tie counts for neither side
        "change_wins": 3,
    }
    assert out["rate"]["change_wins"] == 2
    assert out["rate"]["parent_quartiles"] == [10.0, 10.0]


def test_summarize_rounds_and_refuses_unpaired_runs(bench_pairs):
    out = bench_pairs.summarize([{"x": 1 / 3}, {"x": 2 / 3}], [{"x": 0.1}, {"x": 0.2}], [("x", "s", "lower")])
    assert out["x"]["parent_median"] == 0.5 and out["x"]["parent_quartiles"] == [0.4167, 0.5833]
    # 4 significant digits, not 4 decimals: millisecond timings keep theirs
    ms = bench_pairs.summarize([{"x": 0.011437}, {"x": 0.011391}], [{"x": 0.0052149}, {"x": 0.0052851}],
                               [("x", "s", "lower")])
    assert ms["x"]["parent_median"] == 0.01141 and ms["x"]["change_median"] == 0.00525
    assert ms["x"]["change_quartiles"] == [0.005232, 0.005268]
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"x": 1.0}] * 3, [{"x": 1.0}] * 2, [("x", "s", "lower")])


def test_seed_ranges_and_perfbench_command(bench_pairs):
    assert bench_pairs.parse_seeds("1301-1304") == [1301, 1302, 1303, 1304]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]
    assert bench_pairs.command("montecarlo", 7, 30.0) == [
        "python3", "perfbench/run.py", "--workload", "montecarlo",
        "--seed", "7", "--seconds", "30", "--trace", "0",
    ]


def test_pairs_alternate_with_the_parent_first_on_odd_pairs(bench_pairs):
    calls = []

    def measure(checkout, seed):
        calls.append((checkout, seed))
        return {"t": float(seed)}

    runs = bench_pairs.run_pairs([5, 6, 7], {"parent": "P", "change": "C"}, measure)
    assert calls == [("P", 5), ("C", 5), ("C", 6), ("P", 6), ("P", 7), ("C", 7)]
    assert runs == {"parent": [{"t": 5.0}, {"t": 6.0}, {"t": 7.0}], "change": [{"t": 5.0}, {"t": 6.0}, {"t": 7.0}]}


MACHINE = {"nproc": 2, "cpu": "cpu", "python": "3.11.7", "numpy": "2.4.6", "commit": "abcdef0123", "src_sha256": "0"}


def test_row_writer_creates_the_file_then_appends(bench_pairs, tmp_path):
    out = tmp_path / "BENCH_startup.json"
    # a row run with the file's command carries none; one run with another
    # command carries its own
    bench_pairs.write_row(out, "startup", "cmd", MACHINE, {"change": "a"})
    bench_pairs.write_row(out, "startup", "other cmd", MACHINE, {"change": "b"})
    bench_pairs.write_row(out, "startup", "cmd", MACHINE, {"change": "c"})
    machine = {k: MACHINE[k] for k in ("nproc", "cpu", "python", "numpy")}
    assert json.loads(out.read_text()) == {
        "workload": "startup", "command": "cmd", "machine": machine,
        "rows": [{"change": "a"}, {"change": "b", "command": "other cmd"}, {"change": "c"}],
    }


def test_row_writer_refuses_another_workload(bench_pairs, tmp_path):
    out = tmp_path / "BENCH_exact.json"
    bench_pairs.write_row(out, "exact", "cmd", MACHINE, {"change": "a"})
    with pytest.raises(SystemExit, match="holds workload 'exact'"):
        bench_pairs.write_row(out, "composed", "cmd", MACHINE, {"change": "b"})
    assert len(json.loads(out.read_text())["rows"]) == 1


def perfbench_stdout(value):
    info = {"machine": MACHINE, "problems": []}
    metrics = {name: {"value": value} for name in ("setup_s", "wall_s", "stage1_s", "stage2_s", "peak_rss_mb")}
    return json.dumps(info) + "\n" + json.dumps({"correct": True, "metrics": metrics}) + "\n"


def fake_run(calls, parent):
    def run(cmd, checkout, **env):
        calls.append((cmd, checkout))
        return perfbench_stdout(1.0 if checkout == parent else 0.5), 0.1
    return run


@pytest.mark.parametrize("seeds", ["1310-1301", "7"])
def test_fewer_than_two_seeds_are_refused_before_any_run(bench_pairs, monkeypatch, tmp_path, seeds):
    calls = []
    monkeypatch.setattr(bench_pairs, "run", fake_run(calls, tmp_path.resolve()))
    argv = ["--parent", str(tmp_path), "--workload", "exact", "--seeds", seeds,
            "--change", "c", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit):
        bench_pairs.main(argv)
    assert calls == [] and not (tmp_path / "out.json").exists()


def test_perfbench_row_keeps_its_keys(bench_pairs, monkeypatch, tmp_path):
    calls = []
    # the parent is told apart by its exact path: the change's checkout may
    # itself sit under a directory named "parent"
    monkeypatch.setattr(bench_pairs, "run", fake_run(calls, (tmp_path / "parent").resolve()))
    monkeypatch.setattr(bench_pairs, "head_commit", lambda checkout: "abcdef0123")
    machines = [MACHINE, {**MACHINE, "nproc": 4}]
    monkeypatch.setattr(bench_pairs, "machine", lambda checkout: machines.pop(0))
    out = tmp_path / "BENCH_exact.json"
    argv = ["--parent", str(tmp_path / "parent"), "--workload", "exact", "--seeds", "1-3",
            "--seconds", "5", "--change", "c", "--out", str(out)]
    assert bench_pairs.main(argv + ["--claim", "faster"]) == 0
    assert bench_pairs.main(argv) == 0
    assert [cmd[cmd.index("--seed") + 1] for cmd, _ in calls] == ["1", "1", "2", "2", "3", "3"] * 2
    doc = json.loads(out.read_text())
    assert doc["command"] == "python3 perfbench/run.py --workload exact --seed N --seconds 5 --trace 0"
    claimed, plain = doc["rows"]
    assert list(claimed) == ["change", "parent_commit", "claimed", "claim", "pairs", "seeds", "order", "metrics"]
    assert list(plain) == ["change", "parent_commit", "claimed", "pairs", "seeds", "order", "metrics", "machine"]
    assert claimed["parent_commit"] == "abcdef0" and claimed["claimed"] and not plain["claimed"]
    assert claimed["seeds"] == [1, 2, 3] and plain["machine"]["nproc"] == 4
    assert list(claimed["metrics"]) == ["setup_s", "wall_s", "stage1_s", "stage2_s", "peak_rss_mb"]
    assert claimed["metrics"]["peak_rss_mb"]["unit"] == "MB"
    assert claimed["metrics"]["wall_s"]["change_wins"] == 3


def test_composed_runs_each_checkouts_own_script(bench_pairs, monkeypatch, tmp_path):
    # the script resolves against the checkout run uses as its cwd, so the
    # parent's run names the parent's script and the change's its own
    parent = (tmp_path / "parent").resolve()
    scripts = []

    def run(cmd, checkout, **env):
        scripts.append((checkout, (checkout / cmd[-1]).resolve()))
        return json.dumps({"op_s": 1.0}), 0.1

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "head_commit", lambda checkout: "abcdef0123")
    monkeypatch.setattr(bench_pairs, "machine", lambda checkout: MACHINE)
    argv = ["--parent", str(parent), "--workload", "composed", "--seeds", "1-2",
            "--change", "c", "--out", str(tmp_path / "BENCH_composed.json")]
    assert bench_pairs.main(argv) == 0
    assert scripts and all(script == checkout / bench_pairs.COMPOSED for checkout, script in scripts)
    assert {checkout for checkout, _ in scripts} == {parent, bench_pairs.ROOT}


def test_a_parent_outside_git_is_refused_before_any_run(bench_pairs, monkeypatch, tmp_path):
    # a git archive export has no .git: its commit cannot be read, so the
    # script stops before the pairs, not with "unknown" in the row after them
    started = []
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args: started.append(args))
    export = tmp_path / "export"
    export.mkdir()
    argv = ["--parent", str(export), "--workload", "exact", "--seeds", "1-2",
            "--change", "c", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit, match="not the top of a git checkout"):
        bench_pairs.main(argv)
    assert started == [] and not (tmp_path / "out.json").exists()


def test_head_commit_reads_a_checkouts_own_head(bench_pairs, tmp_path):
    # the top of a checkout gives its HEAD; a directory inside it, as an
    # export unpacked into another repository would be, is refused
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "root"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True)
    assert bench_pairs.head_commit(tmp_path) == head.stdout.strip()
    (tmp_path / "export").mkdir()
    with pytest.raises(SystemExit, match="not the top of a git checkout"):
        bench_pairs.head_commit(tmp_path / "export")

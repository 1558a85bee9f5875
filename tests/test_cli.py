import io
import json
import random
import subprocess
import sys
from itertools import count
from types import SimpleNamespace

import pytest

from inflatable import (
    Perm,
    SearchConfig,
    SearchResult,
    format_permutation,
    generalized_inflate,
    inflate,
    render_ascii,
    render_svg,
    rotate,
)
import inflatable._kernel
import inflatable.cli
import inflatable.search
from inflatable.cli import main, run
from util import random_perm

G = "G54ABC319HF678ED2"
E = "E534BGA9HC2D1687F"


def invoke(argv: list) -> tuple:
    buf = io.StringIO()
    result = run(argv, stdout=buf)
    return result, buf.getvalue()


def module_cli(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "inflatable", *args],
        capture_output=True,
        timeout=120,
    )


def test_golden_density_bytes():
    proc = module_cli(["density", "132", "--pattern", "12", "--json"])
    assert proc.returncode == 0
    assert proc.stdout == b'{"density":"2/3"}\n'


def test_golden_lengths_bytes():
    proc = module_cli(["lengths", "--json"])
    assert proc.returncode == 0
    assert proc.stdout == b'{"residues":[0,1,17,64,80,81]}\n'


def test_check_passes_minimal_example():
    result, out = invoke(["check", G, "--json"])
    assert result.exit_code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["length"] == 17
    assert payload["required"]["123"] == "3/20"
    assert payload["observed"]["132"] == "7/40"
    assert payload["observed_counts"]["12"] == 68


def test_error_exit_code_and_stderr():
    proc = module_cli(["density", "1332", "--pattern", "12"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")
    assert main(["density", "1332", "--pattern", "12"]) == 2
    assert main(["density", "132", "--pattern", "12"]) == 0


def test_argparse_failures_and_help():
    result, _ = invoke([])
    assert result.exit_code == 2
    result, _ = invoke(["no-such-command"])
    assert result.exit_code == 2
    result, _ = invoke(["--help"])
    assert result.exit_code == 0


def test_counts_payload():
    result, out = invoke(["counts", "472951836", "--json"])
    assert result.status == "ok"
    payload = json.loads(out)
    assert payload["n"] == 9
    assert payload["inv12"] == 18
    assert payload["counts"] == {
        "123": 8, "132": 17, "213": 17, "231": 17, "312": 17, "321": 8,
    }


def test_inflate_uniform_and_generalized():
    result, out = invoke(["inflate", "231", "21", "--json"])
    payload = json.loads(out)
    assert payload == {"result": "436521", "n": 6}
    assert Perm(payload["result"]) == inflate("231", "21")

    result, out = invoke(["inflate", "12", "231", "1", "--json"])
    payload = json.loads(out)
    assert Perm(payload["result"]) == generalized_inflate("12", ["231", "1"])
    assert payload["n"] == 4

    result, _ = invoke(["inflate", "12", "231", "21", "--json"])
    assert result.status == "ok"  # sizes may differ across blocks


def test_rotate_payload():
    _, out = invoke(["rotate", "132", "--json"])
    assert json.loads(out) == {"tau": "132", "rotated": "213"}
    rng = random.Random(1)
    tau = random_perm(rng, 9)
    _, out = invoke(["rotate", "".join(str(v) for v in tau), "--json"])
    assert Perm(json.loads(out)["rotated"]) == rotate(tau)


def test_blocks_human_lines():
    _, out = invoke(["blocks", "132"])
    lines = out.strip().splitlines()
    assert lines == ["σ=132 b=1,1,1", "σ=12 b=1,21", "σ=1 b=132"]


def test_blocks_json_payload():
    _, out = invoke(["blocks", "2413", "--json"])
    payload = json.loads(out)
    assert payload["pi"] == "2413"
    assert {"sigma": "2413", "blocks": ["1", "1", "1", "1"], "sizes": [1, 1, 1, 1]} in payload["partitions"]
    assert {"sigma": "1", "blocks": ["2413"], "sizes": [4]} in payload["partitions"]
    assert len(payload["partitions"]) == 2  # 2413 is simple


def test_echoed_inputs_print_as_format_permutation(monkeypatch):
    # check, limit, rotate and blocks echo a parsed input, as given when its
    # text is canonical: every spelling prints the bytes a fresh
    # format_permutation of the input would
    entries = format_permutation(inflate(Perm(G), Perm(E)), "comma").split(",")
    host = ",".join(entries)
    zero = ",".join(["0" + entries[0]] + entries[1:])
    arabic = ",".join("٢" if e == "2" else e for e in entries)
    spellings = [host, f" {host}\n", host.replace(",", ", "), zero, arabic]
    argvs = [[cmd, t] for cmd in ("check", "rotate") for t in spellings]
    argvs += [["limit", t, "--pattern", p] for t in spellings for p in ("132", " 1, 3,2")]
    argvs += [["blocks", t] for t in ("2413", "2,4,1,3", " 0002, 4,1,3")]
    argvs = [argv + flag for argv in argvs for flag in ([], ["--json"])]
    echoed = [invoke(argv) for argv in argvs]
    monkeypatch.setattr(inflatable.cli, "_echo_text", lambda text, p: format_permutation(p))
    for argv, (result, out) in zip(argvs, echoed):
        assert result.exit_code == 0
        assert out == invoke(argv)[1], argv[:1] + argv[2:]
    assert json.loads(echoed[1][1])["tau"] == host


def test_limit_with_profile_file(tmp_path, capsys):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps({"1": "1", "12": "1", "21": "0"}))
    _, out = invoke(["limit", "132", "--pattern", "12", "--profile", str(prof), "--json"])
    assert json.loads(out)["limit_density"] == "7/9"
    # malformed profile surfaces as a clean error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"12": "1/2"}))
    result, _ = invoke(["limit", "132", "--pattern", "12", "--profile", str(bad)])
    assert result.exit_code == 2
    missing = str(tmp_path / "nope.json")
    result, _ = invoke(["limit", "132", "--pattern", "12", "--profile", missing])
    assert result.exit_code == 2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"1": "1/0", "12": "1/2", "21": "1/2"}))
    capsys.readouterr()
    result, out = invoke(["limit", "132", "--pattern", "12", "--profile", str(zero)])
    assert result.exit_code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: not a rational: '1/0'")


def test_lengths_variants():
    _, out = invoke(["lengths", "--max", "300", "--json"])
    assert json.loads(out)["admissible"] == [
        1, 17, 64, 80, 81, 144, 145, 161, 208, 224, 225, 288, 289,
    ]
    _, out = invoke(["lengths", "--mod", "288", "--json"])
    assert json.loads(out)["residues"] == [
        0, 1, 17, 64, 80, 81, 144, 145, 161, 208, 224, 225,
    ]
    _, out = invoke(["lengths", "--table", "--json"])
    table = json.loads(out)["table"]
    assert table["17"]["17"] == 1
    assert table["81"]["64"] == 0
    result, _ = invoke(["lengths", "--max", "0"])
    assert result.exit_code == 2


def test_compose_cli():
    _, out = invoke(["compose", G, E, "--json"])
    payload = json.loads(out)
    assert payload["n"] == 289
    values = [int(x) for x in payload["composed"].split(",")]
    assert len(values) == 289
    assert sorted(values) == list(range(1, 290))
    result, _ = invoke(["compose", "12", G])
    assert result.exit_code == 2


def test_montecarlo_cli_keys():
    _, out = invoke([
        "montecarlo", "132", "--pattern", "12",
        "--j", "60", "--samples", "6", "--seed", "1", "--json",
    ])
    payload = json.loads(out)
    assert set(payload) == {"mean", "stderr", "exact", "z"}
    assert payload["exact"] == "11/18"
    assert isinstance(payload["z"], float)
    _, out2 = invoke([
        "montecarlo", "132", "--pattern", "12",
        "--j", "60", "--samples", "6", "--seed", "1", "--json",
    ])
    assert out == out2
    result, _ = invoke([
        "montecarlo", "132", "--pattern", "12", "--j", "1", "--samples", "1",
    ])
    assert result.exit_code == 2  # j below the pattern length
    # one sample has no standard error: null, not the invalid JSON NaN
    _, out = invoke([
        "montecarlo", "132", "--pattern", "12", "--j", "5", "--samples", "1", "--json",
    ])

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["stderr"] is None and payload["z"] is None


def test_plot_ascii_golden():
    _, out = invoke(["plot", "132"])
    assert out == ".*.\n..*\n*..\n"
    _, svg1 = invoke(["plot", "132", "--format", "svg"])
    _, svg2 = invoke(["plot", "132", "--format", "svg"])
    assert svg1 == svg2
    assert svg1.lstrip().startswith("<svg")


def test_plot_rotation_property():
    rng = random.Random(5)
    for _ in range(20):
        tau = random_perm(rng, rng.randint(1, 12))
        art = render_ascii(tau).splitlines()
        rot = render_ascii(rotate(tau)).splitlines()
        assert rot == [line[::-1] for line in reversed(art)]
        assert render_svg(tau).count("<circle") == tau.n
    with pytest.raises(ValueError, match="cap at length 200"):
        render_ascii(Perm(tuple(range(1, 202))))


def test_search_inadmissible_cli():
    result, out = invoke(["search", "--n", "9", "--central", "--json"])
    assert result.exit_code == 0
    assert result.status == "inadmissible"
    first, *rest = out.splitlines()
    payload = json.loads(first)
    assert payload["found"] == 0 and payload["scanned"] == 0
    assert payload["space"] == "central"
    assert any(line.startswith("note:") for line in rest)
    result, _ = invoke(["search", "--n", "2"])
    assert result.exit_code == 2


def test_search_inadmissible_json_reports_no_elapsed_time(monkeypatch):
    # an inadmissible length scans nothing and reads no clock, so --json
    # prints elapsed_ms 0 in either space
    def clock():
        raise AssertionError("an inadmissible length read the clock")

    monkeypatch.setattr(inflatable.search, "time", SimpleNamespace(monotonic=clock))
    for space in (["--central"], []):
        result, out = invoke(["search", "--n", "9", *space, "--json"])
        assert result.exit_code == 0
        payload = json.loads(out.splitlines()[0])
        assert (payload["found"], payload["elapsed_ms"]) == (0, 0)


def test_search_out_file_empty_when_no_hits(tmp_path):
    target = tmp_path / "hits.txt"
    invoke(["search", "--n", "9", "--central", "--out", str(target)])
    assert target.read_text() == ""


def _fake_result(hits):
    return SearchResult(
        hits=hits, scanned=123, found=len(hits), status="ok", elapsed_ms=7
    )


def test_search_emit_all_text(monkeypatch):
    hits = [Perm(G), Perm(E)]

    def fake(cfg, progress=None):
        if progress is not None:
            progress(0, hits[:1])
            progress(3, hits[1:])
        return _fake_result(hits)

    monkeypatch.setattr("inflatable.search.search_3_inflatable", fake)
    _, out = invoke(["search", "--n", "17", "--central", "--emit-all"])
    lines = out.splitlines()
    assert lines[0] == f"hit subtree=0 {G}"
    assert lines[1] == f"hit subtree=3 {E}"
    assert "found: 2" in out


def test_search_emit_all_json_and_out(monkeypatch, tmp_path):
    hits = [Perm(G), Perm(E)]

    def fake(cfg, progress=None):
        if progress is not None:
            progress(0, hits[:1])
            progress(3, hits[1:])
        return _fake_result(hits)

    monkeypatch.setattr("inflatable.search.search_3_inflatable", fake)
    target = tmp_path / "hits.txt"
    _, out = invoke([
        "search", "--n", "17", "--central", "--emit-all", "--json",
        "--out", str(target),
    ])
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"hit": G, "subtree": 0}
    assert json.loads(lines[1]) == {"hit": E, "subtree": 3}
    tail = json.loads(lines[2])
    assert tail["found"] == 2 and tail["scanned"] == 123
    assert target.read_text() == f"{G}\n{E}\n"


def test_search_emit_all_labels_each_hit_with_its_own_subtree(monkeypatch):
    # each streamed hit carries the index of the shard whose first value
    # it starts with: in the full central n=17 scan, whose shards share one
    # root block, and in a run stopped mid-scan by a timeout (a fake clock
    # moves 1 ms at each read) after hits from several shards
    values = inflatable.search._space(17, True).values
    for timeout in ([], ["--timeout", "0.03"]):
        ticks = count(0, 0.001)
        monkeypatch.setattr(inflatable.search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        result, out = invoke(["search", "--n", "17", "--central", "--emit-all", "--json", *timeout])
        monkeypatch.undo()
        *streamed, payload = map(json.loads, out.splitlines())
        assert result.exit_code == (2 if timeout else 0)
        assert len(streamed) == payload["found"] == (payload["found"] if timeout else 750)
        assert all(line["subtree"] == values.index(Perm(line["hit"])[0]) for line in streamed)
        assert len({line["subtree"] for line in streamed}) > 1


def test_search_thread_env(monkeypatch, capsys):
    # search takes no thread count: the old flag is an unknown argument,
    # and the old environment variable is not read
    seen = {}

    def fake(cfg, progress=None):
        seen["cfg"] = cfg
        return _fake_result([])

    monkeypatch.setattr("inflatable.search.search_3_inflatable", fake)
    result, out = invoke(["search", "--n", "17", "--central", "--threads", "2"])
    assert result.exit_code == 2 and out == "" and not seen
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    monkeypatch.setenv("INFLATABLE_THREADS", "5")
    invoke(["search", "--n", "17", "--central"])
    assert seen["cfg"] == SearchConfig(n=17, central_only=True)


def test_search_timeout_maps_to_error(tmp_path, monkeypatch):
    # the whole central n=17 scan can end inside 0.02 s, so on its leg a
    # fake clock moves 1 ms at each read (the scan reads it about 44
    # times, once as each block enters) and the deadline passes mid-scan
    ticks = count(0, 0.001)
    for space in (["--central"], []):
        if space:
            clock = SimpleNamespace(monotonic=lambda: next(ticks))
            monkeypatch.setattr(inflatable.search, "time", clock)
        result, _ = invoke([
            "search", "--n", "17", *space,
            "--limit", "1000000000", "--timeout", "0.02",
        ])
        monkeypatch.undo()
        assert result.exit_code == 2
        assert result.payload["space"] == ("central" if space else "full")
        assert result.payload["scanned"] > 0
        assert any("timed out" in d for d in result.diagnostics)
    # the partial result is still printed and written: a fake clock stands
    # still until a shard has returned hits and then passes the deadline,
    # so the run stops after the first hits whatever the scan's speed
    scan_shard = inflatable._kernel._scan_shard
    found = []

    def scan(*args):
        out = scan_shard(*args)
        found.extend(out[0])
        return out

    monkeypatch.setattr(inflatable._kernel, "_scan_shard", scan)
    clock = SimpleNamespace(monotonic=lambda: 10.0 * bool(found))
    monkeypatch.setattr(inflatable.search, "time", clock)
    target = tmp_path / "hits.txt"
    result, out = invoke([
        "search", "--n", "17", "--central", "--timeout", "0.15",
        "--json", "--out", str(target),
    ])
    assert result.exit_code == 2
    payload = json.loads(out)
    assert payload == result.payload
    assert payload["found"] > 0
    assert payload["found"] == len(target.read_text().splitlines())
    monkeypatch.undo()
    # a timeout that is not > 0 is a usage error: no scan and no payload
    for timeout in ("nan", "0", "-1"):
        result, out = invoke(["search", "--n", "17", "--central", "--timeout", timeout, "--json"])
        assert result.exit_code == 2 and out == "" and result.payload == {}
        assert result.diagnostics == ["timeout must be > 0 when given"]


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by the search kernel and subset-mode sampling only:
    # importing the CLI, checking a host and an exact-mode estimate at the
    # Monte Carlo benchmark's size (|tau| * j = 450) each leave it out
    runs = (
        "pass",
        f"run(['check', {G!r}], stdout=io.StringIO())",
        "run(['montecarlo', '472951836', '--pattern', '132', '--j', '50', '--samples', '2'],"
        " stdout=io.StringIO())",
    )
    for call in runs:
        code = f"import io, sys; from inflatable.cli import run; {call}; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n", call


def test_out_file_for_plain_command(tmp_path):
    target = tmp_path / "out.txt"
    _, out = invoke(["rotate", "132", "--json", "--out", str(target)])
    assert target.read_text() == out
    # human-format output is mirrored the same way
    target2 = tmp_path / "out2.txt"
    _, out = invoke(["counts", "472951836", "--out", str(target2)])
    assert target2.read_text() == out
    assert "inv12: 18" in out
    # so is the text of the subcommands with their own human rendering
    for argv, line in ((["blocks", "132"], "σ=12 b=1,21"), (["plot", "132"], "*..")):
        target3 = tmp_path / f"{argv[0]}.txt"
        _, out = invoke([*argv, "--out", str(target3)])
        assert target3.read_text(encoding="utf-8") == out
        assert line in out.splitlines()


def test_a_failed_out_write_is_an_error(tmp_path, capsys):
    # a missing directory, and a directory in place of the file: one error
    # line and exit 2, with no result on stdout and no traceback. The file
    # is written after the command runs, so search --emit-all has streamed
    # its hits by then, and they stay on stdout.
    streamed = "hit subtree=1 2B8FD6H49E1C53A7G\nhit subtree=1 2BDCF8419HEA3657G\n"
    cases = (
        (["rotate", "132"], tmp_path / "missing" / "x.txt", ""),
        (["check", "1,2"], tmp_path, ""),
        (
            ["search", "--n", "17", "--central", "--limit", "2", "--emit-all"],
            tmp_path / "missing" / "x.txt",
            streamed,
        ),
    )
    for argv, target, stdout in cases:
        argv = [*argv, "--out", str(target)]
        result, out = invoke(argv)
        assert result.exit_code == 2 and out == stdout
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and err.count("\n") == 1
        assert str(target) in err
        proc = module_cli(argv)
        assert proc.returncode == 2 and proc.stdout == stdout.encode()
        assert proc.stderr.startswith(b"error: [Errno") and proc.stderr.count(b"\n") == 1
    assert not (tmp_path / "missing").exists()


def test_an_entry_past_ints_digit_cap_is_an_error(capsys):
    cap = sys.get_int_max_str_digits()
    if not cap:
        pytest.skip("int() has no digit cap in this interpreter")
    result, out = invoke(["check", "1," + "2" * (cap + 1)])
    assert result.exit_code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: Exceeds the limit")


def test_human_rendering_shapes():
    _, out = invoke(["density", "132", "--pattern", "12"])
    assert out == "density: 2/3\n"
    _, out = invoke(["check", "21"])
    assert "verdict: False" in out

"""Golden CLI corpus: the exit code, stdout and stderr of every subcommand.

Usage, from the root of the checkout:

    PYTHONPATH=src python3 tools/golden.py

rewrites ``tests/golden/cli.json`` from ``CASES``. ``tests/test_golden.py``
runs the same cases through ``record`` and compares them with the file, so
the file pins the contract: the CLI's bytes and exit codes, the public
``__all__`` lists, and the type and message of each documented library
error in ``ERRORS``. Any rewrite that changes it is a contract change.

Each case runs in-process through ``cli.run`` with ``COLUMNS=80`` (argparse
wraps its usage text to the terminal width) and with the library's memos
cleared first, so no case reads a table an earlier case filled. Placeholders
in an argv stand for values made per run: ``{out}`` is a fresh output path
(what the command writes there is recorded too), ``{profile}`` and
``{bad_profile}`` are profile files holding ``FILES``, and ``{host_17_4}`` is
the comma text of an 83,521-long composition. A search's ``elapsed_ms`` is
masked. A text longer than ``LONG`` characters is stored as its sha256 and
length. Three cases (no subcommand, ``--threads``, ``--format png``) print
a usage line and an argparse error; the top-level usage and the ``--format``
error are spelled out by the CLI, as argparse wraps and words its own
differently from one Python version to another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import inflatable
from inflatable import cli, core, format_permutation, inflate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
LONG = 1000

G = "G54ABC319HF678ED2"
E = "E534BGA9HC2D1687F"
FILES = {
    "profile": '{"1": "1", "12": "1/3", "21": "2/3"}',
    "bad_profile": '{"1": "1", "12": "1/0", "21": "1/2"}',
}
SUBMODULES = ("cli", "core", "criteria", "limits", "montecarlo", "partitions", "plotting", "search")

CASES = [
    ["density", "132", "--pattern", "12"],
    ["density", "132", "--pattern", "12", "--json"],
    ["density", G, "--pattern", "2413", "--json"],
    ["counts", "472951836"],
    ["counts", "472951836", "--json"],
    ["counts", "{host_17_4}", "--json"],
    ["counts", "12", "--json"],
    ["inflate", "132", "21"],
    ["inflate", "132", "21", "--json"],
    ["inflate", "21", "1", "132", "--json"],
    ["inflate", "21", "1", "--json"],
    ["blocks", "2413"],
    ["blocks", "132"],
    ["blocks", "132", "--json"],
    ["blocks", "123456789AB", "--json"],
    ["limit", G, "--pattern", "123"],
    ["limit", "132", "--pattern", "231", "--json"],
    ["limit", "132", "--pattern", "12", "--json"],
    ["limit", "2413", "--pattern", "12", "--profile", "{profile}", "--json"],
    ["limit", "2413", "--pattern", "12", "--profile", "{bad_profile}", "--json"],
    ["limit", "2413", "--pattern", "123", "--profile", "{profile}", "--json"],
    ["limit", "2413", "--pattern", "1234567", "--json"],
    ["check", G],
    ["check", G, "--json"],
    ["check", "1,3,2", "--json"],
    ["check", "{host_17_4}", "--json"],
    ["check", "1", "--json"],
    ["check", "21"],
    ["check", "21", "--json"],
    ["check", "472951836", "--json"],
    ["check", "1,2,2", "--json"],
    ["check", "1,,2", "--json"],
    ["check", "0,1", "--json"],
    ["check", "1,3", "--json"],
    ["check", "1, 2", "--json"],
    ["check", "+1,2", "--json"],
    ["check", "12Z", "--json"],
    ["check", "1232", "--json"],
    ["check", "", "--json"],
    ["lengths"],
    ["lengths", "--json"],
    ["lengths", "--mod", "48", "--json"],
    ["lengths", "--max", "300", "--json"],
    ["lengths", "--max", "0", "--json"],
    ["lengths", "--table", "--json"],
    ["search", "--n", "17", "--central", "--limit", "3"],
    ["search", "--n", "17", "--central", "--limit", "3", "--json"],
    ["search", "--n", "17", "--central", "--limit", "3", "--emit-all", "--json", "--out", "{out}"],
    ["search", "--n", "5", "--json"],
    ["search", "--n", "17", "--central", "--timeout", "nan", "--json"],
    ["search", "--n", "17", "--central", "--threads", "2"],
    ["compose", G, E],
    ["compose", G, E, "--json"],
    ["compose", G, "21", "--json"],
    ["montecarlo", "472951836", "--pattern", "132", "--j", "5", "--samples", "3", "--seed", "7"],
    ["montecarlo", "472951836", "--pattern", "132", "--j", "5", "--samples", "3", "--json"],
    ["montecarlo", "2413", "--pattern", "12", "--j", "4", "--samples", "1", "--json"],
    ["montecarlo", "2413", "--pattern", "1234", "--j", "4", "--samples", "2",
     "--subset-samples", "20", "--seed", "3", "--json"],
    ["montecarlo", "2413", "--pattern", "123", "--j", "2", "--samples", "2", "--json"],
    ["rotate", "132"],
    ["rotate", "132", "--json", "--out", "{out}"],
    ["counts", "472951836", "--out", "{out}"],
    ["plot", "2413"],
    ["plot", "132"],
    ["plot", "2413", "--json"],
    ["plot", "2413", "--format", "svg", "--out", "{out}"],
    ["plot", "2413", "--format", "png"],
    [],
]

# documented library errors, each a call evaluated with the package's public
# names; the corpus keeps the type and message of what it raises
ERRORS = [
    'Perm("1,1")',
    'Perm("")',
    'Perm((1, 3))',
    'Perm((1.5, 2))',
    'parse_permutation("1,,2")',
    'format_permutation(Perm(tuple(range(1, 37))), style="compact")',
    'format_permutation("12", style="roman")',
    'density("1234", "132")',
    'generalized_inflate("12", ["1"])',
    'all_patterns(0)',
    'count_length3_all("12")',
    f'compose_inflatables("12", "{G}")',
    'target_counts_3(2)',
    'admissible_residues(0)',
    'DensityProfile({"1": "1", "12": "1/3"})',
    'DensityProfile({"1": "1", "12": "2", "21": "-1"})',
    'DensityProfile({"1": "1/0"})',
    'DensityProfile.from_json("[]")',
    'uniform_profile(7)',
    'limit_density_uniform("1234567", "132")',
    'limit_density_inflation("123", "132", uniform_profile(2))',
    'estimate_limit_density("132", "123", j=2, samples=1)',
    'estimate_limit_density("132", "12", j=5, samples=0)',
    'estimate_limit_density("132", "12", j=True, samples=1)',
    'estimate_limit_density("132", "12", j=5, samples=1, subset_samples=-1)',
    'estimate_limit_density("132", "1234", j=5, samples=1)',
    'estimate_limit_density("132", "12", j=10**6, samples=1)',
    'block_partitions(Perm(tuple(range(1, 12))))',
    'render_ascii(Perm(tuple(range(1, 202))))',
    'space_size(0, True)',
    'enumerate_centrally_symmetric(0)',
    'search_3_inflatable(SearchConfig(n=17.0))',
    'search_3_inflatable(SearchConfig(n=True))',
    'search_3_inflatable(SearchConfig(n=2))',
    'search_3_inflatable(SearchConfig(n=17, limit=0))',
    'search_3_inflatable(SearchConfig(n=17, limit=2.5))',
    'search_3_inflatable(SearchConfig(n=17, threads=0))',
    'search_3_inflatable(SearchConfig(n=17, timeout=0))',
    'search_3_inflatable(SearchConfig(n=17, timeout=True))',
    'search_3_inflatable(SearchConfig(n=1728, timeout=0.05))',
]


def host_17_4() -> str:
    """Comma text of a composition of four 3-inflatable 17-long factors."""
    return format_permutation(inflate(inflate(G, E), inflate(E, G)), style="comma")


def pin(text: str):
    """The text itself, or its sha256 and length when it is long."""
    if len(text) <= LONG:
        return text
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "len": len(text)}


def mask(text: str) -> str:
    return re.sub(r'(elapsed_ms"?: ?)\d+', r"\g<1><masked>", text)


def record(argv: list) -> dict:
    """Run one case through ``cli.run`` and return what the corpus stores."""
    core._clear_memos()
    with tempfile.TemporaryDirectory() as tmp:
        values = {"out": os.path.join(tmp, "out.txt")}
        for name, text in FILES.items():
            values[name] = os.path.join(tmp, f"{name}.json")
            Path(values[name]).write_text(text, encoding="utf-8")
        if "{host_17_4}" in argv:
            values["host_17_4"] = host_17_4()
        args = [values.get(a[1:-1], a) if a.startswith("{") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            result = cli.run(args)
        rec = {
            "argv": argv,
            "exit": result.exit_code,
            "stdout": pin(mask(out.getvalue())),
            "stderr": pin(err.getvalue()),
        }
        if "{out}" in argv:
            target = Path(values["out"])
            rec["out"] = pin(target.read_text(encoding="utf-8")) if target.exists() else None
    return rec


def raised(call: str) -> dict:
    """The type name and message of the exception ``call`` raises (None if none)."""
    names = {name: getattr(inflatable, name) for name in inflatable.__all__}
    try:
        eval(call, names)
    except Exception as exc:
        return {"call": call, "type": type(exc).__name__, "message": str(exc)}
    return {"call": call, "type": None, "message": None}


def public_dir() -> list:
    """Public names of ``dir(inflatable)`` right after a fresh ``import inflatable``."""
    code = "import inflatable, json; print(json.dumps(sorted(n for n in dir(inflatable) if n[0] != '_')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(inflatable.__file__).parent.parent)},
    )
    return json.loads(proc.stdout)


def api() -> dict:
    """The package's ``__all__``, each submodule's, and the public ``dir``."""
    out = {"inflatable": list(inflatable.__all__)}
    for name in SUBMODULES:
        out[f"inflatable.{name}"] = list(getattr(inflatable, name).__all__)
    out["dir(inflatable)"] = public_dir()
    return out


def main() -> int:
    doc = {
        "api": api(),
        "cases": [record(argv) for argv in CASES],
        "errors": [raised(call) for call in ERRORS],
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} cases and {len(ERRORS)} errors to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

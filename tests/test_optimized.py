"""Key invariants under ``python -O``, which strips every ``assert``.

The checks the package relies on must be real raises, not asserts, so the
same answers and the same failures have to show up in an optimized
interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import inflatable

SCRIPT = r"""
import sys
import inflatable.partitions
from inflatable import (
    PATTERNS_3, Perm, check_3_inflatable, count_length3_all,
    enumerate_centrally_symmetric, is_centrally_symmetric, space_size,
)
from inflatable.search import _search_space

if sys.flags.optimize < 1:
    raise SystemExit("not running under -O")

def vector(tau):
    pc = count_length3_all(tau)
    return tuple(pc.counts[p] for p in PATTERNS_3) + (pc.inv12,)

for tau in ("G54ABC319HF678ED2", "E534BGA9HC2D1687F"):
    if not check_3_inflatable(tau).verdict:
        raise SystemExit(f"{tau} fails the check")

# one scan per space, so the shard coverage check runs in both
central_tau = list(enumerate_centrally_symmetric(10))[1234]
for central, tau in ((True, central_tau), (False, Perm("3617425"))):
    n, tv = tau.n, vector(tau)
    hits, scanned, _ = _search_space(n, tv, central, None, None)
    if scanned != space_size(n, central):
        raise SystemExit(f"scanned {scanned} of {space_size(n, central)}")
    if tau not in hits:
        raise SystemExit("the target's own permutation was not found")
    for h in hits:
        if vector(h) != tv or (central and not is_centrally_symmetric(h)):
            raise SystemExit(f"hit {h} does not re-check")

inflatable.partitions.generalized_inflate = lambda outer, inner: Perm("1")
try:
    inflatable.partitions.block_partitions("132")
except RuntimeError:
    pass
else:
    raise SystemExit("a block partition that does not rebuild pi was accepted")
print("ok")
"""


def test_invariants_hold_without_asserts():
    src = str(Path(inflatable.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout == "ok\n"


def test_no_package_module_holds_an_assert():
    # -O strips asserts, so an invariant written as one would vanish
    # there; every check in the package is a real raise
    package = Path(inflatable.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} asserts at lines {asserts}"

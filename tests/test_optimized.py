"""Key invariants under ``python -O``, which strips every ``assert``.

The checks the package relies on must be real raises, not asserts, so the
same answers and the same failures have to show up in an optimized
interpreter.
"""

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

n = 10
pool = list(enumerate_centrally_symmetric(n))
tv = vector(pool[1234])
hits, scanned = _search_space(n, tv, True, None, 1, None)
if scanned != space_size(n, True):
    raise SystemExit(f"scanned {scanned} of {space_size(n, True)}")
if pool[1234] not in hits:
    raise SystemExit("the target's own permutation was not found")
for h in hits:
    if vector(h) != tv or not is_centrally_symmetric(h):
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

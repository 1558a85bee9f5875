"""Start-up: ``import inflatable`` runs core and criteria only.

The other five submodules are registered at import and run on first use.
No start loads ``dataclasses``, ``inspect`` or ``string``: the records
are built by ``core._record``. Each test runs in a fresh process, where
nothing has touched them yet.
"""

import subprocess
import sys

G = "G54ABC319HF678ED2"
LAZY = ("limits", "montecarlo", "partitions", "plotting", "search")

PRELUDE = f"""
import io, sys, types
import inflatable
LAZY = {LAZY!r}

def ran():
    return [m for m in LAZY if type(sys.modules[f"inflatable.{{m}}"]) is types.ModuleType]
"""


def fresh(code: str) -> list:
    """Run PRELUDE then code in a new interpreter; its printed lines."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_checking_runs_no_lazy_module():
    for call in (
        f"inflatable.check_3_inflatable({G!r})",
        f"from inflatable import cli; cli.run(['check', {G!r}], stdout=io.StringIO())",
        # clearing the memos runs no lazy module either
        f"inflatable.check_3_inflatable({G!r}); inflatable.core._clear_memos()",
    ):
        out = fresh(
            f"{call}\n"
            "print(all(getattr(inflatable, m) is sys.modules[f'inflatable.{m}'] for m in LAZY))\n"
            "print(ran(), 'numpy' in sys.modules)\n"
        )
        assert out == ["True", "[] False"], call


def test_first_access_runs_the_owning_module_only():
    out = fresh(
        "config = inflatable.SearchConfig\n"
        "print(ran(), config is inflatable.search.SearchConfig)\n"
        "print('limit_density_uniform' in vars(inflatable))\n"
        "inflatable.limits.LIMIT_PATTERN_MAX\n"
        "print(ran(), vars(inflatable)['limit_density_uniform'] is inflatable.limits.limit_density_uniform)\n"
    )
    assert out == ["['search'] True", "False", "['limits', 'search'] True"]


def test_star_import_binds_all():
    out = fresh(
        "ns = {}\n"
        "exec('from inflatable import *', ns)\n"
        "print(sorted(set(inflatable.__all__) - set(ns)), sorted(ran()))\n"
        "print(set(inflatable.__all__) <= set(dir(inflatable)))\n"
    )
    assert out == [f"[] {sorted(LAZY)}", "True"]


def test_a_wrapper_seen_at_first_touch_is_not_kept():
    # a tracer or monkeypatch wraps the submodule's function before the
    # package name is first read, then puts the original back: the package
    # holds the original, as it does when every submodule runs at import
    out = fresh(
        "limits = sys.modules['inflatable.limits']\n"
        "original = limits.limit_density_uniform\n"
        "limits.limit_density_uniform = lambda *a: original(*a)\n"
        "seen = inflatable.limit_density_uniform\n"
        "limits.limit_density_uniform = original\n"
        "print(seen is original, inflatable.limit_density_uniform is inflatable.limits.limit_density_uniform is original)\n"
    )
    assert out == ["True True"]


def test_no_start_loads_dataclasses_inspect_or_string():
    # the modules a bare interpreter does not already hold
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True, timeout=60,
    ).stdout.split()
    watched = [m for m in ("dataclasses", "inspect", "string") if m not in bare]
    out = fresh(
        f"def loaded():\n    return [m for m in {watched!r} if m in sys.modules]\n"
        "print(loaded())\n"
        f"from inflatable import cli; cli.run(['check', {G!r}], stdout=io.StringIO())\n"
        "print(loaded())\n"
        "inflatable.SearchConfig, inflatable.estimate_limit_density, inflatable.block_partitions\n"
        "print(loaded())\n"
    )
    assert out == ["[]"] * 3


def test_every_name_in_the_table_is_its_modules_own():
    # each name the package gives is in its submodule's __all__, and after
    # a first touch the package holds the submodule's own object
    out = fresh(
        "for module, names in inflatable._NAMES.items():\n"
        "    owner = sys.modules[f'inflatable.{module}']\n"
        "    for name in names:\n"
        "        if name not in owner.__all__:\n"
        "            print('not exported', module, name)\n"
        "        if getattr(inflatable, name) is not getattr(owner, name):\n"
        "            print('not the same', module, name)\n"
        "print(sorted(ran()))\n"
    )
    assert out == [str(sorted(LAZY))]

"""Exact calculus of permutation inflation.

Pattern densities as exact rationals, the limit-density formula for
repeated inflation, decision procedures for 2- and 3-inflatability,
admissible-length arithmetic, exhaustive search for 3-inflatable
permutations, and a Monte Carlo cross-check.

``import inflatable`` runs ``core`` and ``criteria`` only. ``limits``,
``montecarlo``, ``partitions``, ``plotting`` and ``search`` are registered
in ``sys.modules`` at once through ``importlib.util.LazyLoader``, and each
is an attribute of the package at once, but its code runs only on its
first attribute access: ``inflatable.search.SearchConfig``, or a name it
gives the package, such as ``inflatable.SearchConfig`` or
``from inflatable import *``. As it runs, it and those names are bound
here, so later lookups are plain attribute reads. First-use loading is
single-threaded, like the rest of the package: the ``LazyLoader`` of
Python 3.10.13, 3.11.7 and 3.12.1 takes no lock (3.13.0's takes an
``RLock``), so two threads that touch the same module before it has run
could both run it.
"""

import sys as _sys
from importlib import import_module as _import, util as _util

# each submodule and the names it gives the package, in __all__ order; core
# and criteria run at import, the others on first use
_NAMES = {
    "core": (
        "COMPACT_MAX",
        "PATTERNS_3",
        "PatternCounts3",
        "Perm",
        "all_patterns",
        "as_perm",
        "count_length3_all",
        "count_occurrences",
        "density",
        "format_permutation",
        "generalized_inflate",
        "inflate",
        "is_centrally_symmetric",
        "parse_permutation",
        "pattern_of",
        "rotate",
    ),
    "criteria": (
        "InflatabilityReport",
        "admissible_residues",
        "check_3_inflatable",
        "compose_inflatables",
        "is_2_inflatable",
        "residue_multiplication_table",
        "target_counts_3",
        "target_densities_3",
    ),
    "limits": (
        "DensityProfile",
        "abc_coefficients",
        "limit_density_inflation",
        "limit_density_uniform",
        "uniform_profile",
    ),
    "montecarlo": ("EXACT_CELL_CAP", "GENERATOR_ID", "Estimate", "estimate_limit_density"),
    "partitions": ("BlockPartition", "block_partitions"),
    "plotting": ("render_ascii", "render_svg"),
    "search": (
        "SearchConfig",
        "SearchResult",
        "SearchTimeout",
        "enumerate_centrally_symmetric",
        "search_3_inflatable",
        "space_size",
    ),
}
_OWNER = {name: module for module, names in _NAMES.items() for name in names}


def _bind(module):
    """Bind a submodule that has run, and the names it gives the package, here."""
    short = module.__name__.rpartition(".")[2]
    globals()[short] = module
    globals().update((name, getattr(module, name)) for name in _NAMES[short])


class _BindingLoader:
    """Runs a submodule with its own loader, then binds it and its names here."""

    def __init__(self, loader):
        self.loader = loader

    def __getattr__(self, attr):
        # get_source, get_filename, ... for tracebacks and inspect
        return getattr(self.loader, attr)

    def exec_module(self, module):
        self.loader.exec_module(module)
        _bind(module)


# the lazy ones are registered now, bound here when run: a module bound now
# would run when code that walks this namespace touches it (doctest's finder
# does), and its names would change the dict under the walk
for _module in _NAMES:
    _name = f"{__name__}.{_module}"
    if _module in ("core", "criteria"):
        _bind(_import(_name))
    else:
        _spec = _util.find_spec(_name)
        _spec.loader = _util.LazyLoader(_BindingLoader(_spec.loader))
        _sys.modules[_name] = _util.module_from_spec(_spec)
        _spec.loader.exec_module(_sys.modules[_name])
del _module, _name, _spec


def __getattr__(name):
    # only a lazy submodule that has not run, or one of its names, gets here;
    # running it binds the name, so the module's own value is returned only
    # after a del
    if name in _NAMES:
        return _sys.modules[f"{__name__}.{name}"]
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_sys.modules[f"{__name__}.{_OWNER[name]}"], name)
    return globals().get(name, value)


def __dir__():
    return sorted(set(globals()) | set(_NAMES) | set(_OWNER))


__version__ = "0.1.0"

__all__ = [*_OWNER, "__version__"]

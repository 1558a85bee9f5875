"""Spans around the library's public functions, and the per-layer metrics they give.

``Tracer.installed()`` replaces each function in ``WRAPPED`` with a wrapper
that records a span (name, start, end, parent, info). The replacement is
made in every ``inflatable`` module that holds the function, so calls that
go through names re-bound by ``from .core import ...`` are seen too, and
the originals are put back on exit. Spans stay in memory until the run
writes them out.

``LAYER_METRICS`` lists each per-layer metric with its unit, the direction
that is better, the end-to-end metric it should move (``stage:op``), and
the workload where it moves.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from math import comb
from statistics import median
from time import perf_counter

import inflatable

# name, unit, better, end-to-end metric it moves ("stage:op"), workload
LAYER_METRICS = (
    ("search.cands_per_s", "1/s", "higher", "stage1_s:scan", "search17"),
    ("search.first3_covered", "count", "lower", "stage2_s:first3", "search17"),
    ("search.shard_hit_s", "s", "lower", "stage1_s:scan", "search17"),
    ("search.scan2_s", "s", "lower", "stage1_s:scan", "search17"),
    ("search.eff2", "ratio", "higher", "stage1_s:scan", "search17"),
    ("core.count3_s", "s", "lower", "stage1_s:check stage1_s:mc_exact", "exact montecarlo"),
    ("core.count3_calls", "count", "lower", "stage1_s:check stage1_s:mc_exact", "exact montecarlo"),
    ("core.count3_pairs", "count", "lower", "stage1_s:check stage1_s:mc_exact", "exact montecarlo"),
    ("core.occurrences_s", "s", "lower", "stage2_s:limit_long stage2_s:limit_wide", "exact"),
    ("core.occurrences_subsets", "count", "lower", "stage2_s:limit_long stage2_s:limit_wide", "exact"),
    ("core.inflate_s", "s", "lower", "stage1_s:compose stage1_s:mc_exact stage2_s:mc_subset", "exact montecarlo"),
    ("core.inflate_cells", "count", "lower", "stage1_s:compose stage1_s:mc_exact stage2_s:mc_subset", "exact montecarlo"),
    ("core.parse_s", "s", "lower", "stage1_s:check", "exact"),
    ("partitions.blocks_s", "s", "lower", "stage2_s:limit_wide", "exact"),
    ("partitions.calls", "count", "lower", "stage2_s:limit_wide", "exact"),
    ("partitions.kept_ratio", "ratio", "higher", "stage2_s:limit_wide", "exact"),
    ("limits.self_s", "s", "lower", "stage2_s:limit_wide", "exact"),
    ("limits.sigma_repeat_ratio", "ratio", "lower", "stage2_s:limit_wide", "exact"),
    ("criteria.check_s", "s", "lower", "stage1_s:check stage1_s:compose", "exact"),
    ("criteria.self_s", "s", "lower", "stage1_s:check stage1_s:compose", "exact"),
    ("criteria.compose_s", "s", "lower", "stage1_s:compose", "exact"),
    ("montecarlo.self_s", "s", "lower", "stage1_s:mc_exact stage2_s:mc_subset", "montecarlo"),
    ("montecarlo.samples_per_s", "1/s", "higher", "stage1_s:mc_exact stage2_s:mc_subset", "montecarlo"),
    ("cli.self_s", "s", "lower", "stage1_s:check", "exact"),
    ("trace.overhead", "ratio", "lower", "none: traced wall over untraced wall, minus 1", "all"),
    ("op.scan_s", "s", "lower", "stage1_s:scan", "search17"),
    ("op.first3_s", "s", "lower", "stage2_s:first3", "search17"),
    ("op.compose_s", "s", "lower", "stage1_s:compose", "exact"),
    ("op.check_s", "s", "lower", "stage1_s:check", "exact"),
    ("op.limit_long_s", "s", "lower", "stage2_s:limit_long", "exact"),
    ("op.limit_wide_s", "s", "lower", "stage2_s:limit_wide", "exact"),
    ("op.mc_exact_s", "s", "lower", "stage1_s:mc_exact", "montecarlo"),
    ("op.mc_subset_s", "s", "lower", "stage2_s:mc_subset", "montecarlo"),
)


def _pairs(args, kwargs, result):
    return comb(len(inflatable.as_perm(args[0])), 2)


def _subsets(args, kwargs, result):
    k, n = (len(inflatable.as_perm(x)) for x in args[:2])
    return comb(n, k) if k <= n else 0


def _density_key(args, kwargs, result):
    return (inflatable.as_perm(args[0]), inflatable.as_perm(args[1]))


def _cells(args, kwargs, result):
    return len(result)


def _partitions(args, kwargs, result):
    return (len(result), 1 << (len(inflatable.as_perm(args[0])) - 1))


def _samples(args, kwargs, result):
    return result.samples


def _scanned(args, kwargs, result):
    return (result.scanned, args[0].limit, args[0].threads)


# module, public function, what the span records besides its times
WRAPPED = (
    ("search", "search_3_inflatable", _scanned),
    ("core", "count_length3_all", _pairs),
    ("core", "count_occurrences", _subsets),
    ("core", "density", _density_key),
    ("core", "inflate", _cells),
    ("core", "parse_permutation", None),
    ("partitions", "block_partitions", _partitions),
    ("limits", "limit_density_inflation", None),
    ("limits", "limit_density_uniform", None),
    ("limits", "uniform_profile", None),
    ("criteria", "check_3_inflatable", None),
    ("criteria", "compose_inflatables", None),
    ("criteria", "target_counts_3", None),
    ("criteria", "target_densities_3", None),
    ("montecarlo", "estimate_limit_density", _samples),
    ("cli", "run", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        info = self.info
        if self.name == "core.density":
            sigma, tau = info
            info = [str(sigma), len(tau)]
        return [self.name, self.start, self.end, self.parent, info]


class Tracer:
    """Records nested spans; one tracer per traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.shard_done: list[float] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def progress(self, shard: int, batch: list) -> None:
        """Search progress callback: the library calls it as each hit-bearing shard completes."""
        self.shard_done.append(perf_counter())

    def _wrap(self, name: str, fn, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every WRAPPED function in all loaded inflatable modules."""
        replaced = []
        try:
            for module, func, info in WRAPPED:
                original = getattr(sys.modules[f"inflatable.{module}"], func)
                wrapper = self._wrap(f"{module}.{func}", original, info)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "inflatable":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def dump(self) -> dict:
        return {"spans": [s.as_list() for s in self.spans], "shard_done": self.shard_done}


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced iteration (search.scan2_s, search.eff2,
    trace.overhead and op.* come from the run, not from one iteration)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum((spans[i].duration for i in by_name.get(name, ())), 0.0)

    def infos(name: str) -> list:
        return [spans[i].info for i in by_name.get(name, ())]

    def self_of(layer: str) -> float:
        return sum((own[i] for i, s in enumerate(spans) if s.name.startswith(layer + ".")), 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    full = [i for i in by_name.get("search.search_3_inflatable", ()) if spans[i].info[1] is None]
    limited = [i for i in by_name.get("search.search_3_inflatable", ()) if spans[i].info[1] is not None]
    m["search.cands_per_s"] = ratio(
        sum(spans[i].info[0] for i in full), sum(spans[i].duration for i in full)
    )
    m["search.first3_covered"] = sum(spans[i].info[0] for i in limited)
    if full and tracer.shard_done:
        marks = [spans[full[0]].start] + tracer.shard_done
        m["search.shard_hit_s"] = max(b - a for a, b in zip(marks, marks[1:]))
    else:
        m["search.shard_hit_s"] = 0.0

    m["core.count3_s"] = total("core.count_length3_all")
    m["core.count3_calls"] = len(infos("core.count_length3_all"))
    m["core.count3_pairs"] = sum(infos("core.count_length3_all"))
    m["core.occurrences_s"] = total("core.count_occurrences")
    m["core.occurrences_subsets"] = sum(infos("core.count_occurrences"))
    m["core.inflate_s"] = total("core.inflate")
    m["core.inflate_cells"] = sum(infos("core.inflate"))
    m["core.parse_s"] = total("core.parse_permutation")

    parts = infos("partitions.block_partitions")
    m["partitions.blocks_s"] = total("partitions.block_partitions")
    m["partitions.calls"] = len(parts)
    m["partitions.kept_ratio"] = ratio(sum(k for k, _ in parts), sum(t for _, t in parts))

    m["limits.self_s"] = self_of("limits")
    seen, repeats, calls = set(), 0, 0
    for i in by_name.get("core.density", ()):
        key = (_root(spans, i), spans[i].info)
        calls += 1
        repeats += key in seen
        seen.add(key)
    m["limits.sigma_repeat_ratio"] = ratio(repeats, calls)

    m["criteria.check_s"] = total("criteria.check_3_inflatable")
    m["criteria.self_s"] = self_of("criteria")
    m["criteria.compose_s"] = total("criteria.compose_inflatables")

    m["montecarlo.self_s"] = self_of("montecarlo")
    m["montecarlo.samples_per_s"] = ratio(
        sum(infos("montecarlo.estimate_limit_density")), total("montecarlo.estimate_limit_density")
    )
    m["cli.self_s"] = self_of("cli")
    return m


def _root(spans: list, i: int) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def run_metrics(traced: list, untraced: list, scan2_s: float, scan2_threads: int) -> dict:
    """Medians over traced iterations, plus the run-level values.

    traced holds (wall, tracer) per traced iteration; untraced holds
    (wall, op times) per untraced iteration of the same run; scan2_s is
    the time of the full scan on scan2_threads workers (0 when not run).
    """
    per_iter = [layer_metrics(tracer) for _, tracer in traced]
    out = {name: median(m[name] for m in per_iter) for name in per_iter[0]}
    ops = {}
    for _, times in untraced:
        for op, t in times.items():
            ops.setdefault(op, []).append(t)
    for name, *_ in LAYER_METRICS:
        if name.startswith("op."):
            values = ops.get(name[3:-2])
            out[name] = median(values) if values else 0.0
    out["search.scan2_s"] = scan2_s
    out["search.eff2"] = out["op.scan_s"] / (scan2_threads * scan2_s) if scan2_s else 0.0
    out["trace.overhead"] = (
        median(w for w, _ in traced) / median(w for w, _ in untraced) - 1
    )
    return {name: out[name] for name, *_ in LAYER_METRICS}

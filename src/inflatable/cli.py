"""Command-line interface.

Every subcommand prints a human-readable rendering by default and a single
JSON object with ``--json``; exact rationals serialize as "p/q" strings.
Exit status is 0 for ok and inadmissible outcomes, 2 for errors (malformed
input, impossible request, a search timeout), matching argparse's own
convention. A timed-out search still prints, and writes with ``--out``, the
partial result it reached.

Each subcommand registers one handler ``_cmd_<name>(args, stream)`` that
returns a CommandResult; ``run`` prints and writes whatever the result
holds, the same way for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence
from math import isnan

from .core import (
    PATTERNS_3,
    Perm,
    _echo_text,
    _occurrences,
    _record,
    density,
    format_permutation,
    generalized_inflate,
    inflate,
    parse_permutation,
    rotate,
)
from .criteria import (
    admissible_residues,
    check_3_inflatable,
    compose_inflatables,
    residue_multiplication_table,
)
# each of these runs on its first use (see the package docstring), so a
# command runs only the modules it calls into
from . import limits, montecarlo, partitions, plotting, search

__all__ = ["CommandResult", "run", "main"]


@_record
class CommandResult:
    """Outcome of one CLI invocation, a frozen record.

    status is "ok", "inadmissible", or "error"; payload is what is printed
    (an error prints it only when it is not empty, as for a search
    timeout); diagnostics carries human-oriented notes and error text.
    text, when set, is the human rendering in place of the payload's
    key/value lines; out, when set, is what --out writes in place of the
    printed text. Exit code is 0 unless status is "error".
    """

    status: str
    payload: dict
    diagnostics: Sequence[str] = ()
    text: str | None = None
    out: str | None = None

    @property
    def exit_code(self) -> int:
        return 2 if self.status == "error" else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="inflatable",
        description="Exact pattern-density calculus for permutation inflation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", metavar="FILE", help="also write the output to FILE")
        p.set_defaults(handler=handler)
        return p

    p = add("density", "exact pattern density t(pi, tau)", _cmd_density)
    p.add_argument("tau")
    p.add_argument("--pattern", required=True)

    p = add("counts", "all six length-3 pattern counts plus pair counts", _cmd_counts)
    p.add_argument("tau")

    p = add("inflate", "inflate tau by gamma (uniform or per-entry blocks)", _cmd_inflate)
    p.add_argument("tau")
    p.add_argument("gamma", nargs="+")

    p = add("blocks", "block partitions of a permutation", _cmd_blocks)
    p.add_argument("pi")

    p = add("limit", "exact limit density under repeated inflation", _cmd_limit)
    p.add_argument("tau")
    p.add_argument("--pattern", required=True)
    p.add_argument("--profile", metavar="FILE", help="JSON block-density profile")

    p = add("check", "3-inflatability report for a permutation", _cmd_check)
    p.add_argument("tau")

    p = add("lengths", "admissible lengths / residues for 3-inflatability", _cmd_lengths)
    p.add_argument("--max", type=int, metavar="N", help="list admissible n <= N")
    p.add_argument("--mod", type=int, default=144, metavar="M", help="residue modulus")
    p.add_argument("--table", action="store_true", help="residue product table")

    p = add("search", "scan for 3-inflatable permutations", _cmd_search)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--central", action="store_true", help="centrally symmetric only")
    p.add_argument("--limit", type=int, help="stop after this many hits")
    p.add_argument("--timeout", type=float, help="wall-clock seconds")
    p.add_argument("--emit-all", action="store_true", help="stream hits as found")

    p = add("compose", "inflate one 3-inflatable permutation by another", _cmd_compose)
    p.add_argument("tau1")
    p.add_argument("tau2")

    p = add("montecarlo", "simulate a limit density and compare to exact", _cmd_montecarlo)
    p.add_argument("tau")
    p.add_argument("--pattern", required=True)
    p.add_argument("--j", type=int, required=True, help="inflation block length")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--subset-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = add("rotate", "180-degree rotation of a permutation", _cmd_rotate)
    p.add_argument("tau")

    p = add("plot", "plot of a permutation (ascii or svg)", _cmd_plot)
    p.add_argument("tau")
    p.add_argument("--format", type=_plot_format, default="ascii", metavar="{ascii,svg}")

    # spelled out, as argparse wraps a long usage differently across Python
    # versions; set last, as add_subparsers derives the subcommands' prog from it
    indent = "\n" + " " * len("usage: inflatable ")
    ap.usage = indent.join(["%(prog)s [-h]", "{" + ",".join(sub.choices) + "}", "..."])
    return ap


def _plot_format(text: str) -> str:
    # argparse words its own invalid-choice error differently across versions
    if text not in ("ascii", "svg"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'ascii', 'svg')")
    return text


def _render_human(payload: dict) -> str:
    lines = []
    for k, v in payload.items():
        if isinstance(v, dict):
            body = ", ".join(f"{kk}: {vv}" for kk, vv in v.items())
            lines.append(f"{k}: {body}")
        elif isinstance(v, list):
            lines.append(f"{k}: {', '.join(str(x) for x in v)}")
        else:
            lines.append(f"{k}: {v}")
    return "\n".join(lines)


def _cmd_density(args, stream) -> CommandResult:
    val = density(parse_permutation(args.pattern), parse_permutation(args.tau))
    return CommandResult("ok", {"density": str(val)})


def _cmd_counts(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    if tau.n < 3:
        raise ValueError(f"need length >= 3, got {tau.n}")
    tables = _occurrences(tau, 3)
    pairs, triples = tables[2], tables[3]
    return CommandResult(
        "ok",
        {
            "n": tau.n,
            "counts": {str(p): triples.get(p, 0) for p in PATTERNS_3},
            "inv12": pairs.get(Perm((1, 2)), 0),
            "inv21": pairs.get(Perm((2, 1)), 0),
        },
    )


def _cmd_inflate(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    if len(args.gamma) == 1:
        out = inflate(tau, parse_permutation(args.gamma[0]))
    else:
        out = generalized_inflate(tau, [parse_permutation(g) for g in args.gamma])
    return CommandResult("ok", {"result": str(out), "n": out.n})


def _cmd_blocks(args, stream) -> CommandResult:
    pi = parse_permutation(args.pi)
    parts = [
        {
            "sigma": str(bp.outer),
            "blocks": [str(b) for b in bp.inner],
            "sizes": list(bp.sizes),
        }
        for bp in partitions.block_partitions(pi)
    ]
    text = "\n".join(f"σ={part['sigma']} b={','.join(part['blocks'])}" for part in parts)
    return CommandResult(
        "ok", {"pi": _echo_text(args.pi, pi), "partitions": parts}, text=text
    )


def _cmd_limit(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    pi = parse_permutation(args.pattern)
    if args.profile:
        with open(args.profile, "r", encoding="utf-8") as fh:
            profile = limits.DensityProfile.from_json(fh.read())
        val = limits.limit_density_inflation(pi, tau, profile)
    else:
        val = limits.limit_density_uniform(pi, tau)
    return CommandResult(
        "ok",
        {
            "pattern": _echo_text(args.pattern, pi),
            "tau": _echo_text(args.tau, tau),
            "limit_density": str(val),
        },
    )


def _cmd_check(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    rep = check_3_inflatable(tau)
    return CommandResult(
        "ok",
        {
            "tau": _echo_text(args.tau, tau),
            "length": rep.length,
            "admissible_length": rep.admissible_length,
            "required": {str(p): str(v) for p, v in rep.required.items()},
            "observed": {str(p): str(v) for p, v in rep.observed.items()},
            "observed_counts": {str(p): v for p, v in rep.observed_counts.items()},
            "verdict": rep.verdict,
        },
    )


def _cmd_lengths(args, stream) -> CommandResult:
    if args.table:
        table = residue_multiplication_table()
        return CommandResult(
            "ok",
            {"modulus": 144, "table": {str(r): row for r, row in table.items()}},
        )
    if args.max is not None:
        if args.max < 1:
            raise ValueError("--max must be >= 1")
        rset = set(admissible_residues(144))
        ns = [n for n in range(1, args.max + 1) if n % 144 in rset]
        return CommandResult("ok", {"max": args.max, "admissible": ns})
    return CommandResult("ok", {"residues": admissible_residues(args.mod)})


def _cmd_compose(args, stream) -> CommandResult:
    out = compose_inflatables(parse_permutation(args.tau1), parse_permutation(args.tau2))
    return CommandResult(
        "ok", {"composed": format_permutation(out, style="comma"), "n": out.n}
    )


def _cmd_rotate(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    return CommandResult(
        "ok", {"tau": _echo_text(args.tau, tau), "rotated": str(rotate(tau))}
    )


def _cmd_plot(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    art = plotting.render_ascii(tau) if args.format == "ascii" else plotting.render_svg(tau)
    return CommandResult("ok", {"format": args.format, "plot": art}, text=art)


def _cmd_montecarlo(args, stream) -> CommandResult:
    tau = parse_permutation(args.tau)
    pi = parse_permutation(args.pattern)
    est = montecarlo.estimate_limit_density(
        tau,
        pi,
        j=args.j,
        samples=args.samples,
        subset_samples=args.subset_samples,
        seed=args.seed,
    )
    exact = limits.limit_density_uniform(pi, tau)
    # one sample has no standard error; JSON has no NaN, so both are null
    stderr = None if isnan(est.stderr) else est.stderr
    z = (est.mean - float(exact)) / stderr if stderr else None
    return CommandResult(
        "ok", {"mean": est.mean, "stderr": stderr, "exact": str(exact), "z": z}
    )


def _cmd_search(args, stream) -> CommandResult:
    cfg = search.SearchConfig(
        n=args.n, central_only=args.central, limit=args.limit, timeout=args.timeout
    )
    progress = None
    if args.emit_all:
        if args.json:
            def progress(shard, batch):
                for h in batch:
                    stream.write(
                        json.dumps({"hit": str(h), "subtree": shard}, separators=(",", ":")) + "\n"
                    )
        else:
            def progress(shard, batch):
                for h in batch:
                    stream.write(f"hit subtree={shard} {h}\n")
    try:
        res = search.search_3_inflatable(cfg, progress=progress)
    except search.SearchTimeout as exc:
        res, status, diagnostics = exc, "error", [str(exc)]
    else:
        status = res.status
        diagnostics = [res.reason] if res.status == "inadmissible" else []
    payload = {
        "n": args.n,
        "space": "central" if args.central else "full",
        "scanned": res.scanned,
        "found": len(res.hits),
        "elapsed_ms": res.elapsed_ms,
    }
    out = "".join(f"{h}\n" for h in res.hits)
    return CommandResult(status, payload, diagnostics, out=out)


# built by the first run and kept: each build costs a few ms and leaves
# reference cycles that only a full garbage collection frees
_PARSER: argparse.ArgumentParser | None = None


def run(argv: list, stdout=None) -> CommandResult:
    """Parse argv, execute, print, and return the structured outcome."""
    global _PARSER
    stream = stdout if stdout is not None else sys.stdout
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message (help or usage error)
        if exc.code in (0, None):
            return CommandResult("ok", {})
        return CommandResult("error", {}, [f"argument parsing failed ({exc.code})"])
    try:
        result = args.handler(args, stream)
        if args.json:
            text = json.dumps(result.payload, separators=(",", ":"))
        elif result.text is not None:
            text = result.text
        else:
            text = _render_human(result.payload)
        # written before the result is printed, so a failed write prints none of it
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n" if result.out is None else result.out)
    except (ValueError, OSError) as exc:
        result = CommandResult("error", {}, [str(exc)])

    error = result.status == "error"
    if error:
        for note in result.diagnostics:
            print(f"error: {note}", file=sys.stderr)
        # only a search timeout fails with a payload: its partial result
        if not result.payload:
            return result

    stream.write(text + "\n")
    if not error:
        for note in result.diagnostics:
            stream.write(f"note: {note}\n")
    return result


def main(argv: list | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

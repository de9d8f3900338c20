"""Batch command-line front end: bound, construct, search, verify, correlate, table.

Exit codes: 0 success, 2 precondition refusal, 3 timeout or partial result,
4 I/O or parse error.  Machine formats render rationals as "p/q"; text output
appends a decimal approximation in parentheses.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct

from .constructions import block_product_family, majority_density, majority_family
from .families import FamilyFormatError, load_family, save_family
from .measures import (
    ParameterError,
    best_window_measure,
    format_rational,
    parse_rational,
    power_bound,
    product_allocation,
    window_product_bound,
)
from .correlation import exhaustive_correlation, random_correlation_trials, trial_pair
from .search import DEFAULT_TIMEOUT_MS, max_family
from .words import SpaceParams


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ParameterError(f"expected a comma list of integers, got {text!r}") from exc


def _scalar(value, fmt: str):
    if isinstance(value, Fraction):
        if fmt == "text":
            return f"{format_rational(value)} (~{float(value):.6g})"
        return format_rational(value)
    return value


def _normalize(obj, fmt: str):
    if isinstance(obj, dict):
        return {k: _normalize(v, fmt) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v, fmt) for v in obj]
    return _scalar(obj, fmt)


def _flatten(obj, prefix: str = "", out=None):
    out = {} if out is None else out
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", out)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def _emit_report(report: dict, fmt: str, out) -> None:
    report = _normalize(report, fmt)
    if fmt == "json":
        print(json.dumps(report, indent=2), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["key", "value"])
        for key, value in _flatten(report).items():
            if isinstance(value, list):
                value = ";".join(str(v) for v in value)
            writer.writerow([key, value])
    else:
        for key, value in _flatten(report).items():
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            print(f"{key}: {value}", file=out)


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    rows = [_normalize(r, fmt) for r in rows]
    if fmt == "json":
        print(json.dumps(rows, indent=2), file=out)
        return
    if not rows:
        return
    writer = csv.writer(out)
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([row.get(k, "") for k in header])


@contextmanager
def _output(path):
    """The stream a report goes to: a file at `path`, or stdout when no path is given."""
    if path:
        with open(path, "w", newline="") as f:
            yield f
    else:
        yield sys.stdout


def _settle_options(args, options: dict, mode: str, context: str) -> None:
    """Refuse the options given that `mode` does not read, then fill in the defaults.

    `options` maps an argparse dest to (flags, type, default, help, modes),
    flags being the option's spellings and modes those that read it.  The
    options parse as None, so one that is given is told from one left out.
    The refusal follows the context with the first spelling of each given
    option, in the order of `options`.
    """
    given = [
        flags[0]
        for dest, (flags, *_, modes) in options.items()
        if mode not in modes and getattr(args, dest) is not None
    ]
    if given:
        raise ParameterError(f"{context} does not use {', '.join(given)}")
    for dest, (_, _, default, *_) in options.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


# -- bound --------------------------------------------------------------------


# The entries of a bounds report, in order: the power bound, U (the product of each
# symbol's best window measure, a bound for every demand), then A, the count of the
# best product of window measures whose windows fit together into n.
_BOUNDS = {
    "power_bound": power_bound,
    "product_bound": window_product_bound,
    "product_allocation": product_allocation,
}


def _bound_report(n: int, s: int, t) -> dict[str, dict]:
    """One entry per name of _BOUNDS; each says whether it applies."""
    report: dict[str, dict] = {}
    for name, compute in _BOUNDS.items():
        try:
            value = compute(n, s, t)
        except ParameterError as exc:
            report[name] = {"applicable": False, "reason": str(exc)}
        else:
            if compute is power_bound:
                report[name] = {"applicable": True, "count": value}
            else:
                report[name] = {
                    "applicable": True,
                    "count": value.count,
                    "density": value.density,
                    "windows": list(value.windows),
                }
    return report


def cmd_bound(args) -> int:
    t = _parse_ints(args.t)
    report: dict = {"command": "bound", "n": args.n, "s": args.s, "t": list(t)}
    report.update(_bound_report(args.n, args.s, t))
    _emit_report(report, args.format, sys.stdout)
    if not report["product_bound"]["applicable"]:
        print(f"refusal: {report['product_bound']['reason']}", file=sys.stderr)
        return 2
    return 0


# -- construct ------------------------------------------------------------------


# The block options of construct, as _settle_options reads them; one kind reads each.
_BLOCK_OPTIONS = {
    "x1": (("--x1",), str, "", "first block positions, e.g. 1,2,3", ("binary-majority",)),
    "x2": (("--x2",), str, "", "second block positions", ("binary-majority",)),
    "x": (("--x",), str, "", "block positions for symbol-majority", ("symbol-majority",)),
    "radius": (("-r", "--radius"), int, 0, "window radius (default 0)", ("window",)),
}


def cmd_construct(args) -> int:
    if args.density_only and args.output:
        raise ParameterError("--density-only builds no family to write; drop -o")
    _settle_options(args, _BLOCK_OPTIONS, args.kind, args.kind)
    t = _parse_ints(args.t) if args.t else ()
    report: dict = {"command": "construct", "kind": args.kind}
    family = None
    if args.kind == "product":
        if args.density_only:
            density = product_allocation(args.n, args.s, t).density
        else:
            built = block_product_family(args.n, args.s, t)
            family, density = built.family, built.density
            report["blocks"] = [dataclasses.asdict(b) for b in built.blocks]
        report.update({"n": args.n, "s": args.s, "t": list(t)})
    else:
        # Every other kind is a list of majority blocks, block i for symbol i + 1.
        if args.kind == "window":  # at least t + r of the first t + 2r positions carry symbol 1
            if len(t) != 1 or args.radius < 0:
                raise ParameterError("window takes one threshold and a radius >= 0, e.g. -t 2 -r 1")
            blocks, extra = (range(1, t[0] + 2 * args.radius + 1),), {"radius": args.radius}
        else:  # the majority kinds: one block per option of the kind, in _BLOCK_OPTIONS order
            extra = {
                dest: sorted(set(_parse_ints(getattr(args, dest))))
                for dest, (*_, kinds) in _BLOCK_OPTIONS.items()
                if args.kind in kinds
            }
            blocks = tuple(extra.values())
        if args.density_only:
            density = majority_density(args.n, args.s, blocks, t)
        else:
            family = majority_family(args.n, args.s, blocks, t)
            density = family.density()
        report.update({"n": args.n, "s": args.s, "t": list(t), **extra})
    report["density"] = density
    if args.density_only:
        if args.format == "text":
            print(format_rational(density))
        else:
            _emit_report(report, args.format, sys.stdout)
        return 0
    report["size"] = len(family)
    if args.output:
        save_family(family, args.output)
        report["output"] = args.output
    _emit_report(report, args.format, sys.stdout)
    return 0


# -- search ---------------------------------------------------------------------


def cmd_search(args) -> int:
    t = _parse_ints(args.t)
    result = max_family(args.n, args.s, t, timeout_ms=args.timeout_ms)
    if args.output:
        save_family(result.witness, args.output)
    report = {
        "n": args.n,
        "s": args.s,
        "t": list(t),
        "max": result.max_size,
        "witness_file": args.output or None,
        "vertices": result.stats.vertices,
        "nodes": result.nodes,
        "orbits": result.orbits,
        "rule": result.stats.rule,
        "ms": int(result.elapsed * 1000),
        "phase_ms": {
            name: round(getattr(result.stats, name) * 1000, 3)
            for name in ("build", "orbits", "greedy", "branch")
        },
        "incumbent": result.stats.incumbent,
        "complete": result.complete,
        "density": result.density(),
    }
    _emit_report(report, args.format, sys.stdout)
    if not result.complete:
        print("timeout: the reported size is a lower bound only", file=sys.stderr)
        return 3
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    family = load_family(args.family)
    params = family.params
    report: dict = {
        "command": "verify",
        "path": args.family,
        "s": params.s,
        "n": params.n,
        "size": len(family),
        "density": family.density(),
    }
    report["complete_for"] = {
        str(sym): family.is_pinned_complete({sym}) for sym in range(1, params.s + 1)
    }
    if args.t:
        t = _parse_ints(args.t)
        report["t"] = list(t)
        report["intersecting"] = family.is_t_intersecting(t)
        report.update(_bound_report(params.n, params.s, t))
        for entry in (report["power_bound"], report["product_bound"]):
            if entry["applicable"]:
                entry["size_within"] = len(family) <= entry["count"]
    _emit_report(report, args.format, sys.stdout)
    return 0


# -- correlate --------------------------------------------------------------------


# The CorrelationCheck attributes that make one trial row, in column order.
_TRIAL_FIELDS = ("seed", "size_a", "size_b", "common", "lhs", "rhs", "slack")

# The random-mode options of correlate, by argparse dest: flags, type, default, help, modes.
_RANDOM_OPTIONS = {
    "n": (("-n",), int, 2, "word length (random mode, default 2)", ("random",)),
    "trials": (("--trials",), int, 200, "number of trials (random mode, default 200)", ("random",)),
    "seed": (("--seed",), int, 0, "seed of the first trial (random mode, default 0)", ("random",)),
}


def cmd_correlate(args) -> int:
    pins_a = _parse_ints(args.pins_a)
    pins_b = _parse_ints(args.pins_b)
    mode = "exhaustive" if args.exhaustive else "random"
    _settle_options(args, _RANDOM_OPTIONS, mode, "--exhaustive")
    if args.exhaustive:
        n = 1
        checks = exhaustive_correlation(args.s, pins_a, pins_b)
    else:
        n = args.n
        checks = random_correlation_trials(
            args.s, args.n, pins_a, pins_b, args.trials, seed_base=args.seed
        )
    rows = [{name: getattr(c, name) for name in _TRIAL_FIELDS} for c in checks]
    report = {
        "command": "correlate",
        "mode": mode,
        "s": args.s,
        "n": n,
        "pins_a": sorted(set(pins_a)),
        "pins_b": sorted(set(pins_b)),
        "checks": len(checks),
        "informative": sum(1 for c in checks if c.slack > 0),
        "min_slack": min((c.slack for c in checks), default=0),
        "violations": sum(1 for c in checks if not c.holds),
    }
    # A violation would mean an implementation bug: dump both families so the
    # exact pair can be replayed.
    failing = [c for c in checks if not c.holds and c.seed is not None]
    if failing:
        replay = []
        params = SpaceParams(args.s, n)
        for c in failing:
            pair = trial_pair(params, pins_a, pins_b, c.seed)
            for fam, side in zip(pair, "ab"):
                path = f"violation_seed{c.seed}_{side}.fam"
                save_family(fam, path)
                replay.append(path)
        report["replay_files"] = replay
    if args.format == "json":
        report["trials"] = rows
    with _output(args.output) as out:
        if args.format == "csv":
            _emit_rows(rows, "csv", out)
        else:
            _emit_report(report, args.format, out)
    return 0


# -- table ------------------------------------------------------------------------


def _demand_sweep(s: int, n: int, t_max: int):
    for t in iproduct(range(min(t_max, n) + 1), repeat=s):
        if sum(t) <= n:
            yield t


# The options of table that only some --what values read, as in _RANDOM_OPTIONS.
_TABLE_OPTIONS = {
    "n": (("-n",), int, 8, "ground-set size (measures, default 8)", ("measures",)),
    "n_max": (
        ("--n-max",), int, 4, "largest n (bounds and oracle, default 4)", ("bounds", "oracle")
    ),
    "p": (("-p",), str, None, "bias as p/q (measures, default 1/s)", ("measures",)),
    "timeout_ms": (
        ("--timeout-ms",),
        int,
        DEFAULT_TIMEOUT_MS,
        f"search timeout per row (oracle, default {DEFAULT_TIMEOUT_MS})",
        ("oracle",),
    ),
}


def cmd_table(args) -> int:
    _settle_options(args, _TABLE_OPTIONS, args.what, f"--what {args.what}")
    rows: list[dict] = []
    if args.what in ("bounds", "oracle"):
        t_max = args.t_max if args.t_max is not None else args.n_max
        for n in range(1, args.n_max + 1):
            for t in _demand_sweep(args.s, n, t_max):
                power, product, allocation = _bound_report(n, args.s, t).values()
                if not allocation["applicable"]:
                    raise ParameterError(allocation["reason"])
                row: dict = {
                    "n": n,
                    "s": args.s,
                    "t": ",".join(map(str, t)),
                    "power_bound": power.get("count", ""),
                    "product_count": product.get("count", ""),
                    "product_density": product.get("density", ""),
                    "allocated_count": allocation["count"],
                }
                if args.what == "oracle":
                    result = max_family(n, args.s, t, timeout_ms=args.timeout_ms)
                    row["oracle_max"] = result.max_size
                    row["oracle_density"] = result.density()
                    row["oracle_complete"] = result.complete
                rows.append(row)
    elif args.what == "measures":
        p = parse_rational(args.p) if args.p else Fraction(1, args.s)
        t_max = args.t_max if args.t_max is not None else args.n
        for t in range(0, min(t_max, args.n) + 1):
            sel = best_window_measure(args.n, t, p)
            rows.append(
                {
                    "n": args.n,
                    "t": t,
                    "p": p,
                    "radius": sel.radius,
                    "radius_cap": sel.radius_cap,
                    "value": sel.value,
                }
            )
    with _output(args.output) as out:
        _emit_rows(rows, args.format, out)
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isecode",
        description="Exact computations on intersection-constrained word families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, table, *dests):
        for dest in dests:
            flags, kind, _, text, _ = table[dest]
            p.add_argument(*flags, dest=dest, type=kind, help=text)

    def common(p, *, n=False, s=False, t=None):
        if n:
            p.add_argument("-n", type=int, required=True, help="word length")
        if s:
            p.add_argument("-s", type=int, required=True, help="alphabet size")
        if t is not None:  # t says whether -t is required
            p.add_argument("-t", type=str, required=t, help="demand vector, e.g. 1,1,0")
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format",
        )

    p = sub.add_parser("bound", help="size bounds for a demand vector")
    common(p, n=True, s=True, t=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="build an explicit family")
    p.add_argument(
        "kind", choices=("product", "binary-majority", "symbol-majority", "window")
    )
    common(p, n=True, t=False)
    p.add_argument("-s", type=int, default=2, help="alphabet size (default 2)")
    options(p, _BLOCK_OPTIONS, *_BLOCK_OPTIONS)
    p.add_argument("-o", "--output", type=str, help="family file to write (.famb: binary)")
    p.add_argument(
        "--density-only",
        action="store_true",
        help="emit only the exact density, without materializing",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="exact maximum family via branch and bound")
    common(p, n=True, s=True, t=True)
    p.add_argument("--timeout-ms", type=int, default=DEFAULT_TIMEOUT_MS)
    p.add_argument("-o", "--output", type=str, help="witness family file to write (.famb: binary)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="report properties of a family file")
    p.add_argument("family", type=str)
    p.add_argument("-t", type=str, help="demand vector to test")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("correlate", help="negative-correlation checks")
    common(p, s=True)
    p.add_argument("--pins-a", type=str, required=True, help="pinned symbols of side A")
    p.add_argument("--pins-b", type=str, required=True, help="pinned symbols of side B")
    p.add_argument("--exhaustive", action="store_true", help="all complete pairs at n = 1")
    options(p, _RANDOM_OPTIONS, *_RANDOM_OPTIONS)
    p.add_argument("-o", "--output", type=str)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("table", help="sweep a parameter grid")
    p.add_argument("--what", choices=("bounds", "oracle", "measures"), default="bounds")
    p.add_argument("-s", type=int, default=3)
    options(p, _TABLE_OPTIONS, "n", "n_max")
    p.add_argument("--t-max", type=int, default=None)
    options(p, _TABLE_OPTIONS, "p", "timeout_ms")
    p.add_argument("-o", "--output", type=str)
    p.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FamilyFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

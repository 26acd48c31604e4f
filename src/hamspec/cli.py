"""Command-line front door.

Subcommands: analyze, closure, oracle, generate, validate, remark.
Exit codes: 0 success, 1 validation run with violations, 2 input error.
Floating-point values are emitted with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .graph import Graph
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .families import FAMILY_PARAMS, construct, family_spec
from .closure import k_closure
from .hamilton import CapacityError, hamilton_profile
from .spectral import bound_suite, spectral_summary
from .certify import CriterionId, apply_criterion, criterion_order_minimum
from .harness import ValidationMode, remark_scan, validate


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _render_text(value, key="", indent=0) -> list[str]:
    pad = "  " * indent
    label = f"{pad}{key}: " if key else pad
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key else []
        for k, v in value.items():
            lines.extend(_render_text(v, k, indent + (1 if key else 0)))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [label + "[" + ", ".join(_scalar_text(v) for v in value) + "]"]
        lines = [f"{pad}{key}:"] if key else []
        for v in value:
            lines.extend(_render_text(v, "-", indent + (1 if key else 0)))
        return lines
    return [label + _scalar_text(value)]


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(payload, args) -> None:
    payload = _round12(payload)
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(_render_text(payload))
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", help="write the report here instead of stdout")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g6", help="a single graph6 string")
    p.add_argument("--file", help="newline-delimited graph6 file")
    p.add_argument("--family", choices=sorted(FAMILY_PARAMS), help="family name")
    _add_family_params(p)


# one flag per constructor parameter name, in first-seen order
_FAMILY_FLAGS = tuple(dict.fromkeys(name for names in FAMILY_PARAMS.values() for name in names))


def _add_family_params(p: argparse.ArgumentParser) -> None:
    for name in _FAMILY_FLAGS:
        if name == "connections":  # the one list-valued parameter
            p.add_argument("--connections", help="comma-separated circulant offsets")
        else:
            p.add_argument(f"--{name}", type=int)


def _int(text: str, source: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{source}: not an integer: {text!r}") from None


def _given_family_flags(args) -> dict:
    return {n: getattr(args, n) for n in _FAMILY_FLAGS if getattr(args, n) is not None}


def _family_graph(args) -> Graph:
    """Every family flag given goes to family_spec, which rejects one the
    family does not take."""
    given = _given_family_flags(args)
    missing = [name for name in FAMILY_PARAMS[args.family] if name not in given]
    if missing:
        raise ValueError(f"family {args.family!r} needs --{missing[0]}")
    if "connections" in given:
        given["connections"] = [_int(x, "--connections")
                                for x in given["connections"].split(",") if x.strip()]
    return construct(family_spec(args.family, **given))


def _input_graphs(args) -> list[Graph]:
    sources = [s for s in ("g6", "file", "family") if getattr(args, s) is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --g6, --file, --family is required")
    if args.family is not None:
        return [_family_graph(args)]
    stray = list(_given_family_flags(args))
    if stray:
        raise ValueError(f"--{stray[0]} needs --family")
    if args.g6 is not None:
        return [parse_graph6(args.g6)]
    graphs = []
    # latin-1 maps every byte to the code point of its value, so a byte
    # outside graph6's range reaches the parser and is named with its line
    with open(args.file, encoding="latin-1") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    graphs.append(parse_graph6(line))
                except Graph6Error as exc:
                    raise ValueError(f"{args.file} line {number}: {exc}") from exc
    if not graphs:
        raise ValueError(f"no graph6 lines in {args.file}")
    return graphs


def _analyze_one(g: Graph, args) -> dict:
    summary = spectral_summary(g)
    payload = {
        "graph6": write_graph6(g),
        "order": g.n,
        "spectral": summary.to_json_dict(),
        "bounds": [b.to_json_dict() for b in bound_suite(g, summary)],
        "criteria": [],
        "criteria_skipped": [],
    }
    for criterion in CriterionId:
        minimum = criterion_order_minimum(criterion)
        if g.n < minimum:
            payload["criteria_skipped"].append(
                {"criterion": criterion.value, "reason": f"requires order >= {minimum}"})
        else:
            payload["criteria"].append(apply_criterion(g, criterion).to_json_dict())
    try:
        payload["oracle"] = hamilton_profile(g, args.oracle_cap).to_json_dict()
        payload["oracle_skipped"] = None
    except CapacityError as exc:
        payload["oracle"] = None
        payload["oracle_skipped"] = str(exc)
    return payload


def _closure_one(g: Graph, args) -> dict:
    result = k_closure(g, args.k)
    return {
        "graph6": write_graph6(g),
        "k": result.k,
        "closed_graph6": write_graph6(result.graph),
        "added_edges": [list(e) for e in result.added_edges],
        "edges_added": len(result.added_edges),
    }


def _oracle_one(g: Graph, args) -> dict:
    return {**hamilton_profile(g, args.oracle_cap).to_json_dict(), "graph6": write_graph6(g)}


def _cmd_per_graph(args) -> int:
    """analyze, closure and oracle: `args.report(g, args)` for each input
    graph, one report for one graph and a list for several."""
    reports = [args.report(g, args) for g in _input_graphs(args)]
    _emit(reports[0] if len(reports) == 1 else reports, args)
    return 0


def _cmd_generate(args) -> int:
    g = _family_graph(args)
    g6 = write_graph6(g)
    _emit(g6 if args.format == "text" else
          {"family": args.family, "order": g.n, "edge_count": g.edge_count, "graph6": g6}, args)
    return 0


def _parse_criterion(name: str) -> CriterionId:
    for criterion in CriterionId:
        if name == criterion.value or name == criterion.value.split("_")[0]:
            return criterion
    raise ValueError(f"unknown criterion {name!r}; use one of "
                     + ", ".join(c.value.split("_")[0] for c in CriterionId))


def _cmd_validate(args) -> int:
    criterion = _parse_criterion(args.criterion)
    orders = [_int(x, "--orders") for x in args.orders.split(",") if x.strip()]
    if not math.isfinite(args.threshold_shift):
        raise ValueError(f"--threshold-shift must be finite, got {args.threshold_shift}")
    report = validate(criterion, orders, ValidationMode(args.mode), samples=args.samples,
                      p=args.p, seed=args.seed, threshold_shift=args.threshold_shift)
    _emit(report.to_json_dict(), args)
    return 0 if report.passed else 1


def _cmd_remark(args) -> int:
    rows = remark_scan(range(args.r_min, args.r_max + 1), oracle_cap=args.oracle_cap)
    _emit({"rows": [row.to_json_dict() for row in rows]}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamspec",
        description="Spectral certificates and exact oracles for Hamiltonian structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, report, flag, required in (
            ("analyze", "spectral summary, bounds, criteria and oracle", _analyze_one,
             "--oracle-cap", False),
            ("closure", "degree-sum closure with the added-edge list", _closure_one, "--k", True),
            ("oracle", "exact Hamiltonicity answers", _oracle_one, "--oracle-cap", False)):
        p = sub.add_parser(name, help=help_text)
        _add_input_flags(p)
        p.add_argument(flag, type=int, required=required)
        _add_io_flags(p)
        p.set_defaults(func=_cmd_per_graph, report=report)

    p = sub.add_parser("generate", help="emit a family member as graph6")
    p.add_argument("--family", choices=sorted(FAMILY_PARAMS), required=True)
    _add_family_params(p)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="criterion soundness over a graph corpus")
    p.add_argument("--criterion", required=True,
                   help="T31, T32, T33, T34, T41 or T42 (long names accepted)")
    p.add_argument("--orders", required=True, help="comma-separated orders")
    p.add_argument("--mode", choices=[m.value for m in ValidationMode], default="exhaustive")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threshold-shift", type=float, default=0.0,
                   help="fault-injection hook for self-tests; shifts the threshold")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("remark", help="scan the adjacency-vs-signless comparison family")
    p.add_argument("--r-min", type=int, default=2)
    p.add_argument("--r-max", type=int, default=3)
    p.add_argument("--oracle-cap", type=int)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_remark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, ValueError, OSError) as exc:  # Graph6Error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands: cheeger (solve one polygon), table1 (the decay table),
verify (named acceptance checks), optimize (greedy Blaschke ascent).
Exit codes: 0 success, 1 closed output pipe, 2 invalid input, 3 failed check.
Outputs are deterministic: the same invocation produces identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .arcs import GeometryError, svg_path_data
from .blaschke import local_maximize, trajectory_csv
from .bounds import table1, table1_check, table1_csv
from .cheeger import CheegerSolution, cheeger_set
from .polygon import (InvalidPolygon, ReuleauxPolygon, as_region,
                      polygon_from_json, random_polygon, regular)
from .verify import CHECKS, run_checks

SVG_SCALE = 420.0
SVG_SIZE = 1000.0


def _load_polygon(args) -> ReuleauxPolygon:
    picked = [x for x in (args.regular, args.random, args.input) if x is not None]
    if len(picked) != 1:
        raise SystemExit2("pick exactly one of --regular, --random, --input")
    if args.regular is not None:
        return regular(args.regular)
    if args.random is not None:
        parts = args.random.split(",")
        if len(parts) != 3:
            raise SystemExit2("--random wants N,steps,seed")
        try:
            N, steps, seed = (int(p) for p in parts)
        except ValueError as exc:
            raise SystemExit2(f"--random wants integers: {exc}")
        if steps < 0 or seed < 0:
            raise SystemExit2("--random wants steps >= 0 and seed >= 0")
        return random_polygon(N, steps, seed)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read polygon JSON: {exc}")
    return polygon_from_json(data)


class SystemExit2(Exception):
    """Input or validation problem; the CLI maps it to exit code 2."""


def _svg_overlay(poly: ReuleauxPolygon,
                 sol: CheegerSolution | None = None) -> str:
    """SVG of the body and, given its Cheeger solution, its inner parallel
    body and Cheeger set."""
    layers = [(as_region(poly), "#000000")]
    if sol is not None:
        layers += [(sol.inner, "#1f77b4"), (sol.cheeger_set, "#d62728")]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {SVG_SIZE:.0f} {SVG_SIZE:.0f}">']
    for region, color in layers:
        d = svg_path_data(region, SVG_SCALE, SVG_SIZE / 2.0, SVG_SIZE / 2.0)
        parts.append(f'  <path d="{d}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_cheeger(args) -> int:
    poly = _load_polygon(args)
    sol = cheeger_set(poly, tol=args.tol)
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(_svg_overlay(poly, sol))
        except OSError as exc:
            raise SystemExit2(f"cannot write SVG: {exc}")
    payload = {"R": sol.R, "h": sol.h,
               "contacts": [[l, lo, hi] for l, lo, hi in sol.contacts]}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        lines = [f"R,{sol.R!r}", f"h,{sol.h!r}"]
        for l, lo, hi in sol.contacts:
            lines.append(f"contact,{l},{lo!r},{hi!r}")
        print("\n".join(lines))
    else:  # svg to stdout
        print(_svg_overlay(poly, sol), end="")
    return 0


def cmd_table1(args) -> int:
    rows = table1() if args.n is None else [r for r in table1() if r.N == args.n]
    if args.n is not None and not rows:
        raise SystemExit2(f"no table row for N = {args.n}")
    if args.format == "json":
        print(json.dumps([{"N": r.N, "sides": r.sides, "tau": r.tau,
                           "h_max": r.h_max, "h_min": r.h_min}
                          for r in rows], indent=2))
    else:
        print(table1_csv(rows), end="")
    if args.check:
        bad = table1_check(rows)
        if bad:
            for line in bad:
                print(f"mismatch: {line}", file=sys.stderr)
            return 3
    return 0


def cmd_verify(args) -> int:
    names = args.only if args.only else None
    try:
        results = run_checks(names)
    except KeyError as exc:
        raise SystemExit2(str(exc))
    if args.format == "json":
        print(json.dumps([{"name": r.name, "passed": r.passed,
                           "runtime": round(r.runtime, 3),
                           "message": r.message, "details": r.details}
                          for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.message} ({r.runtime:.2f}s)")
            if not r.passed or args.verbose:
                for line in r.details:
                    print(f"    {line}")
    return 0 if all(r.passed for r in results) else 3


def cmd_optimize(args) -> int:
    poly = _load_polygon(args)
    traj = local_maximize(poly, max_iters=args.iters)
    if args.format == "json":
        payload = {"outcome": traj.outcome, "h": traj.final_h,
                   "steps": [{"iteration": s.iteration, "k": s.k, "eps": s.eps,
                              "h": s.h, "residual_max": s.residual_max}
                             for s in traj.steps]}
        print(json.dumps(payload, indent=2))
    else:
        print(trajectory_csv(traj), end="")
    print(f"outcome: {traj.outcome}, final h = {traj.final_h!r}, "
          f"{len(traj.steps) - 1} accepted moves", file=sys.stderr)
    return 0


def _nonnegative(kind):
    """argparse type: a finite number of the given kind, at least 0."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite {kind.__name__} >= 0, got {text}")
        return value
    return parse


def _add_polygon_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--regular", type=int, metavar="N",
                   help="regular polygon with 2N+1 arcs")
    p.add_argument("--random", metavar="N,STEPS,SEED",
                   help="seeded random Blaschke walk")
    p.add_argument("--input", metavar="FILE",
                   help="polygon JSON with a 'vertices' array")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reuleaux",
        description="Cheeger constants and shape bounds for Reuleaux polygons")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cheeger", help="solve the Cheeger problem for one polygon")
    _add_polygon_options(p)
    p.add_argument("--tol", type=_nonnegative(float), default=1e-12)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--svg", metavar="FILE",
                   help="also write an SVG overlay (body, inner set, Cheeger set)")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("table1", help="decay-rate table for critical polygons")
    p.add_argument("--n", type=int, help="single row N (default: 2..9)")
    p.add_argument("--check", action="store_true",
                   help="compare against the frozen reference digits")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="run named verification checks")
    p.add_argument("--only", action="append", metavar="NAME",
                   help=f"run a subset (known: {', '.join(CHECKS)})")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true",
                   help="print detail lines for passing checks too")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="greedy Blaschke ascent of h")
    _add_polygon_options(p)
    p.add_argument("--iters", type=_nonnegative(int), default=500)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_optimize)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (SystemExit2, InvalidPolygon, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: silence the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

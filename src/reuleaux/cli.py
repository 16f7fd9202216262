"""Command line interface.

Subcommands: cheeger (solve one polygon), table1 (the decay table),
verify (named acceptance checks), optimize (greedy Blaschke ascent),
sweep (verify's random walks as CSV), figures (SVG overlays to a directory).
Exit codes: 0 success, 1 output not writable, 2 invalid input, 3 failed
check; `sweep` exits 3 like a failed check when a walk beats the triangle.
Outputs are deterministic: the same invocation produces identical bytes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .arcs import ArcRegion, GeometryError
from .blaschke import local_maximize, trajectory_csv
from .bounds import table1, table1_check, table1_csv
from .cheeger import CheegerSolution, cheeger_set
from .minarea import profile
from .polygon import (InvalidPolygon, ReuleauxPolygon, VertexCountError,
                      as_region, polygon_from_json, random_polygon, regular)
from .verify import CHECKS, h_triangle, run_checks, sweep_walks

SVG_SCALE = 420.0
SVG_SIZE = 1000.0


# The most arcs a polygon given on the command line may have. The solve is
# linear in n (at this cap `cheeger` peaks at 33 MiB resident, x86-64,
# numpy 2.4); the cap guards the quadratic parts of building a polygon
# from outside vertices: the pairwise width test and the minimal enclosing
# circle.
MAX_ARCS = 2001


def _check_arc_count(n: int) -> None:
    if n > MAX_ARCS:
        raise VertexCountError(f"{n} arcs; at most {MAX_ARCS} are accepted")


def _load_polygon(args) -> ReuleauxPolygon:
    picked = [x for x in (args.regular, args.random, args.input) if x is not None]
    if len(picked) != 1:
        raise SystemExit2("pick exactly one of --regular, --random, --input")
    if args.regular is not None:
        _check_arc_count(2 * args.regular + 1)
        return regular(args.regular)
    if args.random is not None:
        parts = args.random.split(",")
        if len(parts) != 3:
            raise SystemExit2("--random wants N,steps,seed")
        try:
            N, steps, seed = (int(p) for p in parts)
        except ValueError as exc:
            raise SystemExit2(f"--random wants integers: {exc}")
        _check_arc_count(2 * N + 1)
        return random_polygon(N, steps, seed)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read polygon JSON: {exc}")
    # count the raw list: building the polygon is quadratic in its length
    if isinstance(data, dict) and isinstance(data.get("vertices"), list):
        _check_arc_count(len(data["vertices"]))
    return polygon_from_json(data)


class SystemExit2(Exception):
    """Input or validation problem; the CLI maps it to exit code 2."""


def _svg_path(region: ArcRegion) -> str:
    """SVG path data of a region's arc chain, y axis flipped for the screen.

    Math-ccw arcs appear counterclockwise on screen as SVG sweep-flag 0, and
    a sweep above pi needs the large-arc flag. The regions drawn here are
    bodies, inner bodies and Cheeger sets: never a point or a full circle.
    """
    o = SVG_SIZE / 2.0
    cx, cy = region.centre.T
    r, start, sweep = region.radius, region.start, region.sweep
    x0 = o + SVG_SCALE * (cx[0] + r[0] * np.cos(start[0]))
    y0 = o - SVG_SCALE * (cy[0] + r[0] * np.sin(start[0]))
    # each arc's end point
    end = start + sweep
    x = (o + SVG_SCALE * (cx + r * np.cos(end))).tolist()
    y = (o - SVG_SCALE * (cy + r * np.sin(end))).tolist()
    d = [f"M {x0:.4f} {y0:.4f}"]
    d += [f"A {q:.4f} {q:.4f} 0 {int(large)} 0 {u:.4f} {v:.4f}"
          for q, large, u, v in zip((SVG_SCALE * r).tolist(),
                                    (sweep > math.pi).tolist(), x, y)]
    d.append("Z")
    return " ".join(d)


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
        parts.append(f'  <path d="{_svg_path(region)}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
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
    results = run_checks(args.only)
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


def cmd_sweep(args) -> int:
    h_tri, best = h_triangle(), None
    t0 = time.perf_counter()
    print("seed,n_arcs,h,inradius,min_arc")
    for seed, poly, R in sweep_walks(args.count):
        h = 1.0 / R
        print(f"{seed},{poly.n},{h!r},{poly.inradius!r},"
              f"{float(poly.arc_lengths.min())!r}")
        best = (seed, h, poly.n) if best is None or h > best[1] else best
    print(f"# {args.count} polygons in {time.perf_counter() - t0:.1f}s",
          file=sys.stderr)
    top = ("no polygon made" if best is None else
           f"max h = {best[1]:.9f} at seed {best[0]} ({best[2]} arcs)")
    print(f"# {top}; triangle value {h_tri:.9f}", file=sys.stderr)
    if best is not None and best[1] > h_tri + 1e-9:
        print("# WARNING: a random polygon beat the triangle", file=sys.stderr)
        return 3
    return 0


def cmd_figures(args) -> int:
    figures = {name: _svg_overlay(poly, cheeger_set(poly)) for name, poly in [
        ("triangle.svg", regular(1)),
        ("pentagon.svg", regular(2)),
        ("perturbed.svg", random_polygon(3, 40, seed=21))]}
    figures["minarea_0.45.svg"] = _svg_overlay(profile(0.45).polygon)
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, svg in figures.items():
            (outdir / name).write_text(svg, encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write figures: {exc}")
    for name in figures:
        print(f"wrote {outdir / name}")
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
    p.add_argument("--only", action="append", choices=tuple(CHECKS),
                   metavar="NAME",
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

    p = sub.add_parser("sweep", help="verify's random walks as CSV")
    p.add_argument("--count", type=_nonnegative(int), default=200,
                   help="number of polygons (seeds 0..count-1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="write four SVG overlays")
    p.add_argument("--output-dir", default="figures")
    p.set_defaults(func=cmd_figures)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a write error raises here, not at exit
        return code
    except (SystemExit2, InvalidPolygon, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # stdout: a closed pipe, a full disk
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        # silence the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Render SVG figures: Cheeger sets and minimal-area shapes.

Produces, in the output directory:
  triangle.svg        Reuleaux triangle with inner body and Cheeger set
  pentagon.svg        regular 5-arc polygon, same overlay
  perturbed.svg       a random 7-arc polygon, same overlay
  minarea_0.45.svg    the area-minimizing 5-arc shape at inradius 0.45
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from reuleaux import cheeger_set, profile, random_polygon, regular
from reuleaux.cli import _svg_overlay


def overlay(poly) -> str:
    return _svg_overlay(poly, cheeger_set(poly))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-dir", default="figures")
    args = ap.parse_args(argv)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    figures = {
        "triangle.svg": overlay(regular(1)),
        "pentagon.svg": overlay(regular(2)),
        "perturbed.svg": overlay(random_polygon(3, 40, seed=21)),
        "minarea_0.45.svg": _svg_overlay(profile(0.45).polygon),
    }
    for name, svg in figures.items():
        (outdir / name).write_text(svg, encoding="utf-8")
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

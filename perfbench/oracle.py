"""Independent checks of the library's outputs.

Nothing here calls the library's geometry kernel (disk intersection, arc
regions, the Cheeger solver). The area check integrates the inner parallel
body radially with Gauss-Legendre quadrature, the same method as the verify
suite's radial oracle but written out again here, and finds the corner
angles that split the quadrature from plain circle-circle intersections.
"""
from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi
# slack on the triangle bound, as in the verify sweep
H_SLACK = 1e-9
# |quadrature area - pi R^2|; the solver's R is good to ~1e-12
AREA_TOL = 1e-9
# unit-distance and width tolerance of a Reuleaux polygon's vertices
WIDTH_TOL = 1e-9
# |R - R'| between two solves of one polygon: the solver's R is good to
# 1e-12, so two correct solves differ by up to 2e-12; 5x slack on that
SAME_R_TOL = 1e-11


def corner_angles(centers: np.ndarray, radius: float) -> np.ndarray:
    """Polar angles of the corners of the intersection of disks B(c, radius).

    A corner is a point where two of the circles cross and that lies in
    every disk. Near-tangent crossings may add spurious angles; they only
    split a smooth piece of the quadrature in two, which is harmless.
    """
    i, j = np.triu_indices(len(centers), 1)
    a, b = centers[i], centers[j]
    chord = b - a
    d = np.hypot(chord[:, 0], chord[:, 1])
    ok = (d > 1e-15) & (d < 2.0 * radius)
    a, chord, d = a[ok], chord[ok], d[ok]
    h = np.sqrt(radius * radius - 0.25 * d * d)
    mid = a + 0.5 * chord
    perp = np.stack([-chord[:, 1], chord[:, 0]], axis=1) / d[:, None]
    pts = np.concatenate([mid + h[:, None] * perp, mid - h[:, None] * perp])
    dist = np.hypot(pts[:, None, 0] - centers[None, :, 0],
                    pts[:, None, 1] - centers[None, :, 1])
    inside = dist.max(axis=1) <= radius + 1e-9
    return np.arctan2(pts[inside, 1], pts[inside, 0])


def radial_area(centers: np.ndarray, radius: float, order: int = 50) -> float:
    """Area of the intersection of disks B(c, radius) about the origin.

    area = 1/2 * integral over phi of rho(phi)^2, rho the first exit from
    any circle along direction phi; the origin must lie inside every disk.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    phis = np.unique(np.mod(corner_angles(centers, radius), TAU))
    if len(phis) == 0:
        phis = np.array([0.0])
    vx = centers[:, 0][:, None]
    vy = centers[:, 1][:, None]
    r2 = vx * vx + vy * vy
    total = 0.0
    for k, lo in enumerate(phis):
        hi = phis[k + 1] if k + 1 < len(phis) else phis[0] + TAU
        if hi <= lo + 1e-15:
            continue
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        phi = mid + half * nodes
        proj = vx * np.cos(phi) + vy * np.sin(phi)
        disc = proj * proj + radius * radius - r2
        rho = (proj + np.sqrt(np.maximum(disc, 0.0))).min(axis=0)
        total += half * float(np.sum(weights * 0.5 * rho * rho))
    return total


def check_reuleaux(vertices: np.ndarray, n: int) -> list[str]:
    """A width-one Reuleaux polygon with n vertices: unit steps, diameter 1."""
    v = np.asarray(vertices, dtype=float)
    if v.shape != (n, 2):
        return [f"expected {n} vertices, got shape {v.shape}"]
    step = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
    if np.abs(step - 1.0).max() > WIDTH_TOL:
        return [f"adjacent vertices off unit distance by "
                f"{np.abs(step - 1.0).max():.2e}"]
    diam = np.hypot(v[:, None, 0] - v[None, :, 0],
                    v[:, None, 1] - v[None, :, 1]).max()
    if diam > 1.0 + WIDTH_TOL:
        return [f"diameter {diam!r} > 1"]
    return []


def check_cheeger(vertices: np.ndarray, R: float, h_triangle: float) -> list[str]:
    """|inner parallel body at depth R| = pi R^2 and h = 1/R <= h(triangle)."""
    fails = []
    if not 0.0 < R < 0.5:
        return [f"R = {R!r} outside (0, 1/2)"]
    h = 1.0 / R
    if h > h_triangle + H_SLACK:
        fails.append(f"h = {h!r} exceeds h(triangle) = {h_triangle!r}")
    v = np.asarray(vertices, dtype=float)
    # the incenter (origin) lies in the inner body only for R <= inradius
    if np.hypot(v[:, 0], v[:, 1]).max() > 1.0 - R + 1e-12:
        fails.append(f"R = {R!r} deeper than the inradius")
        return fails
    gap = radial_area(v, 1.0 - R) - math.pi * R * R
    if abs(gap) > AREA_TOL:
        fails.append(f"|inner body| - pi R^2 = {gap:.3e} at R = {R!r}")
    return fails


def check_ascent(hs: list[float]) -> list[str]:
    """h never decreases along an accepted trajectory."""
    drops = [k for k in range(1, len(hs)) if hs[k] < hs[k - 1]]
    if drops:
        k = drops[0]
        return [f"h decreases at step {k}: {hs[k - 1]!r} -> {hs[k]!r}"]
    return []


def check_same_h(h: float, h_ref: float) -> list[str]:
    """Two solves of one polygon agree to within the solver's accuracy on R."""
    gap = abs(1.0 / h - 1.0 / h_ref)
    if gap > SAME_R_TOL:
        return [f"h = {h!r} where {h_ref!r} was solved before "
                f"(|R - R'| = {gap:.2e})"]
    return []

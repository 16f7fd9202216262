"""Cheeger constants of Reuleaux polygons.

For a convex body, the Cheeger constant is h = 1/R where R solves
|inner parallel body at depth R| = pi R^2, and the Cheeger set is the
Minkowski sum of that inner body with a disk of radius R. For a Reuleaux
polygon the inner body at depth R is the intersection of disks of radius
1-R about the vertices, so everything reduces to equal-radius disk geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .arcs import (SQRT3, TANGENCY_TOL, TAU, ArcRegion, GeometryError,
                   _clip_region, _star_intervals, _star_pairs, _StarPairs,
                   area, minkowski_disk_sum, perimeter)
from .polygon import ReuleauxPolygon


@dataclass(frozen=True)
class CheegerSolution:
    """Cheeger data of one polygon.

    contacts lists (arc index, interval start, interval end) for every arc
    whose boundary survives on the inner parallel body; the same intervals
    are where the Cheeger set touches the polygon boundary.
    """

    R: float
    h: float
    inner: ArcRegion
    cheeger_set: ArcRegion
    contacts: tuple[tuple[int, float, float], ...]

    def contact_for(self, l: int) -> tuple[float, float] | None:
        for k, lo, hi in self.contacts:
            if k == l:
                return (lo, hi)
        return None


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-12) -> float:
    """Plain bisection for a sign change on [lo, hi]; deterministic."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise GeometryError(f"no sign change on [{lo}, {hi}]")
    for _ in range(256):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def inner_parallel(poly: ReuleauxPolygon, R: float) -> ArcRegion:
    """Inner parallel body at depth R: intersection of disks of radius 1-R
    about the vertices, clipped about the origin (the incenter); from depth
    inradius on, or once every arc is thinner than TANGENCY_TOL just short
    of it, the single point at the origin."""
    if not 0.0 <= R <= poly.inradius + 1e-12:
        raise GeometryError(f"depth {R} outside [0, inradius]")
    if poly.inradius - R > TANGENCY_TOL:
        try:
            return _clip_region(_star_pairs(poly.vertices), 1.0 - R)[0]
        except GeometryError:  # no arc survives
            pass
    return ArcRegion.circle(0.0, 0.0, 0.0)


def _newton(pairs: _StarPairs, inradius: float, tol: float) -> float:
    # cheeger_radius's iteration, on pair terms the caller computed
    verts, lo, hi, R = pairs.pts, 0.0, inradius, 0.5 * inradius
    while True:
        rho = 1.0 - R
        a, b = _star_intervals(pairs, rho)
        live = b - a > TANGENCY_TOL
        a, b, (x, y) = a[live], b[live], verts[live].T
        # Green's theorem over the surviving arcs, as in arcs.area
        g = 0.5 * rho * float(np.sum(rho * (b - a) + x * (np.sin(b) - np.sin(a))
                                     - y * (np.cos(b) - np.cos(a)))) - math.pi * R * R
        lo, hi = (R, hi) if g > 0.0 else (lo, R)
        step = g / (rho * float(np.sum(b - a)) + 2.0 * math.pi * R)
        if abs(step) <= tol or hi - lo <= tol:
            return min(max(R + step, lo), hi)
        R += step
        if not lo < R < hi:
            R = 0.5 * (lo + hi)
            if R in (lo, hi):  # no float left between them
                return R


def cheeger_radius(poly: ReuleauxPolygon, tol: float = 1e-12) -> float:
    """The radius R with |inner body| = pi R^2; h = 1/R.

    Newton from inradius/2 on g(R) = |inner| - pi R^2, which falls strictly
    on [0, inradius], with g' = -perimeter(inner) - 2 pi R (the Cheeger set
    is the inner body plus a disk of radius R). Each evaluation, one clip
    kernel call about the origin, moves an end of the bracket [0, inradius];
    a step leaving it is replaced by the midpoint. The kernel's
    depth-independent pair terms are computed once per solve."""
    return _newton(_star_pairs(poly.vertices), poly.inradius, tol)


def cheeger_set(poly: ReuleauxPolygon, tol: float = 1e-12) -> CheegerSolution:
    """The Cheeger data at R = cheeger_radius(poly, tol).

    The inner body at depth R and the Cheeger set (that body plus a disk of
    radius R) are built once, from the same pair terms as the solve. Each
    contact is keyed by the index l of the vertex P_l its inner arc is
    centred at, which is also the index of the boundary arc it touches; its
    interval lies on the branch of arc l's span.
    """
    pairs = _star_pairs(poly.vertices)
    R = _newton(pairs, poly.inradius, tol)
    # R is below the inradius, so the inner body is fat and clips directly
    inner, rows = _clip_region(pairs, 1.0 - R)
    cset = minkowski_disk_sum(inner, R)
    # shift each interval onto the same branch as its outer arc's span
    start, sweep = inner.start, inner.sweep
    arc_mid = poly.alphas[rows] + 0.5 * poly.arc_lengths[rows]
    lo = start + TAU * np.rint((arc_mid - (start + 0.5 * sweep)) / TAU)
    contacts = sorted(zip(rows.tolist(), lo.tolist(), (lo + sweep).tolist()))
    h = 1.0 / R
    csa = area(cset)
    csp = perimeter(cset)
    if abs(csp / csa - h) > max(1e-9, 50.0 * tol) * h:
        raise GeometryError("Cheeger set perimeter/area ratio disagrees with 1/R")
    return CheegerSolution(R=R, h=h, inner=inner, cheeger_set=cset,
                           contacts=tuple(contacts))


# ---------------------------------------------------------------------------
# closed forms used as independent oracles

def triangle_inner_area(R: float) -> float:
    """Inner parallel area of the width-one Reuleaux triangle, closed form.

    Scalar route independent of the arc-region machinery: the inner body
    splits into three congruent chambers, each a triangle cap of height y
    plus a circular segment of opening j at radius 1-R.
    """
    if not 0.0 <= R < 0.5:
        raise GeometryError(f"depth {R} outside [0, 1/2)")
    alpha = math.acos(-0.5 / (1.0 - R))
    y = (1.0 - R) * math.sin(alpha) - 0.5 / SQRT3
    j = 2.0 * (5.0 * math.pi / 6.0 - alpha)
    return 1.5 * (0.5 * SQRT3 * y * y + (1.0 - R) ** 2 * (j - math.sin(j)))


def triangle_closed_form(tol: float = 1e-12) -> tuple[float, float]:
    """(R, h) of the Reuleaux triangle via the scalar closed form only."""
    def gap(R: float) -> float:
        return triangle_inner_area(R) - math.pi * R * R

    R = bisect_root(gap, 0.0, 0.45, tol)
    return R, 1.0 / R


def disk_cheeger_radius(width: float, tol: float = 1e-12) -> float:
    """Cheeger radius of a disk of the given width (diameter), via ArcRegions.

    Bisects with arcs.area, which cheeger_set's regions use: the inner
    parallel body at depth R is the concentric disk of radius width/2 - R.
    Expected root: width/4.
    """
    if not (math.isfinite(width) and width > 0.0):
        raise GeometryError(f"width must be finite and positive, got {width}")
    half = 0.5 * width

    def gap(R: float) -> float:
        if half - R <= 0.0:
            return -math.pi * R * R
        return area(ArcRegion.circle(0.0, 0.0, half - R)) - math.pi * R * R

    return bisect_root(gap, 0.0, half, tol)

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

from .arcs import (SQRT3, TANGENCY_TOL, TAU, ArcRegion, CircArc,
                   GeometryError, Point, _clip_intervals, _wrap, area,
                   disk_intersection, minkowski_disk_sum, perimeter)
from .polygon import ReuleauxPolygon


class EmptyContactError(GeometryError):
    """The requested arc contributes no contact interval to the Cheeger set."""


@dataclass(frozen=True)
class CheegerSolution:
    """Cheeger data of one polygon.

    contacts lists (arc index, interval start, interval end) for every arc
    whose boundary survives on the inner parallel body; the same intervals
    are where the Cheeger set touches the polygon boundary.
    """

    R: float
    h: float
    a: float                       # (1 - R)^2
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
    """Inner parallel body at depth R: intersection of disks of radius 1-R."""
    if R < 0.0 or R > poly.inradius + 1e-12:
        raise GeometryError(f"depth {R} outside [0, inradius]")
    return disk_intersection(poly.vertices, 1.0 - R)


def cheeger_radius(poly: ReuleauxPolygon, tol: float = 1e-12) -> float:
    """The radius R with |inner body| = pi R^2; h = 1/R.

    Newton from inradius/2 on g(R) = |inner| - pi R^2, which falls strictly
    on [0, inradius], with g' = -perimeter(inner) - 2 pi R (the Cheeger set
    is the inner body plus a disk of radius R). Each evaluation, one clip
    kernel call about the origin, moves an end of the bracket [0, inradius];
    a step leaving it is replaced by the midpoint."""
    verts, lo, hi, R = poly.vertices, 0.0, poly.inradius, 0.5 * poly.inradius
    while True:
        rho = 1.0 - R
        a, b = _clip_intervals(verts, rho, (0.0, 0.0))
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


def cheeger_set(poly: ReuleauxPolygon, tol: float = 1e-12) -> CheegerSolution:
    R = cheeger_radius(poly, tol)
    inner = inner_parallel(poly, R)
    cset = minkowski_disk_sum(inner, R)
    contacts = []
    verts = poly.vertices
    for arc in inner.arcs:
        d2 = (verts[:, 0] - arc.center.x) ** 2 + (verts[:, 1] - arc.center.y) ** 2
        l = int(d2.argmin())
        if d2[l] > 1e-18:
            raise GeometryError("inner arc center is not a polygon vertex")
        # shift the interval onto the same branch as the outer arc's span
        arc_mid = poly.alphas[l] + 0.5 * poly.arc_lengths[l]
        lo = arc.start + TAU * round((arc_mid - (arc.start + 0.5 * arc.sweep)) / TAU)
        contacts.append((l, lo, lo + arc.sweep))
    contacts.sort()
    h = 1.0 / R
    csa = area(cset)
    csp = perimeter(cset)
    if abs(csp / csa - h) > max(1e-9, 50.0 * tol) * h:
        raise GeometryError("Cheeger set perimeter/area ratio disagrees with 1/R")
    return CheegerSolution(R=R, h=h, a=(1.0 - R) ** 2, inner=inner,
                           cheeger_set=cset, contacts=tuple(contacts))


def contact_angles(poly: ReuleauxPolygon, solution: CheegerSolution,
                   l: int) -> tuple[float, float]:
    """Contact interval of arc l, cross-checked against the closed form.

    The closed-form shifts (driven by the neighbor arc lengths) assume the
    adjacent corners of the inner body come from arcs l-2 and l+2, so the
    consistency check only runs when those arcs also carry contacts.
    """
    n = poly.n
    got = solution.contact_for(l % n)
    if got is None:
        raise EmptyContactError(f"arc {l % n} has no contact interval")
    lo, hi = got
    if solution.contact_for((l + 2) % n) is not None:
        pred_lo = predicted_contact_start(poly, solution.R, l)
        if abs(_wrap(pred_lo - lo)) > 1e-9:
            raise GeometryError(
                f"contact start mismatch on arc {l}: {lo!r} vs {pred_lo!r}")
    if solution.contact_for((l - 2) % n) is not None:
        pred_hi = predicted_contact_end(poly, solution.R, l)
        if abs(_wrap(pred_hi - hi)) > 1e-9:
            raise GeometryError(
                f"contact end mismatch on arc {l}: {hi!r} vs {pred_hi!r}")
    return (lo, hi)


def _u_shift(half_j: float, R: float) -> float:
    # angular shift of a contact endpoint past its arc endpoint
    s = math.sin(half_j) / (1.0 - R)
    if s > 1.0:
        s = 1.0
    return math.asin(s) - half_j


def predicted_contact_start(poly: ReuleauxPolygon, R: float, l: int) -> float:
    n = poly.n
    return poly.alphas[l % n] + _u_shift(0.5 * poly.arc_lengths[(l + 1) % n], R)


def predicted_contact_end(poly: ReuleauxPolygon, R: float, l: int) -> float:
    n = poly.n
    return poly.betas[l % n] - _u_shift(0.5 * poly.arc_lengths[(l - 1) % n], R)


def upper_bounds(poly: ReuleauxPolygon) -> tuple[float, float]:
    """Two elementary upper bounds for h: pi/|area| and 2/inradius."""
    from .polygon import as_region
    return (math.pi / area(as_region(poly)), 2.0 / poly.inradius)


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
        disk = ArcRegion(arcs=(CircArc(Point(0.0, 0.0), half - R, 0.0, TAU),))
        return area(disk) - math.pi * R * R

    return bisect_root(gap, 0.0, half, tol)

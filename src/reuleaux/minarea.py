"""Minimal area of a width-one Reuleaux polygon with prescribed inradius.

For inradius r between the regular-(2N-1)-gon and regular-(2N+1)-gon values,
the area minimizer has 2N-2 arcs tangent to the incircle plus a symmetric
three-arc cap; its area A(r) is an explicit sum of chamber areas. A is
continuous, strictly increasing, and invertible on its band domain, which is
what turns an upper bound on area into an upper bound on inradius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import SQRT3, GeometryError
from .cheeger import bisect_root
from .polygon import ReuleauxPolygon, ell, from_vertices, regular

R_TRIANGLE = 1.0 - 1.0 / SQRT3


def regular_inradius(N: int) -> float:
    """Inradius of the regular (2N+1)-gon of width one: 1 - 1/(2 cos(pi/(4N+2)))."""
    if N < 1:
        raise GeometryError("N must be >= 1")
    return 1.0 - 1.0 / (2.0 * math.cos(math.pi / (2.0 * (2 * N + 1))))


def band_of(r: float, tol: float = 1e-12) -> int:
    """The band index N with regular_inradius(N-1) < r <= regular_inradius(N)."""
    if r < R_TRIANGLE - tol or r > 0.5:
        raise GeometryError(f"inradius {r} outside [1 - 1/sqrt3, 1/2]")
    N = 1
    while regular_inradius(N) < r - tol:
        N += 1
        if N > 10_000:
            raise GeometryError("inradius too close to 1/2")
    return N


def area_term(r: float, x: float, a: float, b: float) -> float:
    """Area of one boundary chamber of the candidate shape.

    x: half-opening of the chamber seen from the incenter, a: opening of the
    non-tangent arc, b: opening of each flanking arc piece. Tangent chambers
    are the x = a = 0, b = ell/2 case.
    """
    rho = 1.0 - r
    return (rho * rho * math.sin(x) * math.cos(x)
            + 0.5 * (a - math.sin(a))
            + b - math.sin(b)
            + rho * (math.cos(0.5 * a) - rho * math.cos(x)) * math.sin(x + ell(r)))


def _cap_parameters(r: float, N: int) -> tuple[float, float, float]:
    l = ell(r)
    x = 0.5 * math.pi - 0.5 * (2 * N - 1) * l
    a = 2.0 * math.asin(min(1.0, (1.0 - r) * math.sin(x)))
    b = x + 0.5 * (l - a)
    return x, a, b


def min_area(r: float, tol: float = 1e-12) -> float:
    """Minimal area among width-one Reuleaux polygons with inradius r."""
    if abs(r - 0.5) <= tol:
        return math.pi / 4.0  # the disk limit
    N = band_of(r, tol)
    l = ell(r)
    side = area_term(r, 0.0, 0.0, 0.5 * l)
    if abs(r - regular_inradius(N)) <= tol:
        return (2 * N + 1) * side
    x, a, b = _cap_parameters(r, N)
    return (2 * N - 2) * side + area_term(r, x, a, b)


def min_area_inverse(target: float, tol: float = 1e-12) -> float:
    """The inradius whose minimal area equals target (bisection; A is increasing)."""
    a_lo = min_area(R_TRIANGLE)
    if not a_lo - tol <= target < math.pi / 4.0:
        raise GeometryError(f"area {target} outside [{a_lo}, {math.pi / 4.0})")
    if target <= a_lo:
        return R_TRIANGLE
    return bisect_root(lambda r: min_area(r) - target, R_TRIANGLE, 0.5, tol)


@dataclass(frozen=True)
class MinAreaShape:
    r: float
    N: int
    ell: float
    x: float
    a: float
    b: float
    area: float
    polygon: ReuleauxPolygon


def _band_interior_polygon(r: float, N: int) -> ReuleauxPolygon:
    """Vertices of the in-band minimizer.

    One interior vertex under the cap at (0, -d); every other vertex on the
    circle of radius 1-r about the incenter, chained by steps of the tangent
    arc length. Degenerates (two vertices merge) at exact band edges.
    """
    rho = 1.0 - r
    l = ell(r)
    x, a, _b = _cap_parameters(r, N)
    d = math.cos(0.5 * a) - rho * math.cos(x)
    n = 2 * N + 1
    verts = np.zeros((n, 2))
    verts[0] = (0.0, -d)
    half = math.pi / 2.0
    verts[1] = rho * np.array([math.cos(half - x), math.sin(half - x)])
    verts[n - 1] = rho * np.array([math.cos(half + x), math.sin(half + x)])
    for i in range(1, N):
        ang_hi = half + x + 2.0 * i * l
        ang_lo = half - x - 2.0 * i * l
        verts[(-1 - 2 * i) % n] = rho * np.array([math.cos(ang_hi), math.sin(ang_hi)])
        verts[(1 + 2 * i) % n] = rho * np.array([math.cos(ang_lo), math.sin(ang_lo)])
    return from_vertices(verts)


def profile(r: float, tol: float = 1e-9) -> MinAreaShape:
    """The minimizing shape at inradius r, with its chamber parameters."""
    if abs(r - 0.5) <= tol:
        raise GeometryError("the disk limit r = 1/2 is not a polygon")
    N = band_of(r)
    l = ell(r)
    A = min_area(r)
    if abs(r - regular_inradius(N)) <= tol:
        return MinAreaShape(r=r, N=N, ell=l, x=0.0, a=0.0, b=0.5 * l,
                            area=A, polygon=regular(N))
    x, a, b = _cap_parameters(r, N)
    poly = _band_interior_polygon(r, N)
    return MinAreaShape(r=r, N=N, ell=l, x=x, a=a, b=b, area=A, polygon=poly)


"""Slow reference implementations used only to cross-check the package.

Everything here is deliberately naive: Monte Carlo areas, cubic-time
enclosing circles, disk-by-disk clipping, golden-section search. Tests compare the fast library
code against these with explicit tolerances.
"""
from __future__ import annotations

import math

import numpy as np

from reuleaux.arcs import (TANGENCY_TOL, ArcRegion, CircArc,
                           EmptyIntersectionError, GeometryError, Point,
                           min_enclosing_circle)
from reuleaux.polygon import MIN_ARC, _slide_vertex, regular


def mc_area_disks(centers, radius: float, n: int = 400_000,
                  seed: int = 0) -> float:
    """Monte Carlo area of an intersection of equal-radius disks."""
    cs = np.asarray(centers, dtype=float)
    lo = cs.min(axis=0) - radius
    hi = cs.max(axis=0) + radius
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, 2))
    inside = np.ones(n, dtype=bool)
    for c in cs:
        d2 = (pts[:, 0] - c[0]) ** 2 + (pts[:, 1] - c[1]) ** 2
        inside &= d2 <= radius * radius
    box = float(np.prod(hi - lo))
    return box * float(inside.mean())


def mc_area_region(region, n: int = 400_000, seed: int = 0) -> float:
    """Monte Carlo area of an intersection-of-disks region.

    Works because every region produced by the library is an intersection
    of the disks carrying its arcs.
    """
    if region.is_degenerate:
        return 0.0
    centers = [(a.center.x, a.center.y) for a in region.arcs]
    radius = region.arcs[0].radius
    return mc_area_disks(centers, radius, n=n, seed=seed)


def _circle_from3(a, b, c):
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-30:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def brute_mec(points):
    """O(n^3) minimum enclosing circle: try all pairs and triples."""
    pts = [(float(x), float(y)) for x, y in points]

    def covers(center, r):
        cx, cy = center
        pad = r + 1e-12
        return all(math.hypot(x - cx, y - cy) <= pad for x, y in pts)

    best = None
    if len(pts) == 1:
        return pts[0], 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cx = (pts[i][0] + pts[j][0]) / 2.0
            cy = (pts[i][1] + pts[j][1]) / 2.0
            r = math.hypot(pts[i][0] - cx, pts[i][1] - cy)
            if covers((cx, cy), r) and (best is None or r < best[1]):
                best = ((cx, cy), r)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                got = _circle_from3(pts[i], pts[j], pts[k])
                if got is None:
                    continue
                c, r = got
                if covers(c, r) and (best is None or r < best[1]):
                    best = (c, r)
    assert best is not None
    return best


def golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer for a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def central_fd(f, x: float, eps: float) -> float:
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


def far_pairs(vertices, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Every pair (i < j) of vertices further apart than 1 + tol, in order."""
    pts = [(float(x), float(y)) for x, y in vertices]
    return [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
            if math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            > 1.0 + tol]


def reuleaux_faults(vertices, min_arc: float = 0.0,
                    tol: float = 1e-9) -> set[str]:
    """Which conditions of a width-one Reuleaux vertex set fail.

    "adjacent": index-neighbours not at unit distance. "arcs": the angle at
    some vertex, counterclockwise from its next to its previous neighbour,
    is not in (min_arc, pi), or these angles do not sum to pi. "width": some
    pair further than 1 apart. Each angle comes from one atan2 of the cross
    and dot products, not from a difference of two directions.
    """
    pts = [(float(x), float(y)) for x, y in vertices]
    n = len(pts)
    faults = set()
    total = 0.0
    for k in range(n):
        px, py = pts[k]
        ux, uy = pts[(k + 1) % n][0] - px, pts[(k + 1) % n][1] - py
        vx, vy = pts[(k - 1) % n][0] - px, pts[(k - 1) % n][1] - py
        if abs(math.hypot(ux, uy) - 1.0) > tol:
            faults.add("adjacent")
        angle = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy) % (2 * math.pi)
        if not min_arc < angle < math.pi:
            faults.add("arcs")
        total += angle
    if abs(total - math.pi) > tol:
        faults.add("arcs")
    if far_pairs(pts, tol):
        faults.add("width")
    return faults


def naive_walk(N: int, steps: int, seed: int) -> np.ndarray:
    """The vertices of random_polygon's walk, before the canonical frame.

    The same loop, random draws and slides as the library, but a move is
    accepted only when reuleaux_faults, the full pairwise definition with
    arcs above MIN_ARC, finds nothing wrong with it.
    """
    verts = np.array(regular(N).vertices)
    if N == 1:
        return verts
    rng = np.random.default_rng(seed)
    n = len(verts)
    for _ in range(steps):
        k = int(rng.integers(n))
        eps = float(rng.uniform(-0.02, 0.02))
        try:
            cand = _slide_vertex(verts, k, eps)
        except GeometryError:
            continue
        if not reuleaux_faults(cand, MIN_ARC):
            verts = cand
    return verts


def naive_disk_intersection(centers, radius: float):
    """Intersection of disks B(c_k, radius), clipped one disk at a time.

    The per-circle double loop the library used before its clip kernel: the
    surviving interval of each circle is narrowed by every other disk in
    turn, each new interval put on the branch nearest the running midpoint.
    It shares only the minimal enclosing circle (for the empty and
    degenerate tests and the arc order) and the region records with the
    library.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise GeometryError(f"radius must be finite and positive, got {radius}")
    pts: list[tuple[float, float]] = []
    for x, y in centers:
        if all(math.hypot(x - p[0], y - p[1]) > 1e-14 for p in pts):
            pts.append((float(x), float(y)))
    n = len(pts)
    mec_center, mec_r = min_enclosing_circle(pts)
    if mec_r > radius + TANGENCY_TOL:
        raise EmptyIntersectionError("empty intersection")
    if radius - mec_r <= TANGENCY_TOL:
        return ArcRegion.degenerate(mec_center)
    if n == 1:
        return ArcRegion(arcs=(CircArc(Point(*pts[0]), radius, 0.0,
                                       2.0 * math.pi),))
    arcs = []
    for i in range(n):
        lo = hi = None
        alive = True
        for j in range(n):
            if j == i:
                continue
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            theta = math.atan2(dy, dx)
            # points of circle i inside disk j: |s - theta| <= delta. The
            # distance comes from np.hypot, as in the library: near tangency
            # (d / 2 radius -> 1) acos turns math.hypot's one-ulp difference
            # into 2e-12 rad at radius = (1 + 1e-9) d / 2
            d = float(np.hypot(dx, dy))
            delta = math.acos(min(1.0, d / (2.0 * radius)))
            if lo is None:
                lo, hi = theta - delta, theta + delta
            else:
                mid = 0.5 * (lo + hi)
                rep = theta + 2.0 * math.pi * round((mid - theta) / (2.0 * math.pi))
                lo = max(lo, rep - delta)
                hi = min(hi, rep + delta)
            if hi - lo <= TANGENCY_TOL:
                alive = False
                break
        if alive:
            arcs.append(CircArc(Point(*pts[i]), radius, lo, hi - lo))
    if not arcs:
        raise EmptyIntersectionError("no surviving boundary arcs")
    cx, cy = mec_center.x, mec_center.y
    arcs.sort(key=lambda a: math.atan2(a.midpoint.y - cy, a.midpoint.x - cx))
    return ArcRegion(arcs=tuple(arcs))

"""Circular-arc regions: convex bodies bounded by counterclockwise arc chains.

Everything downstream (Reuleaux polygons, inner parallel bodies, Cheeger sets)
is an intersection of equal-radius disks or a disk Minkowski sum of one, so
this module only has to be correct for convex regions whose boundary is a
closed chain of ccw circular arcs. An ArcRegion does not check itself: no
region is read from outside, and the library builds every region from
numbers it has already checked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TAU = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)

# Arcs thinner than this are treated as tangencies and dropped.
TANGENCY_TOL = 1e-12


class GeometryError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ArcRegion:
    """Convex region bounded by a closed ccw chain of m arcs, as columns: arc
    k is centre[k] + radius[k] * e^{i s}, s in [start[k], start[k] + sweep[k]].

    A point is one arc of radius 0 and sweep 2 pi, with zero area and
    perimeter.
    """

    centre: np.ndarray   # (m, 2)
    radius: np.ndarray   # (m,)
    start: np.ndarray    # (m,)
    sweep: np.ndarray    # (m,)

    @classmethod
    def circle(cls, x: float, y: float, r: float) -> "ArcRegion":
        return cls(np.array([[x, y]], dtype=float),
                   np.array([r], dtype=float), np.zeros(1), np.full(1, TAU))


def area(region: ArcRegion) -> float:
    """Signed area by Green's theorem; corners contribute nothing."""
    r, lo, sweep = region.radius, region.start, region.sweep
    hi = lo + sweep
    cx, cy = region.centre.T
    half_r = 0.5 * r
    # both terms of each arc, added in chain order
    terms = np.empty(2 * len(r))
    terms[0::2] = half_r * r * sweep
    terms[1::2] = half_r * (cx * (np.sin(hi) - np.sin(lo))
                            - cy * (np.cos(hi) - np.cos(lo)))
    return float(np.cumsum(terms)[-1])


def perimeter(region: ArcRegion) -> float:
    # in chain order: np.sum adds pairwise, and sum() of floats is
    # compensated on Python 3.12+
    return float(np.cumsum(region.radius * region.sweep)[-1])


# ---------------------------------------------------------------------------
# minimum enclosing circle (deterministic progressive Welzl)

def _bound(c: tuple[float, float, float]) -> float:
    # the distance from c's centre up to which a point counts as inside c
    return c[2] * (1.0 + 1e-14) + 1e-14


def _diameter_circle(a, b) -> tuple[float, float, float]:
    cx, cy = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])
    r = max(math.hypot(a[0] - cx, a[1] - cy), math.hypot(b[0] - cx, b[1] - cy))
    return (cx, cy, r)


def _circumcircle(a, b, c):
    ox, oy = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2, \
             (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - a[0], y - a[1]), math.hypot(x - b[0], y - b[1]),
            math.hypot(x - c[0], y - c[1]))
    return (x, y, r)


def _mec_two_boundary(points, p, q):
    circ = _diameter_circle(p, q)
    cx, cy, bound = circ[0], circ[1], _bound(circ)
    px, py = p
    ex, ey = q[0] - px, q[1] - py
    # the best circumcircle on each side of p -> q, and its centre's cross
    # product with that edge
    left = right = None
    lcross = rcross = 0.0
    for r in points:
        rx, ry = r
        if math.hypot(rx - cx, ry - cy) <= bound:
            continue
        cross = ex * (ry - py) - ey * (rx - px)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        ccross = ex * (c[1] - py) - ey * (c[0] - px)
        if cross > 0.0 and (left is None or ccross > lcross):
            left, lcross = c, ccross
        elif cross < 0.0 and (right is None or ccross < rcross):
            right, rcross = c, ccross
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _mec_one_boundary(points, p):
    c = (p[0], p[1], 0.0)
    bound = _bound(c)
    for i, q in enumerate(points):
        if not math.hypot(q[0] - c[0], q[1] - c[1]) <= bound:
            if c[2] == 0.0:
                c = _diameter_circle(p, q)
            else:
                c = _mec_two_boundary(points[: i + 1], p, q)
            bound = _bound(c)
    return c


# how many of the points farthest from the centroid Welzl visits first
_FAR_FIRST = 8


def _far_first(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """pts with the _FAR_FIRST farthest from their centroid moved to the
    front, farthest first (ties in input order), the rest in input order.

    The far points usually carry the circle, so Welzl rarely restarts on
    the rest: linear on sorted collinear points, where input order is
    quadratic. All points farthest-first is quadratic again on nearly
    cocircular sets, such as a slightly moved regular polygon.
    """
    xy = np.array(pts)
    d = np.hypot(*(xy - xy.mean(axis=0)).T)
    lead = np.argsort(-d, kind="stable")[:_FAR_FIRST].tolist()
    skip = set(lead)
    return [pts[i] for i in lead] + [p for i, p in enumerate(pts)
                                     if i not in skip]


def min_enclosing_circle(points: Iterable) -> tuple[float, float, float]:
    """The smallest circle holding every point, as (x, y, r)."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise GeometryError("need at least one point")
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise GeometryError("non-finite point")
    pts = _far_first(pts)
    c = (*pts[0], 0.0)
    bound = _bound(c)
    for i, p in enumerate(pts):
        if not math.hypot(p[0] - c[0], p[1] - c[1]) <= bound:
            c = _mec_one_boundary(pts[: i + 1], p)
            bound = _bound(c)
    return c


# ---------------------------------------------------------------------------
# intersection of equal-radius disks

# the star-order neighbours i + 2 (first row) and i - 2 of vertex i
_STAR_STEPS = np.array([[2], [-2]])


def _pair_terms(pts: np.ndarray, ref: np.ndarray, rows: np.ndarray | slice,
                cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta_ij and |P_j - P_i| for the pairs (rows, cols), rows an index
    array or a slice: the points of circle i inside disk j of radius rho
    are |s - theta_ij| <= acos(min(|P_j - P_i| / 2 rho, 1)), each theta_ij
    on its branch nearest ref_i."""
    # column views of the pair differences, as strided as an (n, n)
    # kernel's, so numpy's ufuncs take the same paths
    d = pts[cols] - pts[rows]
    dx, dy = d[..., 0], d[..., 1]
    theta = np.arctan2(dy, dx)
    dist = np.hypot(dx, dy)
    theta += TAU * np.rint((ref[rows] - theta) / TAU)
    return theta, dist


def _delta(dist: np.ndarray, rho: float) -> np.ndarray:
    return np.arccos(np.minimum(dist / (2.0 * rho), 1.0))


@dataclass(frozen=True)
class _StarPairs:
    """The depth-independent terms of _star_intervals for one vertex set."""

    pts: np.ndarray      # (n, 2) vertices
    ref: np.ndarray      # direction P_i -> origin, each theta_ij's branch
    cols: np.ndarray     # (2, n): the star neighbours i + 2 and i - 2
    theta: np.ndarray    # (2, n) theta of the pairs (i, cols[:, i])
    dist: np.ndarray     # (2, n) |P_j - P_i| of the same pairs


def _star_pairs(pts: np.ndarray) -> _StarPairs:
    """The first pass of _star_intervals up to the depth: for the 2n pairs
    (i, i + 2) and (i, i - 2), theta_ij on its branch and |P_j - P_i|.

    pts (n, 2) are a Reuleaux polygon's vertices in index order, with the
    origin in their hull: x on circle i in every disk has
    (x - P_i).(P_j - P_i) > 0 for all j, so x - P_i is within pi/2 of -P_i
    and each theta_ij goes on its branch nearest P_i -> origin. A solve
    computes these once and clips at every depth from them.
    """
    n = len(pts)
    # 0.0 - c, not -c: negation turns +0.0 into -0.0, and arctan2 would move
    # that branch by 2 pi
    ref = np.arctan2(0.0 - pts[:, 1], 0.0 - pts[:, 0])
    cols = (np.arange(n) + _STAR_STEPS) % n
    theta, dist = _pair_terms(pts, ref, slice(None), cols)
    return _StarPairs(pts, ref, cols, theta, dist)


def _star_intervals(pairs: _StarPairs,
                    rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Interval [lo_i, hi_i] of circle |x - P_i| = rho left inside every disk
    B(P_j, rho), dead if hi_i - lo_i <= TANGENCY_TOL; O(n) time and memory.

    Around the inner body, the arc about P_i meets the arcs about its
    star-order neighbours: P_{i+2} bounds lo_i and P_{i-2} bounds hi_i. The
    first pass takes those 2n pairs, whose theta and distance _star_pairs
    computed; only delta_ij = acos(min(|P_j - P_i| / 2 rho, 1)) depends on
    rho. An arc that dies is unlinked from the star ring, and each live arc
    whose neighbour changed is narrowed again by its new one, in rounds
    until no arc dies (or one is left); an interval is the intersection of
    every pair it was narrowed by. Every pair is a real disk, so an arc
    dead against some disks is dead against all of them.
    """
    theta, delta = pairs.theta, _delta(pairs.dist, rho)
    lo, hi = theta[0] - delta[0], theta[1] + delta[1]
    live = hi - lo > TANGENCY_TOL
    if live.all():
        return lo, hi
    pts, ref = pairs.pts, pairs.ref
    n = len(pts)
    nxt, prv = pairs.cols.copy()
    star = 2 * np.arange(n) % n           # the ring 0, 2, ..., n-1, 1, 3, ...
    while True:
        ring = star[live[star]]
        if len(ring) < 2:
            break
        after, before = np.roll(ring, -1), np.roll(ring, 1)
        lo_rows, hi_rows = ring[nxt[ring] != after], ring[prv[ring] != before]
        nxt[ring], prv[ring] = after, before
        theta, dist = _pair_terms(
            pts, ref, np.concatenate((lo_rows, hi_rows)),
            np.concatenate((nxt[lo_rows], prv[hi_rows])))
        delta = _delta(dist, rho)
        m = len(lo_rows)
        lo[lo_rows] = np.maximum(lo[lo_rows], theta[:m] - delta[:m])
        hi[hi_rows] = np.minimum(hi[hi_rows], theta[m:] + delta[m:])
        dying = live & (hi - lo <= TANGENCY_TOL)
        if not dying.any():
            break
        live &= ~dying
    return lo, hi


def _clip_region(pairs: _StarPairs,
                 radius: float) -> tuple[ArcRegion, np.ndarray]:
    """The intersection of the disks B(P_i, radius), P_i the vertices
    _star_pairs was given, with the origin in the intersection's interior:
    its arcs, and the row of pts each arc is centred at.

    The arcs are in ccw ring order (the arc about P_i is followed by the
    arc about P_{i-2}, dead arcs skipped), starting at the arc whose
    midpoint has the smallest polar angle: ordered by the angle of their
    midpoints about the origin, which increases along a convex boundary
    around an interior point.
    """
    lo, hi = _star_intervals(pairs, radius)
    n = len(lo)
    ring = -2 * np.arange(n) % n          # ccw: i, i - 2, i - 4, ...
    ring = ring[hi[ring] - lo[ring] > TANGENCY_TOL]
    if not len(ring):
        # every arc thinner than TANGENCY_TOL: a depth within rounding of
        # the inradius, where inner_parallel returns the point instead
        raise GeometryError("no surviving boundary arcs")
    start = lo[ring]
    sweep = hi[ring] - start
    mid = start + 0.5 * sweep
    centre = pairs.pts[ring]
    # only the first arc is chosen by this angle, so numpy's atan2 serves
    k = int(np.argmin(np.arctan2(centre[:, 1] + radius * np.sin(mid),
                                 centre[:, 0] + radius * np.cos(mid))))
    if k:
        ring, centre, start, sweep = (np.concatenate((c[k:], c[:k]))
                                      for c in (ring, centre, start, sweep))
    return ArcRegion(centre, np.full(len(ring), radius), start, sweep), ring


def minkowski_disk_sum(region: ArcRegion, rho: float) -> ArcRegion:
    """Minkowski sum of a convex arc region with a closed disk of radius rho.

    Boundary arcs move outward by rho; each convex corner grows a fillet arc
    centered at the corner. Corner turns below 1e-12 are treated as smooth.
    """
    if not (math.isfinite(rho) and rho >= 0.0):
        raise GeometryError(f"rho must be finite and nonnegative, got {rho}")
    if rho == 0.0:
        return region
    r, start, sweep = region.radius, region.start, region.sweep
    m = len(r)
    end = start + sweep
    # the turn at the corner after each arc, wrapped into (-pi, pi]
    turn = np.empty(m)
    turn[:-1] = start[1:]
    turn[-1] = start[0]
    turn = np.fmod(turn - end, TAU)
    turn[turn <= -math.pi] += TAU
    turn[turn > math.pi] -= TAU
    # arc k in slot 2k, the fillet at its end corner in slot 2k + 1
    centre = np.empty((2 * m, 2))
    radii, starts, sweeps = np.empty(2 * m), np.empty(2 * m), np.empty(2 * m)
    centre[0::2] = region.centre
    centre[1::2, 0] = region.centre[:, 0] + r * np.cos(end)
    centre[1::2, 1] = region.centre[:, 1] + r * np.sin(end)
    radii[0::2] = r + rho
    radii[1::2] = rho
    starts[0::2], starts[1::2] = start, end
    sweeps[0::2], sweeps[1::2] = sweep, turn
    keep = np.ones(2 * m, dtype=bool)
    keep[1::2] = turn > TANGENCY_TOL
    return ArcRegion(centre[keep], radii[keep], starts[keep], sweeps[keep])

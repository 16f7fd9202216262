"""Circular-arc regions: convex bodies bounded by counterclockwise arc chains.

Everything downstream (Reuleaux polygons, inner parallel bodies, Cheeger sets)
is an intersection of equal-radius disks or a disk Minkowski sum of one, so
this module only has to be correct for convex regions whose boundary is a
closed chain of ccw circular arcs. Point, CircArc and ArcRegion do not check
themselves: regions from outside are checked once, by region_from_json.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TAU = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)

# Chain endpoints must meet within this Euclidean distance.
CLOSURE_TOL = 1e-9
# Arcs thinner than this are treated as tangencies and dropped.
TANGENCY_TOL = 1e-12


class GeometryError(ValueError):
    pass


class RegionValidationError(GeometryError):
    pass


def _wrap(angle: float) -> float:
    # wrap into (-pi, pi]
    w = math.fmod(angle, TAU)
    if w <= -math.pi:
        w += TAU
    elif w > math.pi:
        w -= TAU
    return w


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class CircArc:
    """Counterclockwise arc: center + radius * e^{i s}, s in [start, start+sweep]."""

    center: Point
    radius: float
    start: float
    sweep: float

    @property
    def end(self) -> float:
        return self.start + self.sweep

    def point_at(self, s: float) -> Point:
        return Point(self.center.x + self.radius * math.cos(s),
                     self.center.y + self.radius * math.sin(s))

    @property
    def start_point(self) -> Point:
        return self.point_at(self.start)

    @property
    def end_point(self) -> Point:
        return self.point_at(self.end)

    @property
    def midpoint(self) -> Point:
        return self.point_at(self.start + 0.5 * self.sweep)


@dataclass(frozen=True)
class ArcRegion:
    """Convex region bounded by a closed ccw chain of arcs.

    A degenerate region is a single point: no arcs, zero area and perimeter.
    """

    arcs: tuple[CircArc, ...]
    point: Point | None = None

    @classmethod
    def degenerate(cls, point: Point) -> "ArcRegion":
        return cls(arcs=(), point=point)

    @property
    def is_degenerate(self) -> bool:
        return self.point is not None


def area(region: ArcRegion) -> float:
    """Signed area by Green's theorem; corners contribute nothing."""
    if region.is_degenerate:
        return 0.0
    total = 0.0
    for arc in region.arcs:
        r, cx, cy = arc.radius, arc.center.x, arc.center.y
        lo, hi = arc.start, arc.end
        total += 0.5 * r * r * arc.sweep
        total += 0.5 * r * (cx * (math.sin(hi) - math.sin(lo))
                            - cy * (math.cos(hi) - math.cos(lo)))
    return total


def perimeter(region: ArcRegion) -> float:
    if region.is_degenerate:
        return 0.0
    return sum(arc.radius * arc.sweep for arc in region.arcs)


# ---------------------------------------------------------------------------
# minimum enclosing circle (deterministic progressive Welzl)

def _in_circle(c: tuple[float, float, float], p: tuple[float, float]) -> bool:
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1.0 + 1e-14) + 1e-14


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
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    return (x, y, r)


def _cross(ax, ay, bx, by, px, py) -> float:
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _mec_two_boundary(points, p, q):
    circ = _diameter_circle(p, q)
    left = right = None
    for r in points:
        if _in_circle(circ, r):
            continue
        cross = _cross(p[0], p[1], q[0], q[1], r[0], r[1])
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        ccross = _cross(p[0], p[1], q[0], q[1], c[0], c[1])
        if cross > 0.0 and (left is None
                            or ccross > _cross(p[0], p[1], q[0], q[1], left[0], left[1])):
            left = c
        elif cross < 0.0 and (right is None
                              or ccross < _cross(p[0], p[1], q[0], q[1], right[0], right[1])):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _mec_one_boundary(points, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _in_circle(c, q):
            if c[2] == 0.0:
                c = _diameter_circle(p, q)
            else:
                c = _mec_two_boundary(points[: i + 1], p, q)
    return c


def min_enclosing_circle(points: Iterable) -> tuple[Point, float]:
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise GeometryError("need at least one point")
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise GeometryError("non-finite point")
    c = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _mec_one_boundary(pts[: i + 1], p)
    return Point(c[0], c[1]), c[2]


# ---------------------------------------------------------------------------
# intersection of equal-radius disks

def _clip_intervals(pts: np.ndarray,
                    rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Interval [lo_i, hi_i] of circle |x - P_i| = rho left inside every disk
    B(P_j, rho), empty if hi_i - lo_i <= 0. The centres pts (n, 2) must be
    distinct with the origin in their hull: x on circle i in every disk has
    (x - P_i).(P_j - P_i) > 0 for all j, so x - P_i is within pi/2 of -P_i
    and each theta_ij goes on its branch nearest P_i -> origin.
    """
    dx, dy = (pts[None] - pts[:, None]).transpose(2, 0, 1)
    theta = np.arctan2(dy, dx)
    # points of circle i inside disk j: |s - theta_ij| <= delta_ij
    delta = np.arccos(np.minimum(np.hypot(dx, dy) / (2.0 * rho), 1.0))
    # 0.0 - c, not -c: negation turns +0.0 into -0.0, and arctan2 would move
    # that branch by 2 pi
    ref = np.arctan2(0.0 - pts[:, 1], 0.0 - pts[:, 0])[:, None]
    theta += TAU * np.round((ref - theta) / TAU)
    np.fill_diagonal(delta, np.inf)
    return (theta - delta).max(axis=1), (theta + delta).min(axis=1)


def _clip_region(pts: np.ndarray,
                 radius: float) -> tuple[ArcRegion, list[int]]:
    """The intersection of the disks B(P_i, radius), P_i the distinct rows of
    pts, with the origin in their hull (as _clip_intervals needs) and in the
    intersection's interior: its arcs, ordered by the angle of their
    midpoints about the origin, and the row of pts each arc is centred at."""
    lo, hi = _clip_intervals(pts, radius)
    kept = [(i, CircArc(Point(x, y), radius, a, b - a))
            for i, ((x, y), a, b) in enumerate(zip(pts.tolist(), lo.tolist(),
                                                   hi.tolist()))
            if b - a > TANGENCY_TOL]
    if not kept:
        # every circle clipped away yet the region is fat: cannot happen
        raise GeometryError("no surviving boundary arcs")
    kept.sort(key=lambda ia: math.atan2(ia[1].midpoint.y, ia[1].midpoint.x))
    return (ArcRegion(arcs=tuple(arc for _, arc in kept)),
            [i for i, _ in kept])


def minkowski_disk_sum(region: ArcRegion, rho: float) -> ArcRegion:
    """Minkowski sum of a convex arc region with a closed disk of radius rho.

    Boundary arcs move outward by rho; each convex corner grows a fillet arc
    centered at the corner. Corner turns below 1e-12 are treated as smooth.
    """
    if not (math.isfinite(rho) and rho >= 0.0):
        raise GeometryError(f"rho must be finite and nonnegative, got {rho}")
    if rho == 0.0:
        return region
    if region.is_degenerate:
        disk = CircArc(region.point, rho, 0.0, TAU)
        return ArcRegion(arcs=(disk,))
    out: list[CircArc] = []
    n = len(region.arcs)
    for i, arc in enumerate(region.arcs):
        out.append(CircArc(arc.center, arc.radius + rho, arc.start, arc.sweep))
        nxt = region.arcs[(i + 1) % n]
        turn = _wrap(nxt.start - arc.end)
        if turn > TANGENCY_TOL:
            out.append(CircArc(arc.end_point, rho, arc.end, turn))
    return ArcRegion(arcs=tuple(out))


# ---------------------------------------------------------------------------
# serialization

def region_to_json(region: ArcRegion) -> dict:
    if region.is_degenerate:
        return {"arcs": [], "point": [region.point.x, region.point.y]}
    return {"arcs": [{"cx": a.center.x, "cy": a.center.y, "r": a.radius,
                      "start": a.start, "sweep": a.sweep} for a in region.arcs]}


def _check_region(region: ArcRegion) -> None:
    """Raise unless region is a finite point or a closed convex ccw arc chain:
    GeometryError for a bad number, RegionValidationError for a bad chain."""
    if region.is_degenerate:
        p = region.point
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise GeometryError(f"non-finite point ({p.x}, {p.y})")
        return
    for arc in region.arcs:
        c = arc.center
        if not (math.isfinite(c.x) and math.isfinite(c.y)):
            raise GeometryError(f"non-finite point ({c.x}, {c.y})")
        if not (math.isfinite(arc.radius) and arc.radius > 0.0):
            raise GeometryError(f"arc radius must be positive, got {arc.radius}")
        if not math.isfinite(arc.start):
            raise GeometryError("non-finite arc start angle")
        if not (0.0 < arc.sweep <= TAU + 1e-12):
            raise GeometryError(f"arc sweep must lie in (0, 2pi], got {arc.sweep}")
    n = len(region.arcs)
    turning = 0.0
    for i, arc in enumerate(region.arcs):
        nxt = region.arcs[(i + 1) % n]
        e, s = arc.end_point, nxt.start_point
        gap = math.hypot(e.x - s.x, e.y - s.y)
        if gap > CLOSURE_TOL:
            raise RegionValidationError(
                f"chain broken between arc {i} and {(i + 1) % n}: gap {gap:.3e}")
        turn = _wrap(nxt.start - arc.end)
        if turn < -1e-9:
            raise RegionValidationError(
                f"reflex corner after arc {i}: turn {turn:.3e}")
        turning += arc.sweep + turn
    if abs(turning - TAU) > 1e-9:
        raise RegionValidationError(
            f"total tangent turning {turning!r} != 2pi")


def region_from_json(data: dict) -> ArcRegion:
    """Read and check a region written by region_to_json: where regions
    enter from outside. Malformed JSON raises RegionValidationError."""
    def num(v) -> float:  # float() would also take "0", false and " 1.5 "
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise TypeError(f"not a JSON number: {v!r}")
        return float(v)

    try:
        if data.get("arcs"):
            region = ArcRegion(arcs=tuple(
                CircArc(Point(num(d["cx"]), num(d["cy"])), num(d["r"]),
                        num(d["start"]), num(d["sweep"]))
                for d in data["arcs"]))
        else:
            x, y = data["point"]
            region = ArcRegion.degenerate(Point(num(x), num(y)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise RegionValidationError(f"malformed JSON region: {exc!r}") from None
    _check_region(region)
    return region


def svg_path_data(region: ArcRegion, scale: float, ox: float, oy: float) -> str:
    """SVG path for a region, y axis flipped for screen coordinates.

    Math-ccw arcs appear counterclockwise on screen as SVG sweep-flag 0.
    Sweeps above pi need the large-arc flag; full circles are split in two.
    """
    if region.is_degenerate:
        x = ox + scale * region.point.x
        y = oy - scale * region.point.y
        return (f"M {x:.3f} {y:.3f} "
                f"a 0.5 0.5 0 1 0 1 0 a 0.5 0.5 0 1 0 -1 0")
    pieces: list[tuple[float, float, float, float]] = []  # r, end x, end y, sweep
    for arc in region.arcs:
        halves = [(arc.start, arc.sweep)] if arc.sweep <= math.pi + 1e-12 else \
            [(arc.start, arc.sweep / 2), (arc.start + arc.sweep / 2, arc.sweep / 2)]
        for s0, sw in halves:
            ex = arc.center.x + arc.radius * math.cos(s0 + sw)
            ey = arc.center.y + arc.radius * math.sin(s0 + sw)
            pieces.append((arc.radius, ex, ey, sw))
    p0 = region.arcs[0].start_point
    d = [f"M {ox + scale * p0.x:.4f} {oy - scale * p0.y:.4f}"]
    for r, ex, ey, sw in pieces:
        laf = 1 if sw > math.pi else 0
        d.append(f"A {scale * r:.4f} {scale * r:.4f} 0 {laf} 0 "
                 f"{ox + scale * ex:.4f} {oy - scale * ey:.4f}")
    d.append("Z")
    return " ".join(d)

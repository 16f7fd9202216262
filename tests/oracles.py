"""Slow reference implementations used only to cross-check the package.

Everything here is deliberately naive: Monte Carlo areas, cubic-time
enclosing circles, disk-by-disk clipping, an all-pairs clip kernel,
golden-section search, a check that a region is a closed convex ccw arc
chain, the per-arc loops of area, perimeter and the disk sum. Tests
compare the fast library code against these with explicit tolerances.
The scalar closed forms that only tests call live here too: the contact
intervals of the Cheeger set (contact_angles, predicted_contact_start/_end),
the upper bounds on h with the segment-formula area, the normal speed of a
Blaschke move, and the inradius floor at a concrete sector length. None of
them reads the clip kernel or the Cheeger solver (test_imports checks
this).
"""
from __future__ import annotations

import math

import numpy as np

from reuleaux.arcs import (TANGENCY_TOL, TAU, ArcRegion, GeometryError, area,
                           min_enclosing_circle)
from reuleaux.bounds import inradius_lower_bound_factors
from reuleaux.polygon import MIN_ARC, regular


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
    of the disks carrying its arcs (a point: one disk of radius 0).
    """
    return mc_area_disks(region.centre, float(region.radius[0]), n=n,
                         seed=seed)


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


def naive_slide(verts, k: int, eps: float) -> np.ndarray:
    """The Blaschke slide at k on whole arrays: a new (n, 2) vertex array.

    The library's earlier route, kept as its reference: P_k slides by eps
    along the unit circle about P_{k-1}, and P_{k+1} becomes the unit-circle
    intersection about the new P_k and P_{k+2} nearest its old position,
    with every distance from np.linalg.norm.
    """
    verts = np.asarray(verts, dtype=float)
    n = len(verts)
    km1, kp1, kp2 = (k - 1) % n, (k + 1) % n, (k + 2) % n
    out = np.array(verts)
    d0 = verts[k] - verts[km1]
    a0 = math.atan2(d0[1], d0[0])
    out[k] = verts[km1] + np.array([math.cos(a0 + eps), math.sin(a0 + eps)])
    chord = verts[kp2] - out[k]
    d = np.linalg.norm(chord)
    if d >= 2.0 - 1e-12 or d <= 1e-12:
        raise GeometryError(f"no unit-circle intersection at separation {d!r}")
    mid = 0.5 * (out[k] + verts[kp2])
    h = math.sqrt(max(0.0, 1.0 - 0.25 * d * d))
    perp = np.array([-chord[1], chord[0]]) / d
    c1, c2 = mid + h * perp, mid - h * perp
    old = verts[kp1]
    out[kp1] = c1 if np.linalg.norm(c1 - old) <= np.linalg.norm(c2 - old) else c2
    return out


def naive_walk(N: int, steps: int, seed: int) -> np.ndarray:
    """The vertices of random_polygon's walk, before the canonical frame.

    The same loop and random draws as the library, but each move is
    naive_slide on the whole vertex array, and it is accepted only when
    reuleaux_faults, the full pairwise definition with arcs above MIN_ARC,
    finds nothing wrong with it.
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
            cand = naive_slide(verts, k, eps)
        except GeometryError:
            continue
        if not reuleaux_faults(cand, MIN_ARC):
            verts = cand
    return verts


def is_point(region) -> bool:
    """Whether region is the point form: one arc of radius 0."""
    return len(region.radius) == 1 and region.radius[0] == 0.0


def arc_rows(region) -> list[tuple[float, float, float, float, float]]:
    """Each arc of region as (cx, cy, r, start, sweep), in chain order."""
    return [(cx, cy, r, s, w) for (cx, cy), r, s, w in zip(
        region.centre.tolist(), region.radius.tolist(),
        region.start.tolist(), region.sweep.tolist())]


def loop_area(region) -> float:
    """Green's area by the per-arc loop the library used before its
    columns: both terms of each arc added in chain order."""
    total = 0.0
    for cx, cy, r, start, sweep in arc_rows(region):
        end = start + sweep
        total += 0.5 * r * r * sweep
        total += 0.5 * r * (cx * (math.sin(end) - math.sin(start))
                            - cy * (math.cos(end) - math.cos(start)))
    return total


def loop_perimeter(region) -> float:
    """The perimeter, added arc by arc in chain order."""
    total = 0.0
    for _, _, r, _, sweep in arc_rows(region):
        total += r * sweep
    return total


def loop_disk_sum(region, rho: float) -> list[tuple]:
    """The arcs of region + a disk of radius rho by the per-arc loop the
    library used before its columns: each arc moved out by rho, then a
    fillet about the corner after it where the turn, wrapped into
    (-pi, pi], is above TANGENCY_TOL."""
    arcs = arc_rows(region)
    out = []
    for k, (cx, cy, r, start, sweep) in enumerate(arcs):
        out.append((cx, cy, r + rho, start, sweep))
        end = start + sweep
        turn = math.fmod(arcs[(k + 1) % len(arcs)][3] - end, TAU)
        if turn <= -math.pi:
            turn += TAU
        elif turn > math.pi:
            turn -= TAU
        if turn > TANGENCY_TOL:
            out.append((cx + r * math.cos(end), cy + r * math.sin(end), rho,
                        end, turn))
    return out


def region_faults(region) -> set[str]:
    """Which conditions of a closed convex ccw arc chain fail.

    "finite": a non-finite centre coordinate or start angle. "radius": a
    radius not finite, negative, or 0 in a chain of more than one arc (a
    point is one arc of radius 0). "sweep": a sweep outside (0, 2pi]. The
    chain is checked only when every number passes: "chain", an arc's end
    more than 1e-9 from the next arc's start; "reflex", an inward corner
    (a turn below -1e-9); "turning", a total tangent turning 1e-9 or more
    from 2pi.
    """
    arcs = arc_rows(region)
    faults = set()
    for cx, cy, r, start, sweep in arcs:
        if not all(map(math.isfinite, (cx, cy, start))):
            faults.add("finite")
        if not (math.isfinite(r) and (r > 0.0 or r == 0.0 and len(arcs) == 1)):
            faults.add("radius")
        if not 0.0 < sweep <= TAU + 1e-12:
            faults.add("sweep")
    if faults:
        return faults
    turning = 0.0
    for (cx, cy, r, start, sweep), (nx, ny, nr, nstart, _) in zip(
            arcs, arcs[1:] + arcs[:1]):
        end = start + sweep
        ex, ey = cx + r * math.cos(end), cy + r * math.sin(end)
        sx, sy = nx + nr * math.cos(nstart), ny + nr * math.sin(nstart)
        if math.hypot(ex - sx, ey - sy) > 1e-9:
            faults.add("chain")
        turn = math.remainder(nstart - end, TAU)
        if turn < -1e-9:
            faults.add("reflex")
        turning += sweep + turn
    if abs(turning - TAU) > 1e-9:
        faults.add("turning")
    return faults


def midpoint_angle(centre, radius: float, start: float, sweep: float,
                   about=(0.0, 0.0)) -> float:
    """The polar angle about `about` of the midpoint of the arc
    centre + radius * e^{i s}, s in [start, start + sweep]."""
    s = start + 0.5 * sweep
    return math.atan2(centre[1] + radius * math.sin(s) - about[1],
                      centre[0] + radius * math.cos(s) - about[0])


class EmptyIntersectionError(GeometryError):
    """An intersection of disks with no points at all."""


def naive_disk_intersection(centers, radius: float):
    """Intersection of disks B(c_k, radius), clipped one disk at a time.

    The per-circle double loop the library used before its clip kernel: the
    surviving interval of each circle is narrowed by every other disk in
    turn, each new interval put on the branch nearest the running midpoint.
    It shares only the minimal enclosing circle (for the empty and
    degenerate tests and the arc order) and the region record with the
    library.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise GeometryError(f"radius must be finite and positive, got {radius}")
    pts: list[tuple[float, float]] = []
    for x, y in centers:
        if all(math.hypot(x - p[0], y - p[1]) > 1e-14 for p in pts):
            pts.append((float(x), float(y)))
    n = len(pts)
    mx, my, mec_r = min_enclosing_circle(pts)
    if mec_r > radius + TANGENCY_TOL:
        raise EmptyIntersectionError("empty intersection")
    if radius - mec_r <= TANGENCY_TOL:
        return ArcRegion.circle(mx, my, 0.0)
    if n == 1:
        return ArcRegion.circle(*pts[0], radius)
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
            arcs.append((pts[i], lo, hi - lo))
    if not arcs:
        raise EmptyIntersectionError("no surviving boundary arcs")
    arcs.sort(key=lambda a: midpoint_angle(a[0], radius, a[1], a[2],
                                           (mx, my)))
    centre, start, sweep = zip(*arcs)
    return ArcRegion(np.array(centre), np.full(len(arcs), radius),
                     np.array(start), np.array(sweep))


def _clip_intervals(pts, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Interval [lo_i, hi_i] of circle |x - P_i| = rho left inside every disk
    B(P_j, rho), empty if hi_i - lo_i <= 0: the max of theta_ij - delta_ij
    and the min of theta_ij + delta_ij over (n, n) matrices.

    The clip kernel the library used before its star-order one, kept as
    that kernel's reference. The centres pts (n, 2) must be distinct with
    the origin in their hull: x on circle i in every disk has
    (x - P_i).(P_j - P_i) > 0 for all j, so x - P_i is within pi/2 of -P_i
    and each theta_ij goes on its branch nearest P_i -> origin.
    """
    dx, dy = (pts[None] - pts[:, None]).transpose(2, 0, 1)
    theta = np.arctan2(dy, dx)
    delta = np.arccos(np.minimum(np.hypot(dx, dy) / (2.0 * rho), 1.0))
    # 0.0 - c, not -c: negation turns +0.0 into -0.0, and arctan2 would move
    # that branch by 2 pi
    ref = np.arctan2(0.0 - pts[:, 1], 0.0 - pts[:, 0])[:, None]
    theta += TAU * np.round((ref - theta) / TAU)
    np.fill_diagonal(delta, np.inf)
    return (theta - delta).max(axis=1), (theta + delta).min(axis=1)


def assert_same_region(got, want, rho: float) -> None:
    """got and want are one chain of arcs of radius rho, up to where the
    chain starts (it moves when a midpoint sits at angle pi from the sort
    centre, where atan2 jumps), with ends and areas within a few ulps; or
    both a point, within 1e-12 of each other (the naive route puts it at
    the centres' enclosing circle)."""
    assert is_point(got) == is_point(want)
    if is_point(got):
        (gx, gy), (wx, wy) = got.centre.tolist()[0], want.centre.tolist()[0]
        assert math.hypot(gx - wx, gy - wy) <= 1e-12
        return
    arcs, want_arcs = arc_rows(got), arc_rows(want)
    order = [a[:2] for a in arcs]
    if want_arcs[0][:2] in order:
        k = order.index(want_arcs[0][:2])
        arcs = arcs[k:] + arcs[:k]
    assert [a[:2] for a in arcs] == [b[:2] for b in want_arcs]
    for (*_, a_start, a_sweep), (*_, b_start, b_sweep) in zip(arcs, want_arcs):
        assert abs(math.remainder(a_start - b_start, 2.0 * math.pi)) <= 1e-12
        assert abs(math.remainder((a_start + a_sweep) - (b_start + b_sweep),
                                  2.0 * math.pi)) <= 1e-12
    assert abs(area(got) - area(want)) <= 1e-12 * rho * rho


# ---------------------------------------------------------------------------
# closed forms that only tests call

class EmptyContactError(GeometryError):
    """The requested arc contributes no contact interval to the Cheeger set."""


def contact_angles(poly, solution, l: int) -> tuple[float, float]:
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
        if abs(math.remainder(pred_lo - lo, 2.0 * math.pi)) > 1e-9:
            raise GeometryError(
                f"contact start mismatch on arc {l}: {lo!r} vs {pred_lo!r}")
    if solution.contact_for((l - 2) % n) is not None:
        pred_hi = predicted_contact_end(poly, solution.R, l)
        if abs(math.remainder(pred_hi - hi, 2.0 * math.pi)) > 1e-9:
            raise GeometryError(
                f"contact end mismatch on arc {l}: {hi!r} vs {pred_hi!r}")
    return (lo, hi)


def _u_shift(half_j: float, R: float) -> float:
    # angular shift of a contact endpoint past its arc endpoint
    s = math.sin(half_j) / (1.0 - R)
    if s > 1.0:
        s = 1.0
    return math.asin(s) - half_j


def predicted_contact_start(poly, R: float, l: int) -> float:
    n = poly.n
    return poly.alphas[l % n] + _u_shift(0.5 * poly.arc_lengths[(l + 1) % n], R)


def predicted_contact_end(poly, R: float, l: int) -> float:
    n = poly.n
    return poly.betas[l % n] - _u_shift(0.5 * poly.arc_lengths[(l - 1) % n], R)


def segment_area(poly) -> float:
    """|P| as the convex hull of the vertices (shoelace, vertices in angular
    order about the incentre) plus one circular segment per arc: arc k has
    unit radius and opening j_k, so its segment is (j_k - sin j_k) / 2."""
    pts = sorted(((float(x), float(y)) for x, y in poly.vertices),
                 key=lambda p: math.atan2(p[1], p[0]))
    hull = 0.5 * sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                     in zip(pts, pts[1:] + pts[:1]))
    return hull + 0.5 * sum(j - math.sin(j) for j in poly.arc_lengths.tolist())


def upper_bounds(poly) -> tuple[float, float]:
    """Two elementary upper bounds for h: pi/|area| and 2/inradius."""
    return (math.pi / segment_area(poly), 2.0 / poly.inradius)


def normal_speed(poly, k: int, arc: int, s: float) -> float:
    """Outward normal velocity of the boundary under the unit-rate move at k.

    Nonzero only on arcs k and k+1; arcs k-1 and k+2 slide along themselves.
    s must lie in the angular span of the queried arc.
    """
    n = poly.n
    arc = arc % n
    rel = (s - poly.alphas[arc]) % (2.0 * math.pi)
    if rel > poly.arc_lengths[arc] + 1e-9 and rel < 2.0 * math.pi - 1e-9:
        raise GeometryError(f"angle {s} outside the span of arc {arc}")
    if arc == k % n:
        return math.sin(s - poly.alphas[(k - 1) % n])
    if arc == (k + 1) % n:
        ratio = math.sin(poly.arc_lengths[k % n]) / math.sin(
            poly.arc_lengths[(k + 1) % n])
        return -ratio * math.sin(s - poly.alphas[(k + 1) % n])
    return 0.0


def inradius_lower_bound(h: float, tau: float, u: float) -> float:
    """The inradius floor of bounds.inradius_lower_bound_factors evaluated
    at a concrete largest-sector length u."""
    sinu = math.sin(u)
    if sinu <= 0.0:
        raise ValueError(f"sector length {u} outside (0, pi)")
    return inradius_lower_bound_factors(h, tau, u / sinu, 1.0 / sinu)

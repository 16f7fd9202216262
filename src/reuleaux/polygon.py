"""Reuleaux polygons of width one: parametrization, validation, incircle contacts.

A Reuleaux polygon with n = 2N+1 arcs is determined by its n vertices
P_0..P_{n-1}: boundary arc k is centered at P_k with unit radius and spans
angles [alpha_k, beta_k], where e^{i alpha_k} points to P_{k+1} and
e^{i beta_k} to P_{k-1}. Index-consecutive vertices sit at unit distance,
arc lengths j_k = beta_k - alpha_k are positive and sum to pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arcs import (ArcRegion, GeometryError, TAU, disk_intersection,
                   min_enclosing_circle)

# random-walk / optimizer floor for arc lengths
MIN_ARC = 0.01
WIDTH_TOL = 1e-9


class InvalidPolygon(ValueError):
    pass


class VertexCountError(InvalidPolygon):
    pass


class AdjacencyError(InvalidPolygon):
    pass


class WidthError(InvalidPolygon):
    pass


class ContactDeficitError(GeometryError):
    """Fewer than three usable incircle contacts."""


def _angles_of(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # math.atan2, not np.arctan2, which differs in the last bit on some inputs
    # and would move arcs, contacts and trajectories; slices: np.roll is slow
    nxt = (np.concatenate((verts[1:], verts[:1])) - verts).tolist()
    prv = (np.concatenate((verts[-1:], verts[:-1])) - verts).tolist()
    alphas = np.array([math.atan2(y, x) for x, y in nxt])
    betas = np.array([math.atan2(y, x) for x, y in prv])
    js = np.mod(betas - alphas, TAU)
    return alphas, betas, js


# rows per pass of the pairwise width test: one pass up to this many
# vertices, bounded memory beyond
_WIDTH_BLOCK = 64


def _far_pair(verts: np.ndarray) -> tuple[int, int, float] | None:
    """The first pair (i < j) further apart than 1 + WIDTH_TOL, or None."""
    n = len(verts)
    for lo in range(0, n, _WIDTH_BLOCK):
        rows = verts[lo:lo + _WIDTH_BLOCK]
        d = np.hypot(rows[:, None, 0] - verts[None, lo:, 0],
                     rows[:, None, 1] - verts[None, lo:, 1])
        far = d > 1.0 + WIDTH_TOL
        if far.any():
            # the first row-major hit has j > i: a hit left of the diagonal
            # would mirror one in an earlier row
            r, c = np.unravel_index(np.argmax(far), far.shape)
            return lo + int(r), lo + int(c), float(d[r, c])
    return None


def _check_neighbours(verts: np.ndarray) -> None:
    """Raise AdjacencyError unless index-neighbours sit at unit distance."""
    gaps = np.hypot(*(np.concatenate((verts[1:], verts[:1])) - verts).T)
    off = np.abs(gaps - 1.0) > WIDTH_TOL
    if off.any():
        k = int(np.argmax(off))
        raise AdjacencyError(f"vertices {k} and {(k + 1) % len(verts)} at "
                             f"distance {float(gaps[k])!r}, expected 1")


def _check_arcs(js: np.ndarray, min_arc: float,
                arc_error: type[Exception] = AdjacencyError) -> None:
    """Raise arc_error unless arcs js are in (min_arc, pi) and sum to pi."""
    # with unit neighbours, such arcs close into a curve of constant width 1
    if js.min() <= min_arc or js.max() >= math.pi:
        if js.min() > math.pi:
            raise arc_error("vertices are in clockwise order; "
                            "list them counterclockwise")
        raise arc_error(f"arc lengths outside ({min_arc:g}, pi)")
    if abs(js.sum() - math.pi) > WIDTH_TOL:
        raise arc_error(f"arc lengths sum to {float(js.sum())!r}, expected pi")


@dataclass(frozen=True)
class ReuleauxPolygon:
    """Immutable, canonicalized (incenter at the origin) Reuleaux polygon."""

    vertices: np.ndarray          # (n, 2), incenter at origin
    alphas: np.ndarray            # start angle of arc k (towards P_{k+1})
    betas: np.ndarray             # end angle of arc k (towards P_{k-1})
    arc_lengths: np.ndarray       # j_k = beta_k - alpha_k, sums to pi
    inradius: float

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def N(self) -> int:
        return (self.n - 1) // 2


def _canonical(verts: np.ndarray) -> ReuleauxPolygon:
    # the polygon moved so its incenter (the centre of its minimal enclosing
    # circle) is the origin; does not check the vertices
    center, mec_r = min_enclosing_circle(verts)
    verts = verts - np.array([center.x, center.y])
    alphas, betas, js = _angles_of(verts)
    for arr in (verts, alphas, betas, js):
        arr.setflags(write=False)
    return ReuleauxPolygon(vertices=verts, alphas=alphas, betas=betas,
                           arc_lengths=js, inradius=1.0 - mec_r)


def from_vertices(points) -> ReuleauxPolygon:
    """Validate a vertex list and build the canonical polygon.

    This is where outside vertex input is checked. Distinct failures raise
    distinct errors: InvalidPolygon (not a list of finite [x, y] number
    pairs), VertexCountError (even or too few vertices), AdjacencyError
    (index-neighbours not at unit distance, clockwise order, or arc
    structure broken), WidthError (some pair further than 1 apart).
    """
    try:
        verts = np.asarray(points)
    except ValueError as exc:  # ragged nesting
        raise InvalidPolygon(f"vertices must be [x, y] number pairs: {exc}") from None
    if verts.dtype.kind not in "iuf" or verts.ndim != 2 or verts.shape[1] != 2:
        raise InvalidPolygon("vertices must be a list of [x, y] number pairs")
    verts = verts.astype(float, copy=False)
    n = len(verts)
    if n < 3 or n % 2 == 0:
        raise VertexCountError(f"need an odd number >= 3 of vertices, got {n}")
    if not np.all(np.isfinite(verts)):
        raise InvalidPolygon("non-finite vertex coordinates")
    _check_neighbours(verts)  # before the MEC, slow on collinear runs
    poly = _canonical(verts)
    _check_arcs(poly.arc_lengths, 0.0)
    far = _far_pair(poly.vertices)
    if far is not None:
        raise WidthError(f"vertices {far[0]} and {far[1]} at distance "
                         f"{far[2]!r} > 1")
    return poly


def regular(N: int) -> ReuleauxPolygon:
    """Regular Reuleaux polygon with 2N+1 arcs, width one."""
    if N < 1:
        raise VertexCountError("N must be >= 1")
    n = 2 * N + 1
    j = math.pi / n
    rho = 1.0 / (2.0 * math.cos(j / 2.0))
    angles = math.pi / 2.0 + (math.pi - j) * np.arange(n)
    verts = rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return _canonical(verts)


def as_region(poly: ReuleauxPolygon) -> ArcRegion:
    """The polygon as an intersection of unit disks centered at its vertices."""
    return disk_intersection(poly.vertices, 1.0)


# ---------------------------------------------------------------------------
# Blaschke vertex slide (geometric kernel; the public wrapper lives in blaschke)

def _slide_vertex(verts: np.ndarray, k: int, eps: float) -> np.ndarray:
    """Slide P_k by eps along the arc centered at P_{k-1}; recompute P_{k+1}.

    P_{k+1} is the unit-circle intersection (about the new P_k and the old
    P_{k+2}) nearest its previous position. Up to rounding, the new P_k is
    at unit distance from P_{k-1} and the new P_{k+1} from P_k and P_{k+2},
    or GeometryError is raised; so callers check only the arc lengths.
    """
    n = len(verts)
    km1, kp1, kp2 = (k - 1) % n, (k + 1) % n, (k + 2) % n
    out = np.array(verts, dtype=float)
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


def random_polygon(N: int, steps: int, seed: int) -> ReuleauxPolygon:
    """Random Blaschke walk from regular(N); deterministic in the seed.

    Each step draws an arc index and a slide eps in [-0.02, 0.02] and applies
    it only if the result stays a width-one polygon with every arc > 0.01.
    A triangle admits no Blaschke move, so N = 1 returns regular(1) as is.
    """
    poly = regular(N)
    if N == 1:
        return poly
    rng = np.random.default_rng(seed)
    verts = np.array(poly.vertices)
    n = len(verts)
    for _ in range(steps):
        k = int(rng.integers(n))
        eps = float(rng.uniform(-0.02, 0.02))
        try:
            cand = _slide_vertex(verts, k, eps)
            _check_arcs(_angles_of(cand)[2], MIN_ARC)
        except (GeometryError, InvalidPolygon):
            continue
        verts = cand
    return _canonical(verts)


# ---------------------------------------------------------------------------
# incircle contacts and sectors

def contact_points(poly: ReuleauxPolygon, tol: float = 1e-9) -> list[tuple[int, float]]:
    """Points where the incircle touches the boundary, as (arc index, polar angle).

    The incircle has center at the origin (canonical frame) and radius
    poly.inradius; arc k touches it iff its center is at maximal distance
    1 - r and the touching direction falls inside the arc's angular span.
    Sorted by angle; coincident contacts keep the lowest arc index.
    """
    r = poly.inradius
    found: list[tuple[int, float]] = []
    for k in range(poly.n):
        p = poly.vertices[k]
        dist = math.hypot(p[0], p[1])
        if 1.0 - dist > r + tol:
            continue
        s_star = math.atan2(-p[1], -p[0])
        rel = (s_star - poly.alphas[k]) % TAU
        if rel <= poly.arc_lengths[k] + 1e-9:
            found.append((k, s_star))
    found.sort(key=lambda kt: (kt[1], kt[0]))
    dedup: list[tuple[int, float]] = []
    for k, t in found:
        if dedup and abs(t - dedup[-1][1]) < 1e-9:
            if k < dedup[-1][0]:
                dedup[-1] = (k, t)
            continue
        dedup.append((k, t))
    return dedup


@dataclass(frozen=True)
class Sector:
    """One of the three primary sectors cut by a chosen contact trio.

    The sector runs ccw from the contact at angle `start_contact` to the
    antipode of the contact at `end_contact`; u = its angular length.
    interior_angles are the 2m-1 arc endpoint angles crossed by the sector
    walk, in the polygon's canonical frame, strictly increasing along the
    sector interval.
    """

    contact_trio: tuple[float, float, float]
    start_contact: float
    end_contact: float
    start_arc: int
    end_arc: int
    u: float
    m: int
    interior_angles: tuple[float, ...]


def _choose_trio(contacts: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """Contact trio maximizing the minimal circular gap.

    Trios with any gap >= pi are infeasible (the incenter must lie in the
    convex hull of the trio). Ties broken by the sorted arc-index triple.
    """
    best = None
    for trio in combinations(contacts, 3):
        ts = sorted(t for _, t in trio)
        gaps = (ts[1] - ts[0], ts[2] - ts[1], ts[0] + TAU - ts[2])
        if max(gaps) >= math.pi - 1e-12:
            continue
        key_gap = min(gaps)
        key_idx = tuple(sorted(k for k, _ in trio))
        if best is None or key_gap > best[0] + 1e-9 or \
                (abs(key_gap - best[0]) <= 1e-9 and key_idx < best[1]):
            best = (key_gap, key_idx, trio)
    if best is None:
        raise ContactDeficitError("no contact trio spans the incenter")
    return sorted(best[2], key=lambda kt: kt[1])


def sectors(poly: ReuleauxPolygon, tol: float = 1e-9) -> list[Sector]:
    """The three primary sectors of the canonical contact trio.

    Opposite sectors have the same length, so the three returned sectors
    already carry all six lengths; their u values sum to pi.
    """
    contacts = contact_points(poly, tol)
    if len(contacts) < 3:
        raise ContactDeficitError(
            f"only {len(contacts)} incircle contacts, need 3")
    trio = _choose_trio(contacts)
    n = poly.n
    inv2 = (n + 1) // 2  # inverse of 2 mod n
    out: list[Sector] = []
    for i in range(3):
        k_end, t_end = trio[i]
        k_start, t_start = trio[(i + 1) % 3]
        gap = (t_start - t_end) % TAU
        u = math.pi - gap
        steps = ((k_start - k_end - 1) * inv2) % n
        m = steps + 1
        xs = [poly.betas[k_start]]
        arc = k_start
        for _ in range(m - 1):
            arc = (arc - 2) % n
            xs.extend([poly.alphas[arc], poly.betas[arc]])
        if arc != (k_end + 1) % n:
            raise GeometryError("sector walk failed to land next to the end arc")
        start = t_start
        lo = start - 1e-6
        norm = [lo + ((x - lo) % TAU) for x in xs]
        if any(x > start + u + 1e-6 for x in norm) or \
                any(b - a <= -1e-9 for a, b in zip(norm, norm[1:])):
            raise GeometryError("sector interior angles out of order")
        out.append(Sector(contact_trio=tuple(t for _, t in trio),
                          start_contact=t_start, end_contact=t_end,
                          start_arc=k_start, end_arc=k_end,
                          u=u, m=m, interior_angles=tuple(norm)))
    return out


def inradius_from_sector(sector: Sector) -> float:
    """Recover the inradius from one sector's interior angles.

    In the frame where the sector's end contact antipode sits at pi/2,
    r = 1 - (sum of alternating cosines of the interior angles) / sin u.
    """
    sinu = math.sin(sector.u)
    if abs(sinu) < 1e-12:
        raise GeometryError(f"sector length {sector.u} too close to 0 or pi")
    rot = math.pi / 2.0 - (sector.end_contact + math.pi)
    acc = 0.0
    for idx, x in enumerate(sector.interior_angles):
        sign = 1.0 if idx % 2 == 0 else -1.0
        acc += sign * math.cos(x + rot)
    return 1.0 - acc / sinu


def ell(r: float) -> float:
    """Arc length of a chamber tangent to the incircle at inradius r."""
    if not 0.0 < r <= 0.5:
        raise GeometryError(f"inradius {r} outside (0, 1/2]")
    under = 4.0 * (1.0 - r) ** 2 - 1.0
    if under < 0.0:
        raise GeometryError(f"inradius {r} admits no tangent chamber")
    return 2.0 * math.atan(math.sqrt(under))


def sector_length_lower_bound(r: float) -> float:
    """Lower bound on every sector length of a polygon with inradius r.

    Decreasing in r on the admissible range [1 - 1/sqrt3, 1/2).
    """
    if not 0.0 < r < 0.5:
        raise GeometryError(f"inradius {r} outside (0, 1/2)")
    return 2.0 * (math.sqrt(1.0 - 2.0 * r)
                  + r * (ell(r) - math.acos(r / (1.0 - r))))


# ---------------------------------------------------------------------------
# serialization

def polygon_to_json(poly: ReuleauxPolygon) -> dict:
    return {"vertices": [[float(x), float(y)] for x, y in poly.vertices]}


def polygon_from_json(data: dict) -> ReuleauxPolygon:
    if not isinstance(data, dict) or "vertices" not in data:
        raise InvalidPolygon("polygon JSON needs an object with a 'vertices' key")
    return from_vertices(data["vertices"])


"""Reuleaux polygons of width one: parametrization, validation, incircle contacts.

A Reuleaux polygon with n = 2N+1 arcs is determined by its n vertices
P_0..P_{n-1}: boundary arc k is centered at P_k with unit radius and spans
angles [alpha_k, beta_k], where e^{i alpha_k} points to P_{k+1} and
e^{i beta_k} to P_{k-1}. Index-consecutive vertices sit at unit distance,
arc lengths j_k = beta_k - alpha_k are positive and sum to pi.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .arcs import (ArcRegion, GeometryError, TAU, _clip_region, _star_pairs,
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


class TooManyContactsError(GeometryError):
    """More incircle contacts than the trio search takes."""


# the most incircle contacts _choose_trio takes: it tries every trio,
# C(64, 3) = 41,664 of them
MAX_CONTACTS = 64


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


def _check_arcs(js, min_arc: float,
                arc_error: type[Exception] = AdjacencyError) -> None:
    """Raise arc_error unless arcs js (a list or an array) are in
    (min_arc, pi) and sum to pi."""
    # with unit neighbours such arcs close into a curve of constant width 1,
    # but only in exact arithmetic: within the 1e-9 slack, near a collapsed
    # arc a non-adjacent pair can pass 1 + WIDTH_TOL, so from_vertices keeps
    # its pairwise width test
    lo, total = min(js), sum(js)
    if lo <= min_arc or max(js) >= math.pi:
        if lo > math.pi:
            raise arc_error("vertices are in clockwise order; "
                            "list them counterclockwise")
        raise arc_error(f"arc lengths outside ({min_arc:g}, pi)")
    if abs(total - math.pi) > WIDTH_TOL:
        raise arc_error(f"arc lengths sum to {float(total)!r}, expected pi")


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
    cx, cy, mec_r = min_enclosing_circle(verts)
    verts = verts - np.array([cx, cy])
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
    _check_neighbours(verts)  # the cheapest check goes first
    poly = _canonical(verts)
    _check_arcs(poly.arc_lengths, 0.0)
    far = _far_pair(poly.vertices)
    if far is not None:
        raise WidthError(f"vertices {far[0]} and {far[1]} at distance "
                         f"{far[2]!r} > 1")
    return poly


@lru_cache(maxsize=32)
def regular(N: int) -> ReuleauxPolygon:
    """Regular Reuleaux polygon with 2N+1 arcs, width one (memoised: the
    result is immutable)."""
    try:
        N = operator.index(N)
    except TypeError:
        raise VertexCountError(f"N must be an integer, got {N!r}") from None
    if N < 1:
        raise VertexCountError("N must be >= 1")
    n = 2 * N + 1
    j = math.pi / n
    rho = 1.0 / (2.0 * math.cos(j / 2.0))
    angles = math.pi / 2.0 + (math.pi - j) * np.arange(n)
    verts = rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return _canonical(verts)


def as_region(poly: ReuleauxPolygon) -> ArcRegion:
    """The polygon as an intersection of unit disks centered at its vertices:
    the inner parallel body at depth 0."""
    return _clip_region(_star_pairs(poly.vertices), 1.0)[0]


# ---------------------------------------------------------------------------
# Blaschke vertex slide (geometric kernel; the public wrapper lives in blaschke)

def _norm(x: float, y: float) -> float:
    # numpy's 2-vector dot, as np.linalg.norm: it may round as fma(y, y, x*x),
    # and x*x + y*y would move the slide's new P_{k+1} in the last bit; only
    # the separation d, whose bits feed that point, needs it
    v = np.array((x, y))
    return math.sqrt(v.dot(v))


def _slide_vertex(verts, k: int, eps: float) -> tuple[tuple[float, float],
                                                      tuple[float, float]]:
    """Slide P_k by eps along the arc centered at P_{k-1}; return the new
    P_k and P_{k+1}, every other vertex stays.

    verts is a sequence of n (x, y) float pairs. P_{k+1} is the unit-circle
    intersection (about the new P_k and the old P_{k+2}) nearest its
    previous position. Up to rounding, the new P_k is at unit distance from
    P_{k-1} and the new P_{k+1} from P_k and P_{k+2}, or GeometryError is
    raised; so callers check only the arc lengths, and of those only arcs
    k-1, k, k+1 and k+2 (the arcs centred at or ending on a moved vertex)
    change.
    """
    n = len(verts)
    ax, ay = verts[k - 1]
    px, py = verts[k]
    ox, oy = verts[(k + 1) % n]
    bx, by = verts[(k + 2) % n]
    a0 = math.atan2(py - ay, px - ax)
    px, py = ax + math.cos(a0 + eps), ay + math.sin(a0 + eps)
    cx, cy = bx - px, by - py
    d = _norm(cx, cy)
    if d >= 2.0 - 1e-12 or d <= 1e-12:
        raise GeometryError(f"no unit-circle intersection at separation {d!r}")
    mx, my = 0.5 * (px + bx), 0.5 * (py + by)
    h = math.sqrt(max(0.0, 1.0 - 0.25 * d * d))
    ux, uy = -cy / d, cx / d
    c1 = (mx + h * ux, my + h * uy)
    c2 = (mx - h * ux, my - h * uy)
    # a choice, not a value: hypot differs from _norm in the last bit, which
    # matters only where the two distances tie
    near = math.hypot(c1[0] - ox, c1[1] - oy) <= math.hypot(c2[0] - ox, c2[1] - oy)
    return (px, py), c1 if near else c2


def _arc_length(prv, p, nxt) -> float:
    # arc of vertex p between its neighbours, as _angles_of computes it
    return (math.atan2(prv[1] - p[1], prv[0] - p[0])
            - math.atan2(nxt[1] - p[1], nxt[0] - p[0])) % TAU


_U32 = 0xFFFF_FFFF


def _raw_words(bitgen: np.random.PCG64, count: int):
    # the generator's 64-bit words, drawn count at a time, without end
    while True:
        yield from bitgen.random_raw(count).tolist()


def _walk_draws(seed: int, n: int, steps: int) -> tuple[list[int], list[float]]:
    """The arc indices and slides that `steps` rounds of
    default_rng(seed).integers(n) then .uniform(-0.02, 0.02) would draw,
    decoded from blocks of the same PCG64 words (one numpy call, not two
    per step).

    integers(n) is numpy's 32-bit Lemire draw with its rejection loop, on
    the low half of a fresh word and, at the next draw, on the high half
    it kept; uniform takes a whole word, -0.02 + 0.04 * ((w >> 11) 2^-53).
    From 2^32 numpy draws 64-bit integers, which this does not decode.
    """
    if not 2 <= n < 1 << 32:
        raise ValueError(f"walk draws want 2 <= n < 2**32, got {n}")
    words = _raw_words(np.random.PCG64(seed), 2 * steps + 2)
    threshold = (1 << 32) % n    # below it a draw is rejected
    half = None
    ks, epss = [], []
    for _ in range(steps):
        while True:
            if half is None:
                w = next(words)
                u, half = w & _U32, w >> 32
            else:
                u, half = half, None
            m = u * n
            if m & _U32 >= threshold:
                break
        ks.append(m >> 32)
        epss.append(-0.02 + 0.04 * ((next(words) >> 11) * 2.0**-53))
    return ks, epss


def random_polygon(N: int, steps: int, seed: int) -> ReuleauxPolygon:
    """Random Blaschke walk from regular(N); deterministic in the seed.

    Each step draws an arc index and a slide eps in [-0.02, 0.02], as
    default_rng(seed) would (see _walk_draws), and applies it only if the
    result stays a width-one polygon with every arc > 0.01.
    A slide at k moves P_k and P_{k+1} only, so a step recomputes arcs
    k-1 .. k+2 and no other; the walk runs on Python floats and builds the
    arrays once, for the canonical polygon it returns.
    A triangle admits no Blaschke move, so N = 1 returns regular(1) as is.
    """
    if steps < 0:
        raise InvalidPolygon(f"random walk wants steps >= 0, got {steps}")
    if seed < 0:
        raise InvalidPolygon(f"random walk wants seed >= 0, got {seed}")
    poly = regular(N)
    if N == 1:
        return poly
    verts = poly.vertices.tolist()
    js = poly.arc_lengths.tolist()
    n = len(verts)
    for k, eps in zip(*_walk_draws(seed, n, steps)):
        try:
            pk, pk1 = _slide_vertex(verts, k, eps)
            # vertices k-2 .. k+3 after the slide; arc k-1+i is at w[i + 1]
            w = (verts[k - 2], verts[k - 1], pk, pk1, verts[(k + 2) % n],
                 verts[(k + 3) % n])
            cand = js.copy()
            for i in range(4):
                cand[(k - 1 + i) % n] = _arc_length(w[i], w[i + 1], w[i + 2])
            _check_arcs(cand, MIN_ARC)
        except (GeometryError, InvalidPolygon):
            continue
        verts[k], verts[(k + 1) % n], js = pk, pk1, cand
    return _canonical(np.array(verts))


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
    if len(contacts) > MAX_CONTACTS:
        raise TooManyContactsError(
            f"{len(contacts)} incircle contacts; the trio search takes at "
            f"most {MAX_CONTACTS}")
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
    already carry all six lengths; their u values sum to pi. Fewer than 3
    contacts raise ContactDeficitError, more than MAX_CONTACTS
    TooManyContactsError.
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


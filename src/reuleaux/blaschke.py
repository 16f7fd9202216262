"""Blaschke deformations of Reuleaux polygons and the Cheeger shape calculus.

A Blaschke move slides vertex P_k along the arc centered at P_{k-1} by an
angle eps and rebuilds P_{k+1} so both unit-distance constraints hold again.
Arc k-1 changes length by exactly -eps, arcs k, k+1, k+2 change shape, and
every other arc is untouched. The derivative of the Cheeger constant along
the move concentrates on the contact intervals of arcs k and k+1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .arcs import GeometryError, area
from .cheeger import CheegerSolution, cheeger_radius, cheeger_set
from .polygon import (InvalidPolygon, MIN_ARC, ReuleauxPolygon, _canonical,
                      _check_arcs, _slide_vertex)

# settings of local_maximize, explained in its docstring
DERIV_TOL = 1e-8
STEP0 = 0.05
COLLAPSE_FLOOR = MIN_ARC


class InvalidDeformation(ValueError):
    pass


class ArcCollapseError(InvalidDeformation):
    """The move would drive some arc length to zero or below."""


@dataclass(frozen=True)
class AuxParams:
    """Scalar parameters of the contact-angle calculus at Cheeger depth R."""

    R: float

    def __post_init__(self) -> None:
        if not 0.0 < self.R < 0.5:
            raise GeometryError(f"R = {self.R} outside (0, 1/2)")

    @property
    def a(self) -> float:
        return (1.0 - self.R) ** 2

    @classmethod
    def from_polygon(cls, poly: ReuleauxPolygon, tol: float = 1e-12) -> "AuxParams":
        return cls(R=cheeger_radius(poly, tol))


def aux_U(x: float, params: AuxParams) -> float:
    """Angle whose scaled sine matches sin x on the inner body: asin(sin x / sqrt a)."""
    s = math.sin(x) / math.sqrt(params.a)
    if abs(s) > 1.0 + 1e-12:
        raise GeometryError(f"aux_U domain violation at x = {x}")
    return math.asin(min(1.0, max(-1.0, s)))


def aux_G(x: float, params: AuxParams) -> float:
    # equals sqrt(a) * cos(x) * cos(U(x)) + sin(x)^2
    under = params.a - math.sin(x) ** 2
    if under < -1e-15:
        raise GeometryError(f"aux_G domain violation at x = {x}")
    return math.sin(x) ** 2 + math.cos(x) * math.sqrt(max(0.0, under))


def aux_F(x: float, y: float, params: AuxParams) -> float:
    return math.sqrt(params.a) * math.cos(2.0 * x + y - aux_U(y, params))


def aux_H(x: float, y: float, z: float, params: AuxParams) -> float:
    return math.sin(2.0 * z) * (aux_G(x, params) - aux_F(y, z, params))


# ---------------------------------------------------------------------------
# the deformation itself

def deform(poly: ReuleauxPolygon, k: int, eps: float) -> ReuleauxPolygon:
    """Blaschke move: slide P_k by eps along the arc centered at P_{k-1}.

    Positive eps advances P_k counterclockwise, shortening arc k-1 by eps.
    Raises InvalidDeformation for triangles (no move exists: rebuilding
    P_{k+1} would reflect the shape instead of deforming it), IndexError for
    a bad index, ArcCollapseError when any arc would close up (eps = +inf
    included) and InvalidDeformation for eps NaN or -inf.
    """
    n = poly.n
    if n < 5:
        raise InvalidDeformation("a Reuleaux triangle admits no Blaschke move")
    if not 0 <= k < n:
        raise IndexError(f"arc index {k} outside 0..{n - 1}")
    if math.isnan(eps) or eps == -math.inf:
        # +inf fails below, as a collapse of arc k-1
        raise InvalidDeformation(f"eps must be finite, got {eps}")
    if eps == 0.0:
        return poly
    js = poly.arc_lengths
    if js[(k - 1) % n] - eps <= 1e-12:
        raise ArcCollapseError(
            f"arc {(k - 1) % n} has length {js[(k - 1) % n]}, cannot shrink by {eps}")
    try:
        pk, pk1 = _slide_vertex(poly.vertices.tolist(), k, eps)
    except GeometryError as exc:
        raise ArcCollapseError(str(exc)) from exc
    verts = poly.vertices.copy()
    verts[k], verts[(k + 1) % n] = pk, pk1
    cand = _canonical(verts)
    _check_arcs(cand.arc_lengths, 1e-12, ArcCollapseError)
    return cand


def shape_derivative(poly: ReuleauxPolygon, k: int,
                     solution: CheegerSolution | None = None,
                     tol: float = 1e-12) -> float:
    """d h / d eps of the Blaschke move at k.

    The derivative integrates (curvature - h) * normal speed over the contact
    part of the Cheeger set boundary; only arcs k and k+1 move, and on the
    unit-radius contact arcs the curvature is 1. It is 0.0 when both contact
    intervals are empty.
    """
    if solution is None:
        solution = cheeger_set(poly, tol)
    n = poly.n
    k = k % n
    kp1 = (k + 1) % n
    c_k = solution.contact_for(k)
    c_k1 = solution.contact_for(kp1)
    if c_k is None and c_k1 is None:
        return 0.0
    total = 0.0
    if c_k is not None:
        lo, hi = c_k
        base = poly.alphas[(k - 1) % n]
        total += math.cos(lo - base) - math.cos(hi - base)
    if c_k1 is not None:
        lo, hi = c_k1
        base = poly.alphas[kp1]
        ratio = math.sin(poly.arc_lengths[k]) / math.sin(poly.arc_lengths[kp1])
        total -= ratio * (math.cos(lo - base) - math.cos(hi - base))
    return (1.0 - solution.h) / area(solution.cheeger_set) * total


def optimality_residual(poly: ReuleauxPolygon, k: int,
                        params: AuxParams | None = None) -> float:
    """Stationarity residual of arc k: zero at critical polygons.

    Equals aux_H at (k-1, k, k+1) minus aux_H at (k+2, k+1, k) on the half
    arc lengths; analytically this is sqrt(a) sin(j_{k+1}) times the
    difference of contact-weighted cosines entering the shape derivative.
    """
    if params is None:
        params = AuxParams.from_polygon(poly)
    n = poly.n
    half = 0.5 * poly.arc_lengths
    return (aux_H(half[(k - 1) % n], half[k % n], half[(k + 1) % n], params)
            - aux_H(half[(k + 2) % n], half[(k + 1) % n], half[k % n], params))


def residual_norm(poly: ReuleauxPolygon, params: AuxParams | None = None) -> float:
    if params is None:
        params = AuxParams.from_polygon(poly)
    return max(abs(optimality_residual(poly, k, params)) for k in range(poly.n))


# ---------------------------------------------------------------------------
# local ascent

@dataclass(frozen=True)
class TrajectoryStep:
    iteration: int
    k: int              # arc moved (-1 for the initial row)
    eps: float
    h: float
    residual_max: float


@dataclass(frozen=True)
class DeformationTrajectory:
    steps: tuple[TrajectoryStep, ...]
    outcome: str        # "boundary" | "stationary" | "maxiter"
    polygon: ReuleauxPolygon

    @property
    def final_h(self) -> float:
        return self.steps[-1].h


def _try_move(poly: ReuleauxPolygon, k: int,
              eps: float) -> tuple[ReuleauxPolygon, CheegerSolution] | None:
    """deform(poly, k, eps) and its Cheeger solution; None if the move fails."""
    try:
        cand = deform(poly, k, eps)
    except (InvalidDeformation, InvalidPolygon, GeometryError):
        return None
    if cand.arc_lengths.min() <= 1e-6:
        return None
    return cand, cheeger_set(cand)


def local_maximize(poly: ReuleauxPolygon,
                   max_iters: int = 500) -> DeformationTrajectory:
    """Greedy ascent of h over Blaschke moves.

    Follows the largest shape derivative with a backtracking step from
    STEP0; at critical points (all derivatives below DERIV_TOL) it probes
    finite moves of both signs at every arc, since h can still gain at
    second order there. Stops when an arc falls below COLLAPSE_FLOOR
    ("boundary"), when no move improves h ("stationary"), or at max_iters.
    """
    current = poly
    sol = cheeger_set(current)
    params = AuxParams(sol.R)
    rows = [TrajectoryStep(0, -1, 0.0, sol.h, residual_norm(current, params))]
    if current.n < 5:
        return DeformationTrajectory(tuple(rows), "stationary", current)
    outcome = "maxiter"
    for it in range(1, max_iters + 1):
        n = current.n
        derivs = [shape_derivative(current, k, sol) for k in range(n)]
        kbest = max(range(n), key=lambda k: abs(derivs[k]))
        accepted = None
        if abs(derivs[kbest]) >= DERIV_TOL:
            eps = math.copysign(STEP0, derivs[kbest])
            for _ in range(20):
                got = _try_move(current, kbest, eps)
                if got is not None and got[1].h > sol.h + 1e-14:
                    accepted = (kbest, eps, *got)
                    break
                eps *= 0.5
        if accepted is None:
            # critical or stalled: probe finite moves, largest first
            eps0 = STEP0
            while eps0 >= 1e-4 and accepted is None:
                for k in range(n):
                    for sgn in (1.0, -1.0):
                        got = _try_move(current, k, sgn * eps0)
                        if got is not None and got[1].h > sol.h + 1e-12:
                            accepted = (k, sgn * eps0, *got)
                            break
                    if accepted is not None:
                        break
                eps0 *= 0.5
        if accepted is None:
            outcome = "stationary"
            break
        k, eps, current, sol = accepted
        params = AuxParams(sol.R)
        rows.append(TrajectoryStep(it, k, eps, sol.h,
                                   residual_norm(current, params)))
        if current.arc_lengths.min() < COLLAPSE_FLOOR:
            outcome = "boundary"
            break
    return DeformationTrajectory(tuple(rows), outcome, current)


def trajectory_csv(traj: DeformationTrajectory) -> str:
    lines = ["iteration,k,eps,h,residual_max"]
    for s in traj.steps:
        lines.append(f"{s.iteration},{s.k},{s.eps!r},{s.h!r},{s.residual_max!r}")
    lines.append(f"# outcome={traj.outcome} final_h={traj.final_h!r}")
    return "\n".join(lines) + "\n"

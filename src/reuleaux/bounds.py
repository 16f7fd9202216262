"""Quantitative bounds for Cheeger maximizers among width-one bodies.

The chain of estimates pinning the Reuleaux triangle as the maximizer runs
through: a decay rate tau for consecutive arc lengths of critical polygons,
per-N caps on the largest arc (the fixed-point table), a lower bound on the
inradius of any near-maximizer, and endgame estimates ruling out polygons
with five or more arcs. All numeric constants live here; nothing downstream
re-types their digits. This module computes; `verify` compares each bound
with its threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# --- constants registry ----------------------------------------------------

# tau(h) = RATE_INTERCEPT - RATE_CURVATURE * h^2: lower bound on the ratio of
# consecutive arc lengths of a critical polygon, h = its largest arc length.
RATE_INTERCEPT = 0.99
RATE_CURVATURE = 0.05

# admissible window for the Cheeger radius of a maximizer:
# half the triangle inradius from below, the triangle Cheeger radius above
R_BAND = (0.21132, 0.22803)
# window for R^2 / (4 (1 - R)) over R_BAND (both ends rounded outward)
COEFF_BAND = (0.01415, 0.01684)

# inradius bracket for a maximizer: triangle inradius from below, and the
# cap r0 obtained by inverting the minimal-area profile at pi / h(triangle)
INRADIUS_FLOOR = 0.4226
INRADIUS_CAP = 0.4302
# lower bound on h(triangle) used to derive the cap
H_TRIANGLE_FLOOR = 4.3853
# certified window for the triangle Cheeger radius
R_TRIANGLE_WINDOW = (0.22802, 0.22803)

# every sector length of a near-maximizer lands in this window
SECTOR_BAND = (0.9926, 1.1563)

# polygons with 5 and >= 7 arcs are ruled out once their inradius exceeds:
PENTAGON_FLOOR = 0.47
MANY_ARC_FLOOR = 0.44

# cubic envelope of the contact-shift function on [0, pi/6]:
# x/(1-R) + LOWER x^3 <= U(x) <= x/(1-R) + UPPER x^3 for R in R_BAND.
# The sharp upper constant is 0.18314625 (attained at x = pi/6, top of the
# R band), rounded outward here so the inequality holds everywhere.
U_CUBIC_LOWER = 0.1284
U_CUBIC_UPPER = 0.1832

# quartic majorant of the second-order contact defect and its certified max
F2_COEFFS = (-0.04, 0.00732, 0.04491)       # u^4, u^3, u^2
F2_ARGMAX_WINDOW = (0.8210107, 0.8210108)
F2_MAX_CAP = 0.01614873

# worst-case trigonometric factors over the sector window:
# max of u/sin(u) and of 1/sin(u) for u in [pi/3, SECTOR_BAND'S top]
WORST_U_OVER_SIN = 1.2633
WORST_INV_SIN = 2.0 / math.sqrt(3.0)

# reference decay table: N -> (tau_N, largest arc cap, smallest arc floor)
TABLE1_REFERENCE = {
    2: (0.9687, 0.6526, 0.6123),
    3: (0.9791, 0.4652, 0.4367),
    4: (0.9834, 0.3622, 0.3387),
    5: (0.9855, 0.2971, 0.2762),
    6: (0.9868, 0.2522, 0.2328),
    7: (0.9875, 0.2194, 0.2009),
    8: (0.9881, 0.1944, 0.1765),
    9: (0.9884, 0.1746, 0.1572),
}
TABLE1_TOL = 1e-3

# final per-N interval checks ((N, t0, t1, floor)); the angles are the
# printed interval endpoints the claims are evaluated at
LASTESTIMATE_CASES = (
    (4, math.pi / 2.0 - 1.1563, math.pi / 6.0, 0.46),
    (5, math.pi / 2.0 - 1.1538, math.pi / 6.0, 0.44),
    (5, 1.1563 / 2.0, 1.0184, 0.44),
    (6, 0.5619, 1.10505, 0.45),
)


# --- decay rate and the fixed-point table -----------------------------------

def tau_of_h(h: float) -> float:
    """Decay-ratio lower bound from the largest arc length h (h < pi/3 regime)."""
    return RATE_INTERCEPT - RATE_CURVATURE * h * h


def hmax_of_tau(tau: float, N: int) -> float:
    """Cap on the largest arc of a critical (2N+1)-gon with decay ratio tau.

    Comes from summing the geometric arc-length chain to pi. Continuous at
    tau -> 1 with limit pi/(2N+1), the regular polygon's arc.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau = {tau} outside (0, 1]")
    denom = 1.0 + tau - 2.0 * tau ** (N + 1)
    if denom <= 0.0:
        return math.pi / (2 * N + 1)
    return math.pi * (1.0 - tau) / denom


@dataclass(frozen=True)
class BoundsRow:
    N: int
    tau: float
    h_max: float
    h_min: float

    @property
    def sides(self) -> int:
        return 2 * self.N + 1


def table_row(N: int, h_start: float = math.pi / 3.0,
              tol: float = 1e-10) -> BoundsRow:
    """Self-consistent (tau, h_max) pair: tau = tau_of_h(h), h = hmax_of_tau(tau)."""
    h = h_start
    for _ in range(200):
        tau = tau_of_h(h)
        h_new = hmax_of_tau(tau, N)
        if abs(h_new - h) < tol:
            h = h_new
            break
        h = h_new
    tau = tau_of_h(h)
    return BoundsRow(N=N, tau=tau, h_max=h, h_min=tau ** N * h)


def table1(n_range=range(2, 10)) -> list[BoundsRow]:
    return [table_row(N) for N in n_range]


def table1_csv(rows: list[BoundsRow] | None = None) -> str:
    rows = table1() if rows is None else rows
    lines = ["N,sides,tau,h_max,h_min"]
    for row in rows:
        lines.append(f"{row.N},{row.sides},{row.tau:.10g},"
                     f"{row.h_max:.10g},{row.h_min:.10g}")
    return "\n".join(lines) + "\n"


def table1_check(rows: list[BoundsRow] | None = None) -> list[str]:
    """Mismatches (empty when every entry agrees with the reference digits)."""
    rows = table1() if rows is None else rows
    bad = []
    for row in rows:
        ref = TABLE1_REFERENCE.get(row.N)
        if ref is None:
            continue
        for name, got, want in (("tau", row.tau, ref[0]),
                                ("h_max", row.h_max, ref[1]),
                                ("h_min", row.h_min, ref[2])):
            if abs(got - want) > TABLE1_TOL:
                bad.append(f"N={row.N} {name}: {got!r} vs {want!r}")
    return bad


# --- inradius lower bound ----------------------------------------------------

def inradius_lower_bound_factors(h: float, tau: float, u_over_sinu: float,
                                 inv_sinu: float) -> float:
    """Inradius floor of a critical polygon, explicit trigonometric factors."""
    return (0.5
            - 0.25 * h * inv_sinu
            - (1.0 - tau) / (4.0 * tau) * (1.0 + h * h / 6.0 * u_over_sinu)
            - h * h / 24.0 * u_over_sinu)


def inradius_lower_bound(h: float, tau: float, u: float) -> float:
    """Same floor evaluated at a concrete largest-sector length u."""
    sinu = math.sin(u)
    if sinu <= 0.0:
        raise ValueError(f"sector length {u} outside (0, pi)")
    return inradius_lower_bound_factors(h, tau, u / sinu, 1.0 / sinu)


def minr_worstcase() -> float:
    """The floor at the reference 15-arc row with worst-case sector factors.

    This is the number that beats INRADIUS_CAP and closes the large-N case.
    """
    tau, h_max, _ = TABLE1_REFERENCE[7]
    return inradius_lower_bound_factors(h_max, tau,
                                        WORST_U_OVER_SIN, WORST_INV_SIN)


# --- endgame scalar estimates ------------------------------------------------

def pentagon_inradius_floor() -> float:
    """Floor for pentagon inradii via the tangent-arc identity r = 1 - 1/(2 cos(j/2))."""
    h_max = TABLE1_REFERENCE[2][1]
    return 1.0 - 1.0 / (2.0 * math.cos(0.5 * h_max))


def many_arc_inradius_floor() -> float:
    """Floor for 7-or-more-arc polygons from two consecutive largest arcs."""
    return 1.0 - 1.0 / (2.0 * math.cos(TABLE1_REFERENCE[3][1]))


def lastestimate(t0: float, t1: float, tau: float, h_max: float,
                 h_min: float) -> float:
    """Interval form of the inradius floor used in the final N = 4, 5, 6 checks."""
    first = (math.cos(0.5 * t0 + 0.25 * math.pi - 0.5 * (1.0 - tau) * h_max)
             / math.cos(t0)) * (1.0 - 4.0 * math.sin(0.5 * h_min) ** 2)
    second = 2.0 * math.sin(0.25 * (1.0 - tau) * h_max) / math.cos(t1)
    return 1.0 - first - second


def coeff_of_R(R: float) -> float:
    """The quadratic-over-linear coefficient R^2 / (4 (1 - R))."""
    return R * R / (4.0 * (1.0 - R))


def F2(u: float) -> float:
    c4, c3, c2 = F2_COEFFS
    return c4 * u ** 4 + c3 * u ** 3 + c2 * u ** 2


def f2_argmax() -> float:
    """Positive stationary point of F2 (closed form, quadratic after factoring u)."""
    c4, c3, c2 = F2_COEFFS
    # F2' = 4 c4 u^3 + 3 c3 u^2 + 2 c2 u = u (4 c4 u^2 + 3 c3 u + 2 c2)
    a, b, c = 4.0 * c4, 3.0 * c3, 2.0 * c2
    disc = b * b - 4.0 * a * c
    return (-b - math.sqrt(disc)) / (2.0 * a)

"""Named verification checks: the full numeric acceptance suite.

Every check recomputes its claim from scratch and, where the design demands
it, compares two independent routes (geometric solver vs scalar closed form,
closed-form areas vs radial quadrature, analytic derivatives vs finite
differences). The CLI `verify` subcommand and the acceptance tests both run
exactly these functions, so there is one source of truth for pass/fail.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import blaschke, bounds, cheeger, minarea, polygon
from .arcs import SQRT3, area, minkowski_disk_sum, perimeter
from .bounds import (COEFF_BAND, F2, F2_ARGMAX_WINDOW, F2_MAX_CAP,
                     H_TRIANGLE_FLOOR, INRADIUS_CAP, INRADIUS_FLOOR, R_BAND,
                     R_TRIANGLE_WINDOW, SECTOR_BAND, U_CUBIC_LOWER,
                     U_CUBIC_UPPER)
from .polygon import (ReuleauxPolygon, as_region, regular, random_polygon,
                      sectors)


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime: float
    message: str
    details: list[str] = field(default_factory=list)


class _Collector:
    """Accumulates assertions for one check and times it; never raises."""

    def __init__(self) -> None:
        self.passed = True
        self.lines: list[str] = []
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def expect(self, ok: bool, line: str) -> None:
        if not ok:
            self.passed = False
        self.lines.append(("ok   " if ok else "FAIL ") + line)

    def note(self, line: str) -> None:
        self.lines.append("     " + line)


CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(body: Callable[[_Collector], str]) -> Callable[[], CheckResult]:
    """Register `check_<name>` as <name>, in definition order. The body
    records its expectations on `c` and returns its one-line message."""
    name = body.__name__.removeprefix("check_")

    def run() -> CheckResult:
        c = _Collector()
        message = body(c)
        return CheckResult(name, c.passed, c.elapsed(), message, c.lines)

    CHECKS[name] = run
    return run


# ---------------------------------------------------------------------------
# quadrature oracle: radial integration, independent of the Green formula

def _radial_area(vertices: np.ndarray, radius: float,
                 corner_angles: np.ndarray, order: int = 50) -> float:
    """Area of the intersection of disks B(v, radius) by radial quadrature.

    Star-shaped integration around the origin (which must lie inside):
    area = 1/2 * integral of rho(phi)^2, rho = first exit over all circles.
    Gauss-Legendre per smooth piece; corner angles split the pieces.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    phis = np.sort(np.mod(corner_angles, 2.0 * math.pi))
    total = 0.0
    vx = vertices[:, 0][:, None]
    vy = vertices[:, 1][:, None]
    r2 = vx * vx + vy * vy
    for i in range(len(phis)):
        lo = phis[i]
        hi = phis[(i + 1) % len(phis)] if i + 1 < len(phis) else phis[0] + 2.0 * math.pi
        if hi <= lo + 1e-15:
            continue
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        phi = mid + half * nodes
        ux, uy = np.cos(phi), np.sin(phi)
        proj = vx * ux + vy * uy
        disc = proj * proj + radius * radius - r2
        rho = (proj + np.sqrt(np.maximum(disc, 0.0))).min(axis=0)
        total += half * float(np.sum(weights * 0.5 * rho * rho))
    return total


def _region_radial_area(poly: ReuleauxPolygon) -> float:
    region = as_region(poly)
    r, s = region.radius, region.start
    xs = (region.centre[:, 0] + r * np.cos(s)).tolist()
    ys = (region.centre[:, 1] + r * np.sin(s)).tolist()
    corners = np.array([math.atan2(y, x) for x, y in zip(xs, ys)])
    return _radial_area(poly.vertices, 1.0, corners)


# ---------------------------------------------------------------------------
# checks, in acceptance order

@_check
def check_triangle(c: _Collector) -> str:
    r_solver = cheeger.cheeger_radius(regular(1), tol=1e-14)
    r_closed, h_closed = cheeger.triangle_closed_form(tol=1e-14)
    lo, hi = R_TRIANGLE_WINDOW
    c.expect(lo <= r_solver <= hi, f"solver R = {r_solver!r} in [{lo}, {hi}]")
    c.expect(lo <= r_closed <= hi, f"closed-form R = {r_closed!r} in [{lo}, {hi}]")
    c.expect(abs(r_solver - r_closed) <= 1e-9,
             f"|solver - closed| = {abs(r_solver - r_closed):.3e} <= 1e-9")
    c.expect(h_closed >= H_TRIANGLE_FLOOR,
             f"h = {h_closed!r} >= {H_TRIANGLE_FLOOR}")
    dt = c.elapsed()
    c.expect(dt < 1.0, f"runtime {dt:.3f}s < 1s")
    return f"R = {r_closed:.12f}, h = {h_closed:.9f}"


@_check
def check_disk(c: _Collector) -> str:
    R = cheeger.disk_cheeger_radius(1.0, tol=1e-13)
    c.expect(abs(R - 0.25) <= 1e-10, f"unit disk R = {R!r}, |R - 1/4| <= 1e-10")
    c.expect(abs(1.0 / R - 4.0) <= 1e-9, f"unit disk h = {1.0 / R!r} ~ 4")
    for w in (0.5, 2.0):
        Rw = cheeger.disk_cheeger_radius(w, tol=1e-13)
        c.expect(abs(Rw - w / 4.0) <= 1e-10,
                 f"width {w} disk R = {Rw!r}, expected {w / 4.0}")
    return f"R(unit disk) = {R!r}"


@_check
def check_table1(c: _Collector) -> str:
    rows = bounds.table1()
    mismatches = bounds.table1_check(rows)
    c.expect(not mismatches, "all 8 rows match the reference to 1e-3"
             + ("" if not mismatches else ": " + "; ".join(mismatches)))
    for row in rows:
        c.expect(abs(row.h_min - row.tau ** row.N * row.h_max) <= 1e-12,
                 f"N={row.N}: h_min = tau^N h_max to 1e-12")
    dt = c.elapsed()
    c.expect(dt < 0.1, f"runtime {dt:.4f}s < 0.1s")
    return f"8 rows recomputed, {len(mismatches)} mismatches"


@_check
def check_radius_window(c: _Collector) -> str:
    r_tri = minarea.R_TRIANGLE
    r0 = minarea.min_area_inverse(math.pi / H_TRIANGLE_FLOOR)
    c.expect(INRADIUS_FLOOR <= r0 < INRADIUS_CAP,
             f"inverse minimal area at pi/{H_TRIANGLE_FLOOR}: {r0!r} "
             f"in [{INRADIUS_FLOOR}, {INRADIUS_CAP})")
    c.expect(r_tri >= INRADIUS_FLOOR, f"triangle inradius {r_tri!r} >= floor")
    R_closed = cheeger.triangle_closed_form(tol=1e-14)[0]
    c.expect(R_BAND[0] <= 0.5 * r_tri, f"R band floor <= r_tri/2 = {0.5 * r_tri!r}")
    c.expect(0.5 * r_tri <= R_closed, "r_tri/2 <= R(triangle)")
    c.expect(R_closed <= R_BAND[1], f"R(triangle) = {R_closed!r} <= {R_BAND[1]}")
    return f"r0 = {r0:.10f}"


@_check
def check_sector(c: _Collector) -> str:
    u_lb = polygon.sector_length_lower_bound(INRADIUS_CAP)
    c.expect(0.9925 <= u_lb <= 0.9927,
             f"sector floor at r = {INRADIUS_CAP}: {u_lb!r} in [0.9925, 0.9927]")
    c.expect(u_lb >= SECTOR_BAND[0], f"floor >= registry band {SECTOR_BAND[0]}")
    u_max = math.pi - 2.0 * u_lb
    c.expect(u_max <= SECTOR_BAND[1],
             f"largest sector pi - 2*floor = {u_max!r} <= {SECTOR_BAND[1]}")
    grid = np.linspace(minarea.R_TRIANGLE, INRADIUS_CAP, 64)
    vals = [polygon.sector_length_lower_bound(float(r)) for r in grid]
    c.expect(all(b < a + 1e-12 for a, b in zip(vals, vals[1:])),
             "floor decreasing in r on the admissible range")
    return f"floor = {u_lb:.8f}, complement = {u_max:.8f}"


@_check
def check_minr(c: _Collector) -> str:
    v = bounds.minr_worstcase()
    c.expect(v > INRADIUS_CAP, f"worst-case inradius floor {v!r} > {INRADIUS_CAP}")
    c.expect(abs(v - 0.4309) <= 5e-4, f"floor {v!r} within 5e-4 of 0.4309")
    rows = [bounds.table_row(N) for N in (7, 8, 9)]
    floors = [bounds.inradius_lower_bound_factors(
        row.h_max, row.tau, bounds.WORST_U_OVER_SIN, bounds.WORST_INV_SIN)
        for row in rows]
    c.expect(all(b > a for a, b in zip(floors, floors[1:])),
             f"floor grows with N: {[f'{f:.5f}' for f in floors]}")
    return f"floor = {v:.8f}"


@_check
def check_small_polygon(c: _Collector) -> str:
    v5 = bounds.pentagon_inradius_floor()
    c.expect(v5 > bounds.PENTAGON_FLOOR,
             f"pentagon inradius floor {v5!r} > {bounds.PENTAGON_FLOOR}")
    v7 = bounds.many_arc_inradius_floor()
    c.expect(v7 > bounds.MANY_ARC_FLOOR,
             f"7-plus-arc inradius floor {v7!r} > {bounds.MANY_ARC_FLOOR}")
    return f"pentagon {v5:.6f}, many-arc {v7:.6f}"


def _fd_h(poly: ReuleauxPolygon, k: int, eps: float) -> float:
    hp = 1.0 / cheeger.cheeger_radius(blaschke.deform(poly, k, eps), tol=1e-15)
    hm = 1.0 / cheeger.cheeger_radius(blaschke.deform(poly, k, -eps), tol=1e-15)
    return (hp - hm) / (2.0 * eps)


@_check
def check_derivative(c: _Collector) -> str:
    rel5: list[float] = []
    rel4: list[float] = []
    for seed in range(100, 150):
        N = 2 + seed % 3
        poly = random_polygon(N, 30 + seed % 11, seed)
        k = seed % poly.n
        sol = cheeger.cheeger_set(poly, tol=1e-14)
        d_an = blaschke.shape_derivative(poly, k, sol)
        d5 = _fd_h(poly, k, 1e-5)
        d4 = _fd_h(poly, k, 1e-4)
        scale = max(abs(d_an), 1e-12)
        rel5.append(abs(d5 - d_an) / scale)
        rel4.append(abs(d4 - d_an) / scale)
    worst = max(rel5)
    c.expect(worst <= 1e-3,
             f"50 polygons: worst relative FD error {worst:.3e} <= 1e-3 at eps=1e-5")
    m5, m4 = float(np.median(rel5)), float(np.median(rel4))
    c.expect(m5 < m4,
             f"median error decreases under refinement: {m4:.3e} -> {m5:.3e}")
    return f"worst rel err {worst:.3e}, medians {m4:.2e}/{m5:.2e}"


@_check
def check_criticality(c: _Collector) -> str:
    worst_reg = 0.0
    for N in range(1, 10):
        poly = regular(N)
        params = blaschke.AuxParams.from_polygon(poly, tol=1e-13)
        worst_reg = max(worst_reg, blaschke.residual_norm(poly, params))
    c.expect(worst_reg <= 1e-14,
             f"regular polygons N=1..9: max residual {worst_reg:.3e} <= 1e-14")
    bent = blaschke.deform(regular(2), 1, 0.05)
    res = blaschke.residual_norm(bent,
                                 blaschke.AuxParams.from_polygon(bent, tol=1e-13))
    c.expect(res > 1e-5,
             f"perturbed pentagon: max residual {res:.6e} > 1e-5")
    return f"regular {worst_reg:.2e}, perturbed {res:.3e}"


def h_triangle() -> float:
    """h(Reuleaux triangle) from the solver, the bar of the sweep."""
    return 1.0 / cheeger.cheeger_radius(regular(1), tol=1e-14)


def sweep_walks(count: int) -> Iterator[tuple[int, ReuleauxPolygon, float]]:
    """The sweep's population: (seed, its random walk, its Cheeger radius)
    for seeds 0..count-1: 3 to 13 arcs, 30, 37 or 44 walk steps."""
    for seed in range(count):
        poly = random_polygon(seed % 6 + 1, 30 + (seed * 7) % 21, seed)
        yield seed, poly, cheeger.cheeger_radius(poly, tol=1e-12)


@_check
def check_sweep(c: _Collector) -> str:
    h_tri = h_triangle()
    count = 1000
    worst_gap = math.inf     # h(triangle) - h over non-triangles
    h_at_tri = []
    sector_slack = area_slack = math.inf
    inr_mismatch = barbier = 0.0
    fails: list[str] = []
    for seed, poly, R in sweep_walks(count):
        h = 1.0 / R
        if h > h_tri + 1e-9:
            fails.append(f"seed {seed}: h = {h!r} exceeds triangle")
        if poly.n == 3:
            h_at_tri.append(h)
        else:
            worst_gap = min(worst_gap, h_tri - h)
        region = as_region(poly)
        barbier = max(barbier, abs(perimeter(region) - math.pi))
        area_slack = min(area_slack,
                         area(region) - minarea.min_area(poly.inradius))
        try:
            secs = sectors(poly)
        except polygon.ContactDeficitError as exc:
            fails.append(f"seed {seed}: {exc}")
            continue
        u_lb = polygon.sector_length_lower_bound(poly.inradius)
        for s in secs:
            sector_slack = min(sector_slack, s.u - u_lb)
            inr_mismatch = max(inr_mismatch,
                               abs(polygon.inradius_from_sector(s) - poly.inradius))
    c.expect(not fails, f"{count} random polygons stay below the triangle"
             + ("" if not fails else f" ({len(fails)} violations)"))
    for line in fails[:5]:
        c.note(line)
    c.expect(all(abs(h - h_tri) <= 1e-9 for h in h_at_tri),
             f"{len(h_at_tri)} triangle draws sit at h(triangle) exactly")
    c.expect(worst_gap >= 1e-6,
             f"non-triangles stay clear: min gap {worst_gap:.3e} >= 1e-6")
    c.expect(barbier <= 1e-9, f"Barbier: worst |perimeter - pi| = {barbier:.2e}")
    c.expect(sector_slack >= -1e-9,
             f"sector lengths clear the lower bound, min slack {sector_slack:.3e}")
    c.expect(inr_mismatch <= 1e-8,
             f"sector inradius identity, worst |diff| = {inr_mismatch:.2e}")
    c.expect(area_slack >= -1e-9,
             f"areas clear the minimal-area profile, min slack {area_slack:.3e}")
    dt = c.elapsed()
    c.expect(dt < 600.0, f"runtime {dt:.1f}s < 600s")
    return (f"{count} polygons, min gap {worst_gap:.2e}, "
            f"{len(h_at_tri)} triangles")


@_check
def check_minarea(c: _Collector) -> str:
    r3 = minarea.regular_inradius(1)
    v = minarea.min_area(r3)
    want = 0.5 * (math.pi - SQRT3)
    c.expect(abs(v - want) <= 1e-10,
             f"A(triangle inradius) = {v!r} matches (pi - sqrt3)/2 to 1e-10")
    worst_quad = 0.0
    prev = v
    monotone = True
    for N in (2, 3, 4):
        lo, hi = minarea.regular_inradius(N - 1), minarea.regular_inradius(N)
        for r in np.linspace(lo, hi, 52)[1:-1]:
            closed = minarea.min_area(float(r))
            shape = minarea.profile(float(r))
            quad = _region_radial_area(shape.polygon)
            worst_quad = max(worst_quad, abs(closed - quad))
            if closed <= prev:
                monotone = False
            prev = closed
    c.expect(worst_quad <= 1e-8,
             f"closed form vs radial quadrature on 150 radii: "
             f"worst |diff| = {worst_quad:.3e} <= 1e-8")
    c.expect(monotone, "closed form strictly increasing across the grid")
    worst_jump = 0.0
    for N in (2, 3, 4):
        edge = minarea.regular_inradius(N)
        jump = abs(minarea.min_area(edge - 1e-9) - minarea.min_area(edge + 1e-9))
        worst_jump = max(worst_jump, jump)
    c.expect(worst_jump <= 1e-8,
             f"continuity at band edges: worst jump {worst_jump:.3e} <= 1e-8")
    rt = minarea.min_area_inverse(math.pi / H_TRIANGLE_FLOOR)
    c.expect(rt < INRADIUS_CAP, f"inverse at pi/h(triangle): {rt!r} < {INRADIUS_CAP}")
    return f"quadrature diff {worst_quad:.2e}, edge jump {worst_jump:.2e}"


@_check
def check_bands(c: _Collector) -> str:
    worst_lo = worst_hi = 0.0
    ok = True
    for R in (R_BAND[0], 0.5 * (R_BAND[0] + R_BAND[1]), R_BAND[1]):
        params = blaschke.AuxParams(R=R)
        for x in np.linspace(0.0, math.pi / 6.0, 200):
            u = blaschke.aux_U(float(x), params)
            base = float(x) / (1.0 - R)
            lo = base + U_CUBIC_LOWER * float(x) ** 3
            hi = base + U_CUBIC_UPPER * float(x) ** 3
            worst_lo = max(worst_lo, lo - u)
            worst_hi = max(worst_hi, u - hi)
            if not (lo - 1e-15 <= u <= hi + 1e-15):
                ok = False
    c.expect(ok, f"cubic envelope of the contact shift on a 200x3 grid "
                 f"(slack {worst_lo:.1e}/{worst_hi:.1e})")
    lo_v = bounds.coeff_of_R(R_BAND[0])
    hi_v = bounds.coeff_of_R(R_BAND[1])
    c.expect(COEFF_BAND[0] <= lo_v and hi_v <= COEFF_BAND[1],
             f"coefficient band: [{lo_v!r}, {hi_v!r}] inside {COEFF_BAND}")
    grid = [bounds.coeff_of_R(float(R)) for R in np.linspace(*R_BAND, 100)]
    c.expect(all(b > a for a, b in zip(grid, grid[1:])),
             "coefficient increasing across the R band")
    u_star = bounds.f2_argmax()
    c.expect(F2_ARGMAX_WINDOW[0] <= u_star <= F2_ARGMAX_WINDOW[1],
             f"F2 argmax {u_star!r} inside {F2_ARGMAX_WINDOW}")
    v = F2(u_star)
    c.expect(v < F2_MAX_CAP, f"F2 max {v!r} < {F2_MAX_CAP}")
    fine = u_star + np.arange(-10_000, 10_001) * 1e-9
    vals = F2(fine)
    c.expect(float(vals.max()) <= v + 1e-15,
             "1e-9-spaced scan around the argmax finds nothing larger")
    coarse = np.linspace(0.0, 3.0, 3001)
    c.expect(float(F2(coarse).max()) <= v + 1e-9,
             "coarse scan of [0, 3] stays below the closed-form max")
    return f"argmax {u_star:.9f}, max {v:.10f}"


@_check
def check_invariants(c: _Collector) -> str:
    pool = [regular(N) for N in range(1, 10)]
    pool += [random_polygon(seed % 6 + 1, 25 + seed % 17, seed)
             for seed in range(2000, 2100)]
    worst_barbier = worst_steiner = 0.0
    for poly in pool:
        region = as_region(poly)
        A, P = area(region), perimeter(region)
        worst_barbier = max(worst_barbier, abs(P - math.pi))
        for rho in (0.1, 0.37):
            grown = minkowski_disk_sum(region, rho)
            worst_steiner = max(
                worst_steiner,
                abs(area(grown) - (A + rho * P + math.pi * rho * rho)),
                abs(perimeter(grown) - (P + 2.0 * math.pi * rho)))
    c.expect(worst_barbier <= 1e-9,
             f"Barbier over {len(pool)} polygons: worst {worst_barbier:.2e}")
    c.expect(worst_steiner <= 1e-9,
             f"Steiner identities: worst {worst_steiner:.2e}")
    worst_comp = worst_ratio = 0.0
    for poly in pool[:29]:  # all regulars plus twenty random draws
        sol = cheeger.cheeger_set(poly, tol=1e-12)
        Ai, Pi = area(sol.inner), perimeter(sol.inner)
        Ac, Pc = area(sol.cheeger_set), perimeter(sol.cheeger_set)
        R = sol.R
        worst_comp = max(worst_comp,
                         abs(Ac - (Ai + R * Pi + math.pi * R * R)),
                         abs(Pc - (Pi + 2.0 * math.pi * R)))
        worst_ratio = max(worst_ratio, abs(Pc / Ac - sol.h) / sol.h)
    c.expect(worst_comp <= 1e-9,
             f"Cheeger set composition identities: worst {worst_comp:.2e}")
    c.expect(worst_ratio <= 1e-9,
             f"perimeter/area vs 1/R: worst relative {worst_ratio:.2e}")
    return f"{len(pool)} polygons, worst Steiner {worst_steiner:.2e}"



def run_checks(names: list[str] | None = None) -> list[CheckResult]:
    names = list(CHECKS) if names is None else names
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    return [CHECKS[name]() for name in names]

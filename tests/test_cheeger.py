"""Cheeger constants: solver, closed forms, contact intervals."""
from __future__ import annotations

import math
import time

import pytest

import reuleaux.cheeger as cheeger_module
from oracles import golden_min
from reuleaux import (area, cheeger_radius, cheeger_set, contact_angles,
                      deform, disk_cheeger_radius, inner_parallel, perimeter,
                      random_polygon, regular, triangle_closed_form,
                      triangle_inner_area, upper_bounds)
from reuleaux.cheeger import (CheegerSolution, EmptyContactError, _u_shift,
                              bisect_root, predicted_contact_end,
                              predicted_contact_start)

R_TRI_LO, R_TRI_HI = 0.22802, 0.22803
H_TRI_FLOOR = 4.3853


class TestTriangle:
    def test_solver_in_window(self):
        R = cheeger_radius(regular(1))
        assert R_TRI_LO <= R <= R_TRI_HI

    def test_closed_form_in_window(self):
        R, h = triangle_closed_form()
        assert R_TRI_LO <= R <= R_TRI_HI
        assert h >= H_TRI_FLOOR

    def test_routes_agree(self):
        R_geo = cheeger_radius(regular(1))
        R_cf, _ = triangle_closed_form()
        assert abs(R_geo - R_cf) < 1e-9

    def test_known_digits(self):
        R, h = triangle_closed_form()
        assert abs(R - 0.228028012974224) < 1e-12
        assert abs(h - 4.385426102) < 1e-8

    def test_fast(self):
        t0 = time.perf_counter()
        cheeger_radius(regular(1))
        triangle_closed_form()
        assert time.perf_counter() - t0 < 1.0

    def test_inner_area_formula(self):
        # geometric area of the inner parallel body matches the closed form
        for R in (0.05, 0.15, 0.2280280129742):
            region = inner_parallel(regular(1), R)
            assert abs(area(region) - triangle_inner_area(R)) < 1e-12


class TestDisk:
    def test_unit_width(self):
        assert abs(disk_cheeger_radius(1.0) - 0.25) < 1e-10

    def test_width_scaling(self):
        # R scales linearly with width, h = 1/R scales inversely
        for w in (0.5, 2.0, 3.7):
            assert abs(disk_cheeger_radius(w) - 0.25 * w) < 1e-10 * max(1, w)


class TestSolver:
    def test_inner_parallel_limits(self):
        p = regular(2)
        full = inner_parallel(p, 0.0)
        assert abs(area(full) - area(inner_parallel(p, 1e-15))) < 1e-12
        shrunk = inner_parallel(p, p.inradius)
        assert area(shrunk) < 1e-12

    def test_defining_equation(self):
        for seed in (0, 5):
            p = random_polygon(2, 30, seed=seed)
            R = cheeger_radius(p)
            assert abs(area(inner_parallel(p, R)) - math.pi * R * R) < 1e-10

    def test_ratio_identity(self):
        # h equals perimeter(C)/area(C) for the Cheeger set C
        for seed in (1, 7):
            p = random_polygon(3, 30, seed=seed)
            sol = cheeger_set(p)
            ratio = perimeter(sol.cheeger_set) / area(sol.cheeger_set)
            assert abs(ratio - sol.h) < 1e-9 * sol.h

    def test_golden_section_oracle(self):
        # independent route: minimize |inner area - pi R^2| by golden section
        p = regular(2)

        def gap(R):
            return abs(area(inner_parallel(p, R)) - math.pi * R * R)

        R_opt = golden_min(gap, 0.0, p.inradius, tol=1e-12)
        assert abs(R_opt - cheeger_radius(p)) < 1e-9

    def test_upper_bounds_hold(self):
        for seed in range(8):
            p = random_polygon(2 + seed % 3, 30, seed=seed)
            h = cheeger_set(p).h
            b1, b2 = upper_bounds(p)
            assert h <= b1 + 1e-9
            assert h <= b2 + 1e-9

    def test_triangle_maximizes(self):
        h_tri = triangle_closed_form()[1]
        for seed in (2, 9, 13):
            p = random_polygon(2 + seed % 3, 40, seed=seed)
            assert cheeger_set(p).h < h_tri


class TestNewton:
    @staticmethod
    def bisected(p, tol=1e-12):
        return bisect_root(
            lambda R: area(inner_parallel(p, R)) - math.pi * R * R,
            0.0, p.inradius, tol)

    def test_regular_matches_bisection(self, regular_pool):
        for p in regular_pool:
            assert abs(cheeger_radius(p) - self.bisected(p)) <= 1e-12

    @staticmethod
    def evaluations(monkeypatch, p, tol):
        calls = []
        kernel = cheeger_module._clip_intervals

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        with monkeypatch.context() as m:
            m.setattr(cheeger_module, "_clip_intervals", counted)
            cheeger_radius(p, tol)
        return len(calls)

    def test_few_evaluations(self, monkeypatch, regular_pool):
        # bisection would take 41; more than 6 means Newton fell back
        for seed in range(200):  # verify's sweep seeds
            p = random_polygon(seed % 6 + 1, 30 + (seed * 7) % 21, seed)
            assert self.evaluations(monkeypatch, p, 1e-12) <= 6, seed
        for p in regular_pool:
            assert self.evaluations(monkeypatch, p, 1e-12) <= 6, p.n
        assert self.evaluations(monkeypatch, regular(1), 1e-15) <= 6
        # tol = 0, which the CLI accepts, ends once no float is left to try
        assert self.evaluations(monkeypatch, regular(2), 0.0) <= 64


class TestContacts:
    def test_regular_all_arcs(self):
        p = regular(2)
        sol = cheeger_set(p)
        assert len(sol.contacts) == 5
        for l, lo, hi in sol.contacts:
            assert hi > lo
            # contact interval sits inside the arc span
            assert lo >= p.alphas[l] - 1e-9
            assert hi <= p.alphas[l] + p.arc_lengths[l] + 1e-9

    def test_closed_form_shifts(self):
        p = regular(3)
        sol = cheeger_set(p)
        two_pi = 2.0 * math.pi
        for l in range(p.n):
            lo, hi = contact_angles(p, sol, l)
            dlo = (lo - predicted_contact_start(p, sol.R, l)) % two_pi
            dhi = (hi - predicted_contact_end(p, sol.R, l)) % two_pi
            assert min(dlo, two_pi - dlo) < 1e-9
            assert min(dhi, two_pi - dhi) < 1e-9

    def test_deformed_polygon_consistency(self):
        p = deform(regular(3), 2, 0.03)
        sol = cheeger_set(p)
        for l, _, _ in sol.contacts:
            contact_angles(p, sol, l)  # raises on any mismatch

    def test_empty_contact_raises(self):
        p = regular(2)
        sol = cheeger_set(p)
        doctored = CheegerSolution(
            R=sol.R, h=sol.h, a=sol.a, inner=sol.inner,
            cheeger_set=sol.cheeger_set,
            contacts=tuple(c for c in sol.contacts if c[0] != 2))
        with pytest.raises(EmptyContactError):
            contact_angles(p, doctored, 2)

    def test_u_shift_zero_at_zero(self):
        assert _u_shift(0.0, 0.3) == 0.0

    def test_u_shift_positive(self):
        # asin(sin x / (1-R)) > x for 0 < x < pi/2, R > 0
        for hj in (0.1, 0.3, 0.7):
            assert _u_shift(hj, 0.25) > 0.0


class TestBisect:
    def test_simple_root(self):
        r = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(r - math.sqrt(2.0)) < 1e-11

    def test_no_sign_change(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

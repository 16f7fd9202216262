"""Cheeger constants: solver, closed forms, contact intervals."""
from __future__ import annotations

import math
import time

import pytest

import reuleaux.arcs as arcs_module
import reuleaux.cheeger as cheeger_module
import reuleaux.polygon as polygon_module
from oracles import (EmptyContactError, _u_shift, assert_same_region,
                     contact_angles, golden_min, is_point,
                     naive_disk_intersection,
                     predicted_contact_end, predicted_contact_start,
                     upper_bounds)
from reuleaux import (area, as_region, cheeger_radius, cheeger_set, deform,
                      disk_cheeger_radius, inner_parallel, perimeter,
                      random_polygon, regular, triangle_closed_form,
                      triangle_inner_area)
from reuleaux.cheeger import CheegerSolution, bisect_root

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

    @pytest.mark.parametrize("N,g", [(20, 3e-12), (50, 3e-12), (500, 3e-12),
                                     (500, 1e-11), (500, 3e-11)])
    def test_inner_parallel_just_short_of_the_inradius(self, N, g):
        # every inner arc is thinner than TANGENCY_TOL here, though the
        # depth is more than TANGENCY_TOL short of the inradius
        p = regular(N)
        region = inner_parallel(p, p.inradius - g)
        assert is_point(region) and area(region) == 0.0

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

    def test_inner_body_matches_inner_parallel(self, regular_pool):
        # the Cheeger set's inner body against the disk-by-disk clip at the
        # solved depth, for n = 3 .. 41
        walks = [random_polygon(N, 40, seed=N) for N in range(2, 21)]
        for p in regular_pool + walks:
            sol = cheeger_set(p)
            rho = 1.0 - sol.R
            assert_same_region(sol.inner,
                               naive_disk_intersection(p.vertices, rho), rho)

    def test_solve_computes_no_enclosing_circle(self, monkeypatch):
        def refuse(points):
            raise AssertionError("min_enclosing_circle called")

        p = random_polygon(3, 30, seed=1)
        for module in (arcs_module, polygon_module):
            monkeypatch.setattr(module, "min_enclosing_circle", refuse)
        assert cheeger_set(p).R == cheeger_radius(p)
        as_region(p)
        for R in (0.0, 0.5 * p.inradius, p.inradius):
            inner_parallel(p, R)

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
        kernel = cheeger_module._star_intervals

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        with monkeypatch.context() as m:
            m.setattr(cheeger_module, "_star_intervals", counted)
            cheeger_radius(p, tol)
        return len(calls)

    def test_pair_terms_once_per_solve(self, monkeypatch):
        # the Newton evaluations and the final clip share one _star_pairs
        calls = []
        pairs = cheeger_module._star_pairs

        def counted(*args):
            calls.append(1)
            return pairs(*args)

        monkeypatch.setattr(cheeger_module, "_star_pairs", counted)
        for p in (regular(1), random_polygon(3, 30, 1),
                  random_polygon(4, 40, 3)):
            calls.clear()
            cheeger_set(p)
            assert len(calls) == 1
            calls.clear()
            cheeger_radius(p)
            assert len(calls) == 1

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
            R=sol.R, h=sol.h, inner=sol.inner, cheeger_set=sol.cheeger_set,
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

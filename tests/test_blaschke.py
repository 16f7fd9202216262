"""Blaschke deformations, shape derivatives, criticality residuals."""
from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import central_fd
from reuleaux import (AuxParams, InvalidDeformation, area, aux_F, aux_G,
                      aux_H, aux_U, cheeger_set, deform, local_maximize,
                      normal_speed, optimality_residual, random_polygon,
                      regular, residual_norm, shape_derivative,
                      triangle_closed_form)
from reuleaux.blaschke import ArcCollapseError, trajectory_csv


class TestDeform:
    def test_zero_is_identity(self):
        p = regular(2)
        assert deform(p, 1, 0.0) is p

    def test_reversible(self):
        p = random_polygon(2, 30, seed=6)
        q = deform(deform(p, 1, 0.04), 1, -0.04)
        assert np.max(np.abs(q.vertices - p.vertices)) < 1e-12

    def test_composition(self):
        p = regular(3)
        one = deform(p, 2, 0.05)
        two = deform(deform(p, 2, 0.02), 2, 0.03)
        assert np.max(np.abs(one.vertices - two.vertices)) < 1e-12

    def test_arc_budget_moves_by_eps(self):
        p = regular(2)
        eps = 0.03
        q = deform(p, 1, eps)
        n = p.n
        assert abs((q.arc_lengths[0] - p.arc_lengths[0]) + eps) < 1e-12
        # only the four arcs around the slid vertex change
        for k in range(n):
            if k in (0, 1, 2, 3):
                continue
            assert abs(q.arc_lengths[k] - p.arc_lengths[k]) < 1e-12
        assert abs(q.arc_lengths.sum() - math.pi) < 1e-12

    def test_triangle_refuses(self):
        with pytest.raises(InvalidDeformation):
            deform(regular(1), 0, 0.01)

    def test_collapse_raises(self):
        p = regular(2)
        with pytest.raises(ArcCollapseError):
            deform(p, 1, p.arc_lengths[0] + 0.01)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            deform(regular(2), 5, 0.01)


class TestNormalSpeed:
    def test_matches_vertex_motion(self):
        # V.n on arc k is the center velocity of P_k projected on the normal;
        # the canonical frame recentres, so subtract the common translation
        # read off any vertex the slide leaves fixed
        p = random_polygon(3, 30, seed=8)
        k, eps = 2, 1e-7
        q = deform(p, k, eps)
        n = p.n
        fixed = (k + 3) % n
        shift = q.vertices[fixed] - p.vertices[fixed]
        for arc in (k, (k + 1) % n):
            w = (q.vertices[arc] - shift - p.vertices[arc]) / eps
            lo = p.alphas[arc]
            for t in (0.2, 0.5, 0.8):
                s = lo + t * p.arc_lengths[arc]
                fd = w[0] * math.cos(s) + w[1] * math.sin(s)
                assert abs(normal_speed(p, k, arc, s) - fd) < 1e-6

    def test_zero_off_support(self):
        p = regular(4)
        n = p.n
        k = 3
        for arc in range(n):
            if arc in (k, (k + 1) % n):
                continue
            s = p.alphas[arc] + 0.5 * p.arc_lengths[arc]
            assert normal_speed(p, k, arc, s) == 0.0

    def test_sign_structure(self):
        # speed vanishes at s = alpha_{k-1} and grows with the offset
        p = regular(3)
        k = 1
        base = p.alphas[k - 1]
        v0 = normal_speed(p, k, k, p.alphas[k])
        want = math.sin(p.alphas[k] - base)
        assert abs(v0 - want) < 1e-12


class TestShapeDerivative:
    def test_regular_critical(self):
        for N in (2, 3, 4):
            p = regular(N)
            sol = cheeger_set(p)
            for k in range(p.n):
                assert abs(shape_derivative(p, k, sol)) < 1e-10

    def test_matches_finite_differences(self):
        for seed in (3, 11, 17):
            p = random_polygon(2 + seed % 3, 35, seed=seed)
            sol = cheeger_set(p)
            k = seed % p.n

            def h_of(t: float) -> float:
                return cheeger_set(deform(p, k, t)).h

            fd = central_fd(h_of, 0.0, 1e-5)
            an = shape_derivative(p, k, sol)
            assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_chart_consistency(self):
        # derivative evaluated after a finite move matches the local slope
        p = random_polygon(2, 30, seed=14)
        k, t0 = 1, 0.02
        q = deform(p, k, t0)

        def h_of(t: float) -> float:
            return cheeger_set(deform(p, k, t)).h

        fd = central_fd(h_of, t0, 1e-5)
        an = shape_derivative(q, k)
        assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_flag_reports_empty_contacts(self):
        # arcs 1 and 2 shrunk to 0.01 both miss the Cheeger set, so the
        # move at 1, which only bends arcs 1 and 2, leaves h unchanged to
        # first order
        p = regular(3)
        p = deform(p, 2, p.arc_lengths[1] - 0.01)
        p = deform(p, 3, p.arc_lengths[2] - 0.01)
        sol = cheeger_set(p)
        assert sol.contact_for(1) is None and sol.contact_for(2) is None
        assert shape_derivative(p, 1, sol) == 0.0


class TestResidual:
    def test_regular_zero(self):
        for N in range(2, 10):
            assert residual_norm(regular(N)) < 1e-14

    def test_perturbed_pentagon(self):
        q = deform(regular(2), 1, 0.05)
        assert residual_norm(q) > 1e-5

    def test_tracks_derivative_bracket(self):
        # closed-form residual equals sqrt(a) sin(j_{k+1}) times the
        # derivative bracket recovered from the geometric solver
        p = random_polygon(3, 40, seed=21)
        sol = cheeger_set(p)
        root_a = math.sqrt(sol.a)
        c_area = area(sol.cheeger_set)
        for k in range(p.n):
            bracket = shape_derivative(p, k, sol) * c_area / (1.0 - sol.h)
            pred = root_a * math.sin(p.arc_lengths[(k + 1) % p.n]) * bracket
            assert abs(optimality_residual(p, k) - pred) < 1e-12


class TestAuxFunctions:
    def test_u_at_zero(self):
        params = AuxParams(R=0.25)
        assert aux_U(0.0, params) == 0.0

    def test_u_increasing(self):
        params = AuxParams(R=0.25)
        xs = np.linspace(0.0, 0.5, 20)
        vals = [aux_U(x, params) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_g_at_zero(self):
        params = AuxParams(R=0.3)
        assert abs(aux_G(0.0, params) - math.sqrt(params.a)) < 1e-15

    def test_h_vanishing_last_argument(self):
        params = AuxParams(R=0.22)
        assert aux_H(0.3, 0.4, 0.0, params) == 0.0

    def test_f_g_consistency(self):
        # F(x, y) at y with U(y) folds back to a G-like sample
        params = AuxParams(R=0.24)
        for x, y in ((0.2, 0.3), (0.4, 0.1)):
            f = aux_F(x, y, params)
            want = math.sqrt(params.a) * math.cos(
                2 * x + y - aux_U(y, params))
            assert abs(f - want) < 1e-15

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AuxParams(R=0.7)


class TestLocalMaximize:
    def test_triangle_and_regular_pentagon(self):
        traj = local_maximize(regular(1), max_iters=5)
        assert traj.outcome == "stationary"
        assert len(traj.steps) == 1

    def test_regular_pentagon_escapes(self):
        # the regular pentagon is critical but not locally maximal:
        # finite probes find uphill moves and drive an arc to collapse
        traj = local_maximize(regular(2), max_iters=200)
        assert traj.outcome == "boundary"
        hs = [s.h for s in traj.steps]
        assert all(b >= a - 1e-14 for a, b in zip(hs, hs[1:]))
        assert traj.final_h > hs[0]

    def test_random_stays_below_triangle(self):
        h_tri = triangle_closed_form()[1]
        traj = local_maximize(random_polygon(2, 30, seed=19), max_iters=150)
        assert traj.final_h <= h_tri + 1e-6

    def test_csv_shape(self):
        traj = local_maximize(regular(1), max_iters=2)
        lines = trajectory_csv(traj).strip().splitlines()
        assert lines[0] == "iteration,k,eps,h,residual_max"
        assert lines[-1].startswith("# outcome=")

"""Decay-rate table, inradius floors, interval-arithmetic style bounds."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from oracles import inradius_lower_bound
from reuleaux import (F2, cheeger_set, f2_argmax, hmax_of_tau, lastestimate,
                      many_arc_inradius_floor, minr_worstcase,
                      pentagon_inradius_floor, regular, residual_norm,
                      table1, table1_check, table1_csv, table_row, tau_of_h)
from reuleaux.bounds import (LASTESTIMATE_CASES, TABLE1_REFERENCE,
                             tau_of_h as _tau)


class TestRate:
    def test_values(self):
        assert tau_of_h(0.0) == 0.99
        assert abs(tau_of_h(1.0) - 0.94) < 1e-15
        # rate stays useful on the whole working range of h
        assert tau_of_h(math.pi / 3) > 0.93

    def test_hmax_limit(self):
        for N in (2, 5, 9):
            lim = math.pi / (2 * N + 1)
            assert abs(hmax_of_tau(1.0 - 1e-8, N) - lim) < 1e-6
            assert hmax_of_tau(1.0, N) == lim


class TestTable:
    def test_against_reference(self):
        rows = table1()
        assert [r.N for r in rows] == list(range(2, 10))
        for r in rows:
            tau_ref, hmax_ref, hmin_ref = TABLE1_REFERENCE[r.N]
            assert abs(r.tau - tau_ref) <= 1e-3, r
            assert abs(r.h_max - hmax_ref) <= 1e-3, r
            assert abs(r.h_min - hmin_ref) <= 1e-3, r
        assert table1_check(rows) == []

    def test_fast(self):
        t0 = time.perf_counter()
        table1()
        assert time.perf_counter() - t0 < 0.1

    def test_hmin_identity(self):
        for r in table1():
            assert abs(r.h_min - r.tau ** r.N * r.h_max) < 1e-12

    def test_fixed_point_start_invariance(self):
        # the tau/h_max fixed point must not depend on the seed value
        for N in (2, 6, 9):
            base = table_row(N)
            for h0 in np.linspace(0.1, 1.0, 10):
                row = table_row(N, h_start=float(h0))
                assert abs(row.h_max - base.h_max) < 1e-9

    def test_consistency_equations(self):
        # at the fixed point, h_max = hmax_of_tau(tau_of_h(h_max), N)
        for r in table1():
            assert abs(hmax_of_tau(tau_of_h(r.h_max), r.N) - r.h_max) < 1e-9

    def test_csv_format(self):
        lines = table1_csv(table1()).strip().splitlines()
        assert lines[0] == "N,sides,tau,h_max,h_min"
        assert len(lines) == 9
        assert lines[1].startswith("2,5,")


class TestInradiusFloor:
    def test_worstcase_value(self):
        v = minr_worstcase()
        assert v > 0.4302
        assert abs(v - 0.4309) < 5e-4

    def test_lower_bound_monotone_in_h(self):
        # smaller h (more arcs) pushes the floor up
        r9 = table1()[-1]
        r2 = table1()[0]
        u = math.pi / 3
        lo9 = inradius_lower_bound(r9.h_max, r9.tau, u)
        lo2 = inradius_lower_bound(r2.h_max, r2.tau, u)
        assert lo9 > lo2

    def test_pentagon_floor(self):
        v = pentagon_inradius_floor()
        assert v > 0.47
        assert abs(v - 0.47214779) < 1e-7

    def test_many_arc_floor(self):
        v = many_arc_inradius_floor()
        assert v > 0.44
        assert abs(v - 0.44054809) < 1e-7

    def test_floors_observed_on_regulars(self):
        # the analytic floors hold for the shapes they describe
        assert regular(2).inradius > pentagon_inradius_floor()
        for N in range(3, 10):
            assert regular(N).inradius > many_arc_inradius_floor()


class TestLastEstimate:
    @pytest.mark.parametrize("t0,t1,N,want,floor", [
        (t0, t1, N, want, floor) for (N, t0, t1, floor), want in
        zip(LASTESTIMATE_CASES, (0.464898, 0.444362, 0.468299, 0.454339),
            strict=True)])
    def test_cases(self, t0, t1, N, want, floor):
        tau_ref, hmax_ref, hmin_ref = TABLE1_REFERENCE[N]
        v = lastestimate(t0, t1, tau_ref, hmax_ref, hmin_ref)
        assert abs(v - want) < 2e-4
        assert v > floor


class TestQuarticEnvelope:
    def test_argmax_window(self):
        x = f2_argmax()
        assert 0.8210107 <= x <= 0.8210108

    def test_max_cap(self):
        assert F2(f2_argmax()) < 0.01614873

    def test_grid_cross_check(self):
        # coarse scan of the quartic can never beat the closed-form argmax
        grid = np.linspace(0.0, 3.0, 20001)
        vals = [F2(float(u)) for u in grid]
        assert max(vals) <= F2(f2_argmax()) + 1e-12


class TestNearCritical:
    def test_consecutive_ratio_floor(self, regular_pool):
        # on critical polygons, consecutive arcs decay no faster than tau
        for p in regular_pool:
            if residual_norm(p) > 1e-8:
                continue
            h = cheeger_set(p).h
            tau = _tau(h)
            n = p.n
            for k in range(n):
                j, jn = p.arc_lengths[k], p.arc_lengths[(k + 1) % n]
                assert min(j, jn) / max(j, jn) >= tau - 1e-3
                assert min(j, jn) >= 0.1339 * max(j, jn)

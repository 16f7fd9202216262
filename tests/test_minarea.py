"""Minimal area of a Reuleaux polygon at fixed inradius."""
from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import mc_area_region
from reuleaux import (area, band_of, ell, min_area, min_area_inverse,
                      profile, random_polygon, regular, regular_inradius)
from reuleaux.minarea import R_TRIANGLE
from reuleaux.polygon import as_region

SQRT3 = math.sqrt(3.0)


class TestScalars:
    def test_ell_at_triangle(self):
        assert abs(ell(R_TRIANGLE) - math.pi / 3.0) < 1e-12

    def test_ell_at_regular_inradius(self):
        for N in range(1, 8):
            r = regular_inradius(N)
            assert abs(ell(r) - math.pi / (2 * N + 1)) < 1e-10

    def test_regular_inradius_matches_polygons(self):
        for N in range(1, 8):
            assert abs(regular_inradius(N) - regular(N).inradius) < 1e-12

    def test_regular_inradius_increases_to_half(self):
        vals = [regular_inradius(N) for N in range(1, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5
        assert 0.5 - regular_inradius(200) < 1e-4

    def test_band_of(self):
        assert band_of(0.44) == 2
        assert band_of(regular_inradius(2)) == 2
        assert band_of(regular_inradius(2) + 1e-9) == 3
        with pytest.raises(ValueError):
            band_of(0.4)
        with pytest.raises(ValueError):
            band_of(0.51)


class TestMinArea:
    def test_triangle_endpoint(self):
        want = (math.pi - SQRT3) / 2.0
        assert abs(min_area(R_TRIANGLE) - want) < 1e-10

    def test_disk_endpoint(self):
        assert abs(min_area(0.5) - math.pi / 4.0) < 1e-15

    def test_band_edges_hit_regulars(self):
        # at a band edge the minimizer is the regular polygon itself
        for N in (2, 3, 4):
            r = regular_inradius(N)
            assert abs(min_area(r) - area(as_region(regular(N)))) < 1e-10

    def test_strictly_increasing(self):
        grid = np.linspace(R_TRIANGLE + 1e-6, 0.5, 300)
        vals = [min_area(float(r)) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_inverse_round_trip(self):
        for r in (0.43, 0.45, 0.48):
            assert abs(min_area_inverse(min_area(r)) - r) < 1e-9

    def test_inverse_reference(self):
        r0 = min_area_inverse(math.pi / 4.3853)
        assert 0.4226 <= r0 < 0.4302
        assert abs(r0 - 0.4301062455948893) < 1e-9

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            min_area_inverse(0.2)
        with pytest.raises(ValueError):
            min_area_inverse(1.0)


class TestProfile:
    def test_edge_returns_regular(self):
        shape = profile(regular_inradius(2))
        assert np.max(np.abs(shape.polygon.vertices
                             - regular(2).vertices)) < 1e-9

    def test_interior_polygon_realizes_area(self):
        for r in (0.44, 0.452, 0.468):
            shape = profile(r)
            poly_area = area(as_region(shape.polygon))
            assert abs(poly_area - shape.area) < 1e-9
            assert abs(shape.polygon.inradius - r) < 1e-8

    def test_area_against_monte_carlo(self):
        shape = profile(0.45)
        mc = mc_area_region(as_region(shape.polygon), n=800_000, seed=2)
        assert abs(shape.area - mc) < 4e-3

    def test_arc_budget(self):
        # the free parameters satisfy (2N-2) ell + a + 2b = pi
        for r in (0.435, 0.45, 0.47):
            s = profile(r)
            total = (2 * s.N - 2) * s.ell + s.a + 2 * s.b
            assert abs(total - math.pi) < 1e-10


class TestLowerBound:
    def test_random_polygons_respect_bound(self):
        for seed in range(60):
            p = random_polygon(1 + seed % 4, 30, seed=seed)
            a = area(as_region(p))
            assert a >= min_area(p.inradius) - 1e-9, seed

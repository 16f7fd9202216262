"""Circular-arc regions: areas, perimeters, intersections, Minkowski sums."""
from __future__ import annotations

import math

import pytest

from oracles import brute_mec, mc_area_disks, mc_area_region
from reuleaux import (ArcRegion, CircArc, EmptyIntersectionError,
                      GeometryError, Point, RegionValidationError, area,
                      disk_intersection, min_enclosing_circle,
                      minkowski_disk_sum, perimeter, region_from_json,
                      region_to_json)
from reuleaux.cheeger import triangle_inner_area
from reuleaux.polygon import as_region, regular

TAU = 2.0 * math.pi


def full_disk(cx: float, cy: float, r: float) -> ArcRegion:
    return ArcRegion(arcs=(CircArc(Point(cx, cy), r, 0.0, TAU),))


class TestAreaPerimeter:
    def test_unit_disk(self):
        d = full_disk(0.0, 0.0, 1.0)
        assert abs(area(d) - math.pi) < 1e-14
        assert abs(perimeter(d) - TAU) < 1e-14

    def test_disk_off_center(self):
        # Green's theorem result must not depend on where the disk sits
        d = full_disk(3.7, -2.1, 0.5)
        assert abs(area(d) - math.pi * 0.25) < 1e-13

    def test_reuleaux_triangle_region(self):
        region = as_region(regular(1))
        assert abs(area(region) - (math.pi - math.sqrt(3.0)) / 2.0) < 1e-12
        assert abs(perimeter(region) - math.pi) < 1e-12

    def test_lens_two_unit_disks(self):
        # centers distance 1 apart: area 2pi/3 - sqrt(3)/2, perimeter 4pi/3
        region = disk_intersection([(0.0, 0.0), (1.0, 0.0)], 1.0)
        want = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
        assert abs(area(region) - want) < 1e-12
        assert abs(perimeter(region) - 4.0 * math.pi / 3.0) < 1e-12

    def test_lens_against_monte_carlo(self):
        region = disk_intersection([(0.0, 0.0), (0.8, 0.3)], 1.0)
        mc = mc_area_region(region, n=800_000, seed=3)
        assert abs(area(region) - mc) < 4e-3

    def test_triangle_inner_parallel_area(self):
        # disk_intersection at radius 1-R versus the closed-form expression
        R = 0.3
        region = disk_intersection(regular(1).vertices, 1.0 - R)
        assert abs(area(region) - triangle_inner_area(R)) < 1e-9


class TestDiskIntersection:
    def test_single_center_is_full_disk(self):
        region = disk_intersection([(0.2, 0.1)], 0.7)
        assert len(region.arcs) == 1
        assert abs(region.arcs[0].sweep - TAU) < 1e-12

    def test_duplicate_centers_collapse(self):
        region = disk_intersection([(0.0, 0.0), (0.0, 0.0)], 1.0)
        assert abs(area(region) - math.pi) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptyIntersectionError):
            disk_intersection([(0.0, 0.0), (5.0, 0.0)], 1.0)

    def test_degenerate_single_point(self):
        # two disks touching externally: intersection is one point
        region = disk_intersection([(0.0, 0.0), (2.0, 0.0)], 1.0)
        assert region.is_degenerate
        assert region.point is not None
        assert abs(region.point.x - 1.0) < 1e-9
        assert abs(region.point.y) < 1e-9
        assert area(region) == 0.0

    def test_mc_cross_check_three_disks(self):
        centers = [(0.0, 0.0), (0.9, 0.1), (0.4, 0.8)]
        region = disk_intersection(centers, 1.0)
        mc = mc_area_disks(centers, 1.0, n=800_000, seed=11)
        assert abs(area(region) - mc) < 4e-3

    def test_redundant_disk_ignored(self):
        # a disk covering the whole lens must not contribute an arc
        tight = disk_intersection([(0.0, 0.0), (1.0, 0.0)], 1.0)
        loose = disk_intersection([(0.0, 0.0), (1.0, 0.0), (0.5, 0.0)], 1.0)
        assert abs(area(tight) - area(loose)) < 1e-12
        assert len(loose.arcs) == 2

    def test_boundary_points_on_some_circle(self):
        region = disk_intersection([(0.0, 0.0), (0.9, 0.1), (0.4, 0.8)], 1.0)
        for arc in region.arcs:
            for t in (0.0, 0.5, 1.0):
                p = arc.point_at(arc.start + t * arc.sweep)
                # on its own circle and inside every other disk
                d = math.hypot(p.x - arc.center.x, p.y - arc.center.y)
                assert abs(d - 1.0) < 1e-12
                for other in region.arcs:
                    do = math.hypot(p.x - other.center.x, p.y - other.center.y)
                    assert do <= 1.0 + 1e-9


class TestMinEnclosingCircle:
    def test_two_points(self):
        c, r = min_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
        assert abs(c.x - 1.0) < 1e-12 and abs(c.y) < 1e-12
        assert abs(r - 1.0) < 1e-12

    def test_matches_brute_force(self):
        import random
        rng = random.Random(5)
        for trial in range(20):
            pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(rng.randint(3, 9))]
            c, r = min_enclosing_circle(pts)
            (bx, by), br = brute_mec(pts)
            assert abs(r - br) < 1e-9, trial
            assert math.hypot(c.x - bx, c.y - by) < 1e-7

    def test_translation_invariance(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)]
        c0, r0 = min_enclosing_circle(pts)
        c1, r1 = min_enclosing_circle([(x + 5.0, y - 3.0) for x, y in pts])
        assert abs(r0 - r1) < 1e-12
        assert abs(c1.x - c0.x - 5.0) < 1e-12
        assert abs(c1.y - c0.y + 3.0) < 1e-12


class TestMinkowski:
    def test_zero_offset_identity(self):
        region = as_region(regular(2))
        out = minkowski_disk_sum(region, 0.0)
        assert abs(area(out) - area(region)) < 1e-14

    def test_degenerate_grows_to_disk(self):
        region = disk_intersection([(0.0, 0.0), (2.0, 0.0)], 1.0)
        out = minkowski_disk_sum(region, 0.4)
        assert abs(area(out) - math.pi * 0.16) < 1e-12

    def test_steiner_formula(self):
        # |A + rho B| = |A| + rho P(A) + pi rho^2 for convex A
        region = as_region(regular(3))
        a, p = area(region), perimeter(region)
        for rho in (0.05, 0.2, 0.5):
            out = minkowski_disk_sum(region, rho)
            want = a + rho * p + math.pi * rho * rho
            assert abs(area(out) - want) < 1e-9, rho

    def test_fillets_inserted_at_corners(self):
        region = as_region(regular(1))  # three arcs, three corners
        out = minkowski_disk_sum(region, 0.1)
        assert len(out.arcs) == 6

    def test_perimeter_grows_linearly(self):
        region = as_region(regular(2))
        for rho in (0.1, 0.3):
            out = minkowski_disk_sum(region, rho)
            want = perimeter(region) + TAU * rho
            assert abs(perimeter(out) - want) < 1e-9


class TestSerialization:
    def test_round_trip(self):
        region = disk_intersection([(0.0, 0.0), (0.9, 0.1), (0.4, 0.8)], 1.0)
        back = region_from_json(region_to_json(region))
        assert len(back.arcs) == len(region.arcs)
        assert abs(area(back) - area(region)) < 1e-15

    def test_degenerate_round_trip(self):
        region = disk_intersection([(0.0, 0.0), (2.0, 0.0)], 1.0)
        back = region_from_json(region_to_json(region))
        assert back.is_degenerate
        assert abs(back.point.x - region.point.x) < 1e-15


def arc_json(cx, cy, r, start, sweep) -> dict:
    return {"cx": cx, "cy": cy, "r": r, "start": start, "sweep": sweep}


class TestValidation:
    # regions are checked where they enter, by region_from_json
    def test_broken_chain_rejected(self):
        # two arcs that do not meet end to start
        data = {"arcs": [arc_json(0.0, 0.0, 1.0, 0.0, math.pi),
                         arc_json(5.0, 0.0, 1.0, 0.0, math.pi)]}
        with pytest.raises(RegionValidationError):
            region_from_json(data)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            region_from_json({"arcs": [arc_json(0.0, 0.0, -1.0, 0.0, 1.0)]})

    def test_nonpositive_sweep_rejected(self):
        with pytest.raises(ValueError):
            region_from_json({"arcs": [arc_json(0.0, 0.0, 1.0, 0.0, 0.0)]})

    @pytest.mark.parametrize("data", [
        [arc_json(0.0, 0.0, 1.0, 0.0, TAU)],
        "region",
        {},
        {"arcs": [], "point": None},
        {"arcs": [{"cx": 0.0, "cy": 0.0, "r": 1.0, "start": 0.0}]},
        {"arcs": [arc_json(0.0, 0.0, "one", 0.0, TAU)]},
        {"arcs": [arc_json(0.0, None, 1.0, 0.0, TAU)]},
        {"arcs": "abc"},
        {"arcs": [], "point": [1.0]},
        {"arcs": [], "point": ["x", 0.0]},
        # JSON numbers only: no strings, booleans or null that float() takes
        {"arcs": [arc_json("0", 0.0, 1.0, 0.0, TAU)]},
        {"arcs": [arc_json(0.0, False, 1.0, 0.0, TAU)]},
        {"arcs": [arc_json(0.0, 0.0, " 1.5 ", 0.0, TAU)]},
        {"arcs": [arc_json(0.0, 0.0, True, 0.0, TAU)]},
        {"arcs": [arc_json(0.0, 0.0, 1.0, None, TAU)]},
        {"arcs": [], "point": [None, 0.0]},
        {"arcs": [], "point": [0.0, "0"]},
        {"arcs": [], "point": [False, 0.0]},
    ])
    def test_malformed_json_rejected(self, data):
        with pytest.raises(RegionValidationError):
            region_from_json(data)

    def test_integers_are_numbers(self):
        region = region_from_json({"arcs": [arc_json(0, 0, 2, 0, TAU)]})
        assert abs(area(region) - 4.0 * math.pi) < 1e-14
        assert region_from_json({"arcs": [], "point": [1, -2]}).point == Point(1.0, -2.0)

    @pytest.mark.parametrize("data", [
        {"arcs": [arc_json(math.nan, 0.0, 1.0, 0.0, TAU)]},
        {"arcs": [arc_json(0.0, 0.0, math.inf, 0.0, TAU)]},
        {"arcs": [arc_json(0.0, 0.0, 1.0, math.nan, TAU)]},
        {"arcs": [arc_json(0.0, 0.0, 1.0, 0.0, 7.0)]},
        {"arcs": [], "point": [math.inf, 0.0]},
    ])
    def test_bad_numbers_rejected(self, data):
        with pytest.raises(GeometryError) as info:
            region_from_json(data)
        assert info.type is GeometryError

    def test_reflex_corner_and_turning_rejected(self):
        # a full circle closes on itself but turns 2pi; twice round turns 4pi
        circle = arc_json(0.0, 0.0, 1.0, 0.0, TAU)
        with pytest.raises(RegionValidationError, match="turning"):
            region_from_json({"arcs": [circle, circle]})
        # the right half of the unit circle, closed through the left by the
        # long way round a circle about (-1, 0): both corners bend inward
        dent = [arc_json(0.0, 0.0, 1.0, -math.pi / 2, math.pi),
                arc_json(-1.0, 0.0, math.sqrt(2.0), math.pi / 4,
                         1.5 * math.pi)]
        with pytest.raises(RegionValidationError, match="reflex"):
            region_from_json({"arcs": dent})


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_disk_intersection(self, bad):
        with pytest.raises(GeometryError):
            disk_intersection([(0.0, 0.0), (bad, 0.0)], 1.0)
        with pytest.raises(GeometryError):
            disk_intersection([(0.0, 0.0), (0.5, 0.0)], bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_minkowski_disk_sum(self, bad):
        with pytest.raises(GeometryError):
            minkowski_disk_sum(as_region(regular(1)), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_min_enclosing_circle(self, bad):
        with pytest.raises(GeometryError):
            min_enclosing_circle([(0.0, 0.0), (1.0, bad), (2.0, 1.0)])

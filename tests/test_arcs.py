"""Circular-arc regions: areas, perimeters, intersections, Minkowski sums."""
from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (_clip_intervals, arc_rows, brute_mec, is_point,
                     loop_area, loop_disk_sum, loop_perimeter, mc_area_disks,
                     midpoint_angle, naive_disk_intersection, region_faults)
from reuleaux import (ArcRegion, GeometryError, area, cheeger_radius,
                      cheeger_set, inner_parallel, min_enclosing_circle,
                      minkowski_disk_sum, perimeter, random_polygon)
from reuleaux.arcs import (TANGENCY_TOL, _clip_region, _star_intervals,
                           _star_pairs)
from reuleaux.polygon import as_region, regular

TAU = 2.0 * math.pi


class TestAreaPerimeter:
    def test_unit_disk(self):
        d = ArcRegion.circle(0.0, 0.0, 1.0)
        assert abs(area(d) - math.pi) < 1e-14
        assert abs(perimeter(d) - TAU) < 1e-14

    def test_disk_off_center(self):
        # Green's theorem result must not depend on where the disk sits
        d = ArcRegion.circle(3.7, -2.1, 0.5)
        assert abs(area(d) - math.pi * 0.25) < 1e-13

    def test_reuleaux_triangle_region(self):
        region = as_region(regular(1))
        assert abs(area(region) - (math.pi - math.sqrt(3.0)) / 2.0) < 1e-12
        assert abs(perimeter(region) - math.pi) < 1e-12

    def test_columns_match_the_per_arc_loops(self):
        # the same additions in the same order as the loops: equal where no
        # sin or cos enters, and within a few ulps where one does, as
        # numpy's and the C library's may round differently
        polys = ([regular(N) for N in (1, 2, 5)]
                 + [random_polygon(s % 6 + 1, 30 + (7 * s) % 21, s)
                    for s in range(30)]
                 + [random_polygon(20, 20 + (7 * s) % 21, s)
                    for s in range(5)])
        regions = [ArcRegion.circle(0.3, -0.2, 0.0),
                   ArcRegion.circle(0.3, -0.2, 0.7)]
        for p in polys:
            regions += [as_region(p), inner_parallel(p, 0.5 * p.inradius),
                        cheeger_set(p).cheeger_set]
        for region in regions:
            assert perimeter(region) == loop_perimeter(region)
            assert abs(area(region) - loop_area(region)) <= 1e-14
            grown = minkowski_disk_sum(region, 0.37)
            got, want = arc_rows(grown), loop_disk_sum(region, 0.37)
            assert [g[2:] for g in got] == [w[2:] for w in want]
            assert max(abs(g[k] - w[k]) for g, w in zip(got, want)
                       for k in (0, 1)) <= 1e-15



class TestDiskIntersection:
    # the library's disk intersections: the inner parallel bodies of a
    # polygon, disks of radius 1 - R about its vertices, clipped about
    # the origin
    def test_empty_raises(self):
        p = regular(2)
        with pytest.raises(GeometryError):
            inner_parallel(p, p.inradius + 1e-9)

    def test_degenerate_single_point(self):
        # at depth inradius the disks share one point, the incenter
        p = random_polygon(3, 30, seed=1)
        region = inner_parallel(p, p.inradius)
        assert is_point(region)
        assert region.centre.tolist() == [[0.0, 0.0]]
        assert area(region) == 0.0 and perimeter(region) == 0.0

    def test_mc_cross_check_three_disks(self):
        p = random_polygon(1, 20, seed=4)
        R = 0.1
        region = inner_parallel(p, R)
        mc = mc_area_disks(p.vertices, 1.0 - R, n=800_000, seed=11)
        assert abs(area(region) - mc) < 4e-3

    def test_redundant_disk_ignored(self):
        # deep inside, some disks cover the whole body and contribute no
        # arc; the others alone cut out the same region
        p = random_polygon(4, 40, seed=3)
        R = 0.95 * p.inradius
        region = inner_parallel(p, R)
        assert len(region.radius) < p.n
        tight = naive_disk_intersection(region.centre, 1.0 - R)
        assert abs(area(tight) - area(region)) < 1e-12

    def test_boundary_points_on_some_circle(self):
        p = random_polygon(2, 30, seed=8)
        rho = 1.0 - 0.5 * p.inradius
        region = inner_parallel(p, 0.5 * p.inradius)
        for cx, cy, r, start, sweep in arc_rows(region):
            for t in (0.0, 0.5, 1.0):
                s = start + t * sweep
                qx, qy = cx + r * math.cos(s), cy + r * math.sin(s)
                # on its own circle and inside every disk
                assert abs(math.hypot(qx - cx, qy - cy) - rho) < 1e-12
                for x, y in p.vertices:
                    assert math.hypot(qx - x, qy - y) <= rho + 1e-9


class TestStarKernel:
    # the star-order kernel against the all-pairs one it replaced: the same
    # live arcs, and the same bits in every live interval
    DEPTHS = (0.0, 0.5, 0.9, 0.99, 0.999)

    @staticmethod
    def walks():
        return ([random_polygon(s % 6 + 1, 30 + (7 * s) % 21, s)
                 for s in range(60)]  # verify's sweep seeds
                + [random_polygon(20, 20 + (7 * s) % 21, s)
                   for s in range(10)]
                + [random_polygon(2 + s % 4, 400, s) for s in range(10)])

    @staticmethod
    def same_intervals(pts, pairs, R) -> bool:
        """Assert the two kernels agree at depth R, the star kernel on
        pairs = _star_pairs(pts); True if an arc died."""
        rho = 1.0 - R
        lo, hi = _star_intervals(pairs, rho)
        want_lo, want_hi = _clip_intervals(pts, rho)
        live = hi - lo > TANGENCY_TOL
        assert np.array_equal(live, want_hi - want_lo > TANGENCY_TOL)
        assert np.array_equal(lo[live], want_lo[live])
        assert np.array_equal(hi[live], want_hi[live])
        return not live.all()

    def test_matches_all_pairs_kernel(self):
        polys = [regular(1)] + self.walks()
        dead = 0
        for p in polys:
            # one polygon's pair terms serve every depth, as in a solve
            pairs = _star_pairs(p.vertices)
            for R in (cheeger_radius(p),
                      *(f * p.inradius for f in self.DEPTHS)):
                dead += self.same_intervals(p.vertices, pairs, R)
        # the elimination rounds ran
        assert dead >= 50

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_vertex_on_the_positive_x_axis(self, N):
        # regular(N) turned so that P_0 = (x > 0, +0.0): the direction
        # P_0 -> origin is arctan2(+0.0, -x) = +pi, and arctan2(-0.0, -x) =
        # -pi would put every theta_0j on the branch 2 pi away
        n = 2 * N + 1
        j = math.pi / n
        angles = (math.pi - j) * np.arange(n)
        pts = (np.stack([np.cos(angles), np.sin(angles)], axis=1)
               / (2.0 * math.cos(j / 2.0)))
        assert pts[0, 0] > 0.0 and math.copysign(1.0, pts[0, 1]) == 1.0
        pairs = _star_pairs(pts)
        for f in self.DEPTHS:
            self.same_intervals(pts, pairs, f * regular(N).inradius)

    def test_ring_order_is_midpoint_order(self):
        # _clip_region walks the live arcs in ring order i, i-2, ...; that
        # is the order of their midpoints' polar angles, which it starts at
        # the smallest, as sorting the live arcs by that angle would
        polys = [regular(N) for N in (1, 2, 5)] + self.walks()
        dead = 0
        for p in polys:
            pairs = _star_pairs(p.vertices)
            for f in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 1.0 - 1e-11):
                rho = 1.0 - f * p.inradius
                region, rows = _clip_region(pairs, rho)
                lo, hi = _star_intervals(pairs, rho)
                want = sorted(
                    ((i, a, b - a)
                     for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))
                     if b - a > TANGENCY_TOL),
                    key=lambda arc: midpoint_angle(
                        p.vertices[arc[0]].tolist(), rho, arc[1], arc[2]))
                i, start, sweep = map(list, zip(*want))
                assert rows.tolist() == i
                assert np.array_equal(region.centre, p.vertices[i])
                assert region.radius.tolist() == [rho] * len(i)
                assert region.start.tolist() == start
                assert region.sweep.tolist() == sweep
                dead += len(rows) < p.n
        # the rings skipped dead arcs
        assert dead >= 100

    def test_matches_all_pairs_kernel_at_the_arc_cap(self):
        p = regular(1000)  # 2,001 arcs
        self.same_intervals(p.vertices, _star_pairs(p.vertices),
                            cheeger_radius(p))

    def test_linear_memory(self):
        # an (n, n) float array at n = 2,001 alone takes 30.6 MiB
        p = regular(1000)
        tracemalloc.start()
        try:
            cheeger_set(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestMinEnclosingCircle:
    def test_two_points(self):
        cx, cy, r = min_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
        assert abs(cx - 1.0) < 1e-12 and abs(cy) < 1e-12
        assert abs(r - 1.0) < 1e-12

    def test_matches_brute_force(self):
        import random
        rng = random.Random(5)
        for trial in range(20):
            # past 8 points some keep input order after the far ones
            pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(rng.randint(3, 20))]
            cx, cy, r = min_enclosing_circle(pts)
            (bx, by), br = brute_mec(pts)
            assert abs(r - br) < 1e-9, trial
            assert math.hypot(cx - bx, cy - by) < 1e-7

    def test_sorted_collinear_points_are_fast(self):
        # in input order Welzl restarts at each point of a sorted collinear
        # run, quadratic in their number; the two ends, visited first,
        # already hold every point
        pts = [(float(i), 0.0) for i in range(20_001)]
        t0 = time.perf_counter()
        assert min_enclosing_circle(pts) == (10000.0, 0.0, 10000.0)
        assert time.perf_counter() - t0 < 1.0

    def test_translation_invariance(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.3, 0.9)]
        x0, y0, r0 = min_enclosing_circle(pts)
        x1, y1, r1 = min_enclosing_circle([(x + 5.0, y - 3.0) for x, y in pts])
        assert abs(r0 - r1) < 1e-12
        assert abs(x1 - x0 - 5.0) < 1e-12
        assert abs(y1 - y0 + 3.0) < 1e-12


class TestMinkowski:
    def test_zero_offset_identity(self):
        region = as_region(regular(2))
        out = minkowski_disk_sum(region, 0.0)
        assert abs(area(out) - area(region)) < 1e-14

    def test_degenerate_grows_to_disk(self):
        region = ArcRegion.circle(1.0, 0.0, 0.0)
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
        assert len(out.radius) == 6

    def test_perimeter_grows_linearly(self):
        region = as_region(regular(2))
        for rho in (0.1, 0.3):
            out = minkowski_disk_sum(region, rho)
            want = perimeter(region) + TAU * rho
            assert abs(perimeter(out) - want) < 1e-9


def chain(*arcs) -> ArcRegion:
    """A region from rows (cx, cy, r, start, sweep)."""
    a = np.array(arcs, dtype=float)
    return ArcRegion(a[:, :2], a[:, 2], a[:, 3], a[:, 4])


class TestValidation:
    # the chain check every region the library builds must pass
    # (test_properties), oracles.region_faults, on regions built directly
    def test_closed_chains_pass(self):
        assert region_faults(ArcRegion.circle(0.0, 0.0, 2.0)) == set()
        assert region_faults(ArcRegion.circle(1.0, -2.0, 0.0)) == set()
        assert region_faults(as_region(regular(2))) == set()

    def test_broken_chain_rejected(self):
        # two arcs that do not meet end to start
        region = chain((0.0, 0.0, 1.0, 0.0, math.pi),
                       (5.0, 0.0, 1.0, 0.0, math.pi))
        assert "chain" in region_faults(region)

    def test_nonpositive_radius_rejected(self):
        region = chain((0.0, 0.0, -1.0, 0.0, 1.0))
        assert region_faults(region) == {"radius"}

    def test_zero_radius_inside_a_chain_rejected(self):
        # the triangle with its corners as radius-0 arcs closes and turns
        # 2pi, but only a lone point may have radius 0
        grown = minkowski_disk_sum(as_region(regular(1)), 0.5)
        region = ArcRegion(grown.centre, grown.radius - 0.5, grown.start,
                           grown.sweep)
        assert region.radius[1::2].tolist() == [0.0] * 3
        assert region_faults(region) == {"radius"}

    def test_nonpositive_sweep_rejected(self):
        region = chain((0.0, 0.0, 1.0, 0.0, 0.0))
        assert region_faults(region) == {"sweep"}

    @pytest.mark.parametrize("data", [
        (chain((math.nan, 0.0, 1.0, 0.0, TAU)), "finite"),
        (chain((0.0, 0.0, math.inf, 0.0, TAU)), "radius"),
        (chain((0.0, 0.0, 1.0, math.nan, TAU)), "finite"),
        (chain((0.0, 0.0, 1.0, 0.0, 7.0)), "sweep"),
        (ArcRegion.circle(math.inf, 0.0, 0.0), "finite"),
    ])
    def test_bad_numbers_rejected(self, data):
        # a bad number is its own fault: the chain is not checked
        region, fault = data
        assert region_faults(region) == {fault}

    def test_reflex_corner_and_turning_rejected(self):
        # a full circle closes on itself but turns 2pi; twice round turns 4pi
        circle = (0.0, 0.0, 1.0, 0.0, TAU)
        assert region_faults(chain(circle, circle)) == {"turning"}
        # the right half of the unit circle, closed through the left by the
        # long way round a circle about (-1, 0): both corners bend inward
        dent = chain((0.0, 0.0, 1.0, -math.pi / 2, math.pi),
                     (-1.0, 0.0, math.sqrt(2.0), math.pi / 4, 1.5 * math.pi))
        assert region_faults(dent) == {"reflex"}


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_inner_parallel(self, bad):
        with pytest.raises(GeometryError, match="depth"):
            inner_parallel(regular(2), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_minkowski_disk_sum(self, bad):
        with pytest.raises(GeometryError):
            minkowski_disk_sum(as_region(regular(1)), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_min_enclosing_circle(self, bad):
        with pytest.raises(GeometryError):
            min_enclosing_circle([(0.0, 0.0), (1.0, bad), (2.0, 1.0)])

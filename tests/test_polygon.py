"""Reuleaux polygons: construction, random walks, contacts, sectors."""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from oracles import reuleaux_faults
from reuleaux import (GeometryError, TooManyContactsError, contact_points,
                      from_vertices, inradius_from_sector, random_polygon,
                      regular, sector_length_lower_bound, sectors)
from reuleaux.polygon import (AdjacencyError, InvalidPolygon, VertexCountError,
                              WidthError, _walk_draws, polygon_from_json,
                              polygon_to_json)

SQRT3 = math.sqrt(3.0)


def cyclic_match(A: np.ndarray, B: np.ndarray, tol: float = 1e-12) -> bool:
    n = len(A)
    for shift in range(n):
        if np.max(np.abs(np.roll(A, shift, axis=0) - B)) < tol:
            return True
    return False


class TestRegular:
    def test_triangle_vertices(self):
        # equilateral triangle of circumradius 1/sqrt(3), one vertex on +y
        want = np.array([
            [math.cos(11 * math.pi / 6), math.sin(11 * math.pi / 6)],
            [math.cos(math.pi / 2), math.sin(math.pi / 2)],
            [math.cos(7 * math.pi / 6), math.sin(7 * math.pi / 6)],
        ]) / SQRT3
        assert cyclic_match(regular(1).vertices, want)

    @pytest.mark.parametrize("N", range(1, 8))
    def test_invariants(self, N):
        p = regular(N)
        n = 2 * N + 1
        assert p.n == n and p.N == N
        # neighbours in polygon order sit at unit distance
        v = p.vertices
        for k in range(n):
            d = np.linalg.norm(v[(k + 1) % n] - v[k])
            assert abs(d - 1.0) < 1e-12
        # every pair within unit distance (constant width)
        for i in range(n):
            for j in range(i + 1, n):
                assert np.linalg.norm(v[i] - v[j]) <= 1.0 + 1e-12
        # arc lengths all pi/n and sum to pi
        assert np.max(np.abs(p.arc_lengths - math.pi / n)) < 1e-12
        assert abs(p.arc_lengths.sum() - math.pi) < 1e-12

    def test_inradius_closed_form(self):
        for N in range(1, 8):
            n = 2 * N + 1
            want = 1.0 - 1.0 / (2.0 * math.cos(math.pi / (2 * n)))
            assert abs(regular(N).inradius - want) < 1e-12

    @pytest.mark.parametrize("N", [2.5, 3.0, "3", None])
    def test_non_integer_refused(self, N):
        # 2.5 once built a 6-vertex polygon whose arcs summed to 4 pi
        with pytest.raises(VertexCountError, match="integer"):
            regular(N)
        with pytest.raises(VertexCountError, match="integer"):
            random_polygon(N, 3, 1)

    def test_numpy_integer_accepted(self):
        assert np.array_equal(regular(np.int64(3)).vertices,
                              regular(3).vertices)
        assert random_polygon(np.int64(3), 10, 1).n == 7

    def test_bad_count(self):
        with pytest.raises(ValueError):
            regular(0)

    def test_memoised_and_read_only(self):
        # every walk from N starts at the one regular(N)
        p = regular(3)
        assert regular(3) is p
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 0.0

    @pytest.mark.parametrize("N", [*range(1, 10), 40, 500])
    def test_passes_from_vertices(self, N):
        # regular builds its vertices without the entry check
        from_vertices(regular(N).vertices)


class TestFromVertices:
    def test_round_trip(self):
        p = regular(3)
        q = from_vertices(p.vertices + np.array([0.3, -1.2]))
        # canonical frame recentres on the circumcentre
        assert np.max(np.abs(q.vertices - p.vertices)) < 1e-9
        assert abs(q.inradius - p.inradius) < 1e-12

    def test_even_count_rejected(self):
        with pytest.raises(VertexCountError):
            from_vertices([(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (0.2, 0.3)])

    def test_shrunk_triangle_rejected(self):
        with pytest.raises(AdjacencyError):
            from_vertices(regular(1).vertices * 0.9)

    def test_too_wide_rejected(self):
        v = regular(2).vertices.copy()
        v[2] = v[2] * 1.1  # pushes one pair past unit distance
        with pytest.raises((AdjacencyError, WidthError)):
            from_vertices(v)

    def test_width_alone_rejected(self):
        # arc 0 of random_polygon(2, 30, 2) collapsed to 1e-10 by a slide,
        # each vertex then moved by about 5e-10: the neighbour and arc tests
        # pass within their 1e-9 slack, and only the pairwise test sees
        # vertices 1 and 3 more than 1 + 1e-9 apart
        v = [[-0.06409544230772948, 0.42857429211418435],
             [0.2472918671112609, -0.5217087947807906],
             [0.32816713562490873, 0.47501543539299934],
             [-0.5754590033878099, 0.04669335828049651],
             [0.2472918670845863, -0.5217087941686614]]
        assert reuleaux_faults(v) == {"width"}
        with pytest.raises(WidthError, match="vertices 1 and 3"):
            from_vertices(v)

    def test_clockwise_rejected(self):
        with pytest.raises(AdjacencyError, match="clockwise"):
            from_vertices(regular(2).vertices[::-1])

    def test_collinear_run_rejected_fast(self):
        # the neighbour test, the cheapest check, rejects them at the
        # wrap-around pair before the minimal enclosing circle runs
        pts = [(float(i), 0.0) for i in range(20_001)]
        t0 = time.perf_counter()
        with pytest.raises(AdjacencyError, match="vertices 20000 and 0"):
            from_vertices(pts)
        assert time.perf_counter() - t0 < 1.0

    def test_json_round_trip(self):
        p = random_polygon(3, 25, seed=12)
        q = polygon_from_json(polygon_to_json(p))
        assert np.max(np.abs(q.vertices - p.vertices)) < 1e-15


class TestRandomWalk:
    def test_deterministic(self):
        a = random_polygon(2, 40, seed=9)
        b = random_polygon(2, 40, seed=9)
        assert np.array_equal(a.vertices, b.vertices)

    def test_seeds_differ(self):
        a = random_polygon(2, 40, seed=1)
        b = random_polygon(2, 40, seed=2)
        assert np.max(np.abs(a.vertices - b.vertices)) > 1e-6

    def test_validity(self):
        for seed in range(40):
            p = random_polygon(2 + seed % 4, 35, seed=seed)
            assert p.arc_lengths.min() > 0.0
            assert abs(p.arc_lengths.sum() - math.pi) < 1e-9
            v = p.vertices
            for i in range(p.n):
                for j in range(i + 1, p.n):
                    assert np.linalg.norm(v[i] - v[j]) <= 1.0 + 1e-9

    @pytest.mark.parametrize("steps,seed,name", [(-5, 1, "steps"),
                                                 (10, -1, "seed")])
    def test_negative_argument_refused(self, steps, seed, name):
        # numpy refused a negative seed untyped; a negative step count
        # returned the regular polygon
        with pytest.raises(InvalidPolygon, match=f"{name} >= 0"):
            random_polygon(2, steps, seed)

    def test_triangle_has_no_moves(self):
        # only one Reuleaux triangle exists, so the walk returns it unchanged
        p = random_polygon(1, 50, seed=3)
        assert np.max(np.abs(p.vertices - regular(1).vertices)) < 1e-12


def numpy_draws(seed: int, n: int, steps: int) -> list[tuple[int, float]]:
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(n)), float(rng.uniform(-0.02, 0.02)))
            for _ in range(steps)]


class TestWalkDraws:
    def test_walk_arc_counts_match_numpy(self):
        # 3,000 (seed, n) pairs over the walks' arc counts 5 .. 83
        for seed in range(3000):
            n = 5 + 2 * (seed % 40)
            assert list(zip(*_walk_draws(seed, n, 12))) == \
                numpy_draws(seed, n, 12), (seed, n)

    def test_frequent_rejections_match_numpy(self):
        # 2^32 mod n = 2^30 - 1, so a quarter of the 32-bit draws are
        # rejected and redrawn; no walk's n comes near
        n = 3 * 2**30 + 1
        for seed in range(20):
            assert list(zip(*_walk_draws(seed, n, 200))) == \
                numpy_draws(seed, n, 200), seed

    def test_draws_past_the_first_block_match_numpy(self):
        # at n = 2^31 + 1 half the draws are rejected: seeds 62, 91, 99, 121
        # and 165 reject often enough to read past their first block of words
        n = 2**31 + 1
        for seed in range(200):
            assert list(zip(*_walk_draws(seed, n, 1))) == \
                numpy_draws(seed, n, 1), seed

    @pytest.mark.parametrize("n", [1, 2**32, 2**40])
    def test_n_outside_the_32_bit_draw_refused(self, n):
        # numpy draws nothing at n = 1 and 64-bit integers from 2^32 on
        with pytest.raises(ValueError, match="2 <= n < 2\\*\\*32"):
            _walk_draws(0, n, 1)


class TestContacts:
    def test_triangle_three_contacts(self):
        cps = contact_points(regular(1))
        assert len(cps) == 3
        # polar angles of the deepest boundary points, equally spaced
        ts = sorted(t for _, t in cps)
        gaps = np.diff(ts + [ts[0] + 2 * math.pi])
        assert np.max(np.abs(gaps - 2 * math.pi / 3)) < 1e-9

    def test_regular_all_arcs_touch(self):
        for N in (2, 3, 4):
            assert len(contact_points(regular(N))) == 2 * N + 1

    def test_deformed_pentagon_loses_contacts(self):
        from reuleaux import deform
        p = deform(regular(2), 1, 0.05)
        assert len(contact_points(p)) < 5


class TestSectors:
    @pytest.mark.parametrize("N,want", [
        (1, (math.pi / 3, math.pi / 3, math.pi / 3)),
        (2, (math.pi / 5, math.pi / 5, 3 * math.pi / 5)),
        (3, (math.pi / 7, 3 * math.pi / 7, 3 * math.pi / 7)),
    ])
    def test_regular_multisets(self, N, want):
        us = sorted(s.u for s in sectors(regular(N)))
        assert np.max(np.abs(np.array(us) - np.array(sorted(want)))) < 1e-9

    def test_u_sums_to_pi(self, random_pool):
        for p in random_pool:
            try:
                secs = sectors(p)
            except Exception:
                continue
            assert abs(sum(s.u for s in secs) - math.pi) < 1e-9

    def test_inradius_identity_regulars(self, regular_pool):
        for p in regular_pool:
            for s in sectors(p):
                assert abs(inradius_from_sector(s) - p.inradius) < 1e-10

    def test_inradius_identity_randoms(self, random_pool):
        checked = 0
        for p in random_pool:
            try:
                secs = sectors(p)
            except Exception:
                continue
            for s in secs:
                assert abs(inradius_from_sector(s) - p.inradius) < 1e-8
                checked += 1
        assert checked >= 30

    def test_too_many_contacts_refused(self):
        # regular(40) touches its incircle on all 81 arcs: C(81, 3) trios
        with pytest.raises(TooManyContactsError,
                           match="81 incircle contacts; .* at most 64"):
            sectors(regular(40))

    def test_contact_cap_admits_63(self):
        assert abs(sum(s.u for s in sectors(regular(31))) - math.pi) < 1e-9

    def test_degenerate_sector_raises(self):
        s = dataclasses.replace(sectors(regular(2))[0], u=0.0)
        with pytest.raises(GeometryError, match="too close to 0 or pi"):
            inradius_from_sector(s)


class TestSectorLengthBound:
    def test_reference_value(self):
        v = sector_length_lower_bound(0.4302)
        assert 0.9925 <= v <= 0.9927

    def test_complement(self):
        # if one sector length is bounded below, the other two share the rest
        v = sector_length_lower_bound(0.4302)
        assert math.pi - 2.0 * v <= 1.1563

    def test_decreasing_in_r(self):
        # larger inradius leaves less guaranteed arc length per sector;
        # the bound falls to zero at the disk radius 1/2
        grid = np.linspace(0.41, 0.49, 40)
        vals = [sector_length_lower_bound(r) for r in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert sector_length_lower_bound(0.4999) < 0.05

    def test_valid_at_triangle(self):
        # each triangle sector arc has length pi/3; the bound stays below it
        r = 1.0 - 1.0 / SQRT3
        v = sector_length_lower_bound(r)
        assert v <= math.pi / 3.0 + 1e-12
        assert v > 1.0

"""Property-based invariants over randomly generated polygons."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (assert_same_region, brute_mec, far_pairs,
                     naive_disk_intersection, naive_walk, region_faults,
                     reuleaux_faults, segment_area, upper_bounds)
from reuleaux import (GeometryError, InvalidPolygon, area, cheeger_radius,
                      cheeger_set, deform, from_vertices,
                      inner_parallel, min_enclosing_circle,
                      minkowski_disk_sum, perimeter, random_polygon, regular)
from reuleaux.cheeger import bisect_root
from reuleaux.polygon import (MIN_ARC, WidthError, _angles_of, _canonical,
                              _check_arcs, _far_pair, _slide_vertex,
                              as_region)

polys = st.builds(random_polygon,
                  N=st.integers(min_value=1, max_value=5),
                  steps=st.integers(min_value=0, max_value=40),
                  seed=st.integers(min_value=0, max_value=10_000))


@settings(max_examples=50, deadline=None)
@given(polys)
def test_barbier(p):
    # every width-1 convex body has perimeter pi
    assert abs(perimeter(as_region(p)) - math.pi) < 1e-9


@settings(max_examples=50, deadline=None)
@given(polys)
def test_arc_lengths_close_up(p):
    assert abs(p.arc_lengths.sum() - math.pi) < 1e-9
    assert p.arc_lengths.min() > 0.0


@settings(max_examples=50, deadline=None)
@given(polys)
def test_pairwise_distances(p):
    v = p.vertices
    n = p.n
    for i in range(n):
        for j in range(i + 1, n):
            assert np.linalg.norm(v[i] - v[j]) <= 1.0 + 1e-9
        d = np.linalg.norm(v[(i + 1) % n] - v[i])
        assert abs(d - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(polys)
def test_cheeger_below_upper_bounds(p):
    h = cheeger_set(p).h
    b1, b2 = upper_bounds(p)
    assert h <= min(b1, b2) + 1e-9
    assert h > 2.0  # crude floor: h > 2/width for any convex body
    # the oracle's area (hull plus segments) against the clip kernel's
    assert abs(segment_area(p) - area(as_region(p))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(polys, st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_translation_invariance(p, dx, dy):
    q = from_vertices(p.vertices + np.array([dx, dy]))
    assert abs(q.inradius - p.inradius) < 1e-9
    assert np.max(np.abs(np.sort(q.arc_lengths)
                         - np.sort(p.arc_lengths))) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=2, max_size=12))
def test_mec_matches_brute_force(pts):
    cx, cy, r = min_enclosing_circle(pts)
    (bx, by), br = brute_mec(pts)
    assert abs(r - br) < 1e-7
    for x, y in pts:
        assert math.hypot(x - cx, y - cy) <= r + 1e-9


@settings(max_examples=25, deadline=None)
@given(polys, st.floats(min_value=0.01, max_value=0.8))
def test_steiner_formula(p, rho):
    region = as_region(p)
    grown = minkowski_disk_sum(region, rho)
    want = area(region) + rho * perimeter(region) + math.pi * rho * rho
    assert abs(area(grown) - want) < 1e-9


def _check_outcome(call) -> InvalidPolygon | None:
    try:
        call()
    except InvalidPolygon as exc:
        return exc
    return None


def _agrees(err: InvalidPolygon | None, faults: set[str]) -> bool:
    if err is None:
        return not faults
    if isinstance(err, WidthError):
        return "width" in faults
    return bool(faults & {"adjacent", "arcs"})


@settings(max_examples=100, deadline=None)
@given(st.builds(random_polygon, N=st.integers(min_value=2, max_value=6),
                 steps=st.integers(min_value=0, max_value=40),
                 seed=st.integers(min_value=0, max_value=10_000)),
       st.sampled_from(["none", "push", "shrink", "reverse"]),
       st.integers(min_value=0), st.floats(min_value=1e-3, max_value=0.2))
def test_vertex_check_matches_reference(p, how, i, push):
    # one vertex pushed outward, one arc shrunk below MIN_ARC by a Blaschke
    # slide, or the order reversed; from_vertices (no arc floor) must agree
    # with the naive pairwise definition on all of them, and the walk's arc
    # check (arcs above MIN_ARC) on the slides, the only moves the walk makes
    v = np.array(p.vertices)
    k = i % p.n
    if how == "push":
        v[k] *= 1.0 + push
    elif how == "shrink":
        eps = p.arc_lengths[(k - 1) % p.n] - 0.5 * MIN_ARC
        try:
            pk, pk1 = _slide_vertex(v.tolist(), k, eps)
        except GeometryError:
            assume(False)
        v[k], v[(k + 1) % p.n] = pk, pk1
    elif how == "reverse":
        v = v[::-1]
    err = _check_outcome(lambda: from_vertices(v))
    assert _agrees(err, reuleaux_faults(v)), (how, err)
    if how in ("none", "shrink"):
        err = _check_outcome(lambda: _check_arcs(_angles_of(v)[2], MIN_ARC))
        assert _agrees(err, reuleaux_faults(v, MIN_ARC)), (how, err)
    if how == "reverse":
        assert "clockwise" in str(_check_outcome(lambda: from_vertices(v)))
    far = _far_pair(v)
    want = far_pairs(v)
    assert (far is None) == (not want)
    if far is not None:
        assert far[:2] == want[0]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(min_value=1, max_value=6),
              st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just(20), st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=3))))
def test_walk_matches_naive_walk(walk):
    _assert_walk_matches_naive_walk(walk)


def _assert_walk_matches_naive_walk(walk):
    # the walk slides on floats and checks only the four arcs a slide
    # moves; whole-array slides, accepted only when the full pairwise
    # definition holds, must give the same polygon bit for bit
    got = random_polygon(*walk).vertices
    want = naive_walk(*walk)
    if walk[0] > 1:  # a triangle is returned as regular(1), not re-centred
        want = _canonical(want).vertices
    assert np.array_equal(got, want), walk


def test_sweep_walks_match_naive_walk():
    # verify's sweep seeds 0..199 and five 41-arc walks, the same every run
    walks = [(s % 6 + 1, 30 + (s * 7) % 21, s) for s in range(200)]
    for walk in walks + [(20, 40, s) for s in range(5)]:
        _assert_walk_matches_naive_walk(walk)


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(min_value=0),
       st.floats(min_value=-1.5, max_value=1.5))
def test_deform_outputs_are_reuleaux(p, i, eps):
    # deform checks only the arcs of its slide; what it returns must still
    # be a width-one Reuleaux vertex set by the pairwise definition
    try:
        q = deform(p, i % p.n, eps)
    except ValueError:  # a triangle, or an arc would collapse
        assume(False)
    assert reuleaux_faults(q.vertices) == set()


@pytest.mark.parametrize("k,push", [(70, 1.05), (72, 1.02)])
def test_width_test_finds_non_adjacent_pairs_across_blocks(k, push):
    # n = 81 is more than one row block of the width test. Pushing vertex 70
    # by 5% puts it beyond 1 of vertex 0, a hit in the first block; pushing
    # vertex 72 by 2% gives far pairs within vertices 65..79 only, which
    # only the second block sees
    v = np.array(regular(40).vertices)
    v[k] *= push
    want = far_pairs(v)
    assert any((j - i) % 81 not in (1, 80) for i, j in want)
    assert _far_pair(v)[:2] == want[0]


def _one_arc_collapsed(p, i: int):
    # arc k shrunk to 1e-11 by the Blaschke move at k + 1
    k = i % p.n
    try:
        return deform(p, (k + 1) % p.n, p.arc_lengths[k] - 1e-11)
    except ValueError:  # a triangle, or some other arc would collapse
        assume(False)


walk_polys = st.builds(random_polygon, N=st.integers(min_value=1, max_value=6),
                       steps=st.integers(min_value=0, max_value=40),
                       seed=st.integers(min_value=0, max_value=10_000))
built_polys = st.one_of(
    walk_polys,
    st.builds(random_polygon, N=st.just(20), steps=st.just(40),
              seed=st.integers(min_value=0, max_value=3)),
    st.builds(_one_arc_collapsed, walk_polys, st.integers(min_value=0)))


@settings(max_examples=40, deadline=None)
@given(built_polys, st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_built_regions_pass_the_region_check(p, depth, rho):
    # Regions do not check themselves; every region the library builds must
    # be a closed convex counterclockwise arc chain
    regions = [as_region(p), inner_parallel(p, depth * p.inradius),
               cheeger_set(p).cheeger_set,
               minkowski_disk_sum(as_region(p), rho)]
    for region in regions:
        assert region_faults(region) == set()


@settings(max_examples=300, deadline=None)
@given(built_polys, st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_clip_kernel_matches_naive_clip(p, depth):
    # the library clips about the origin (at depth 0 exactly as as_region
    # does), the naive route disk by disk about the vertices' MEC
    R = depth * p.inradius
    assert_same_region(inner_parallel(p, R),
                       naive_disk_intersection(p.vertices, 1.0 - R), 1.0 - R)


@settings(max_examples=40, deadline=None)
@given(built_polys)
def test_newton_solve_matches_bisection(p):
    # walk polygons up to 13 arcs, 41-arc walks, one arc collapsed to 1e-11
    want = bisect_root(lambda R: area(inner_parallel(p, R)) - math.pi * R * R,
                       0.0, p.inradius)
    assert abs(cheeger_radius(p) - want) <= 1e-12

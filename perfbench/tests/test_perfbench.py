"""Tests of the benchmark itself: inputs, oracle, tracer, declared metrics.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from layers import ascent_starts, replay_ascent  # noqa: E402
from reuleaux import (cheeger_set, random_polygon, regular,  # noqa: E402
                      triangle_closed_form, verify)
from tracer import (NullTracer, Span, Tracer, self_time_by_name,  # noqa: E402
                    self_times)
from workloads import WORKLOADS  # noqa: E402


def _inputs(name: str, seed: int, count: int = 6):
    wl = WORKLOADS[name](seed)
    return [wl.input(i) for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_same_seed_same_accepted_steps():
    fails = []
    first = [replay_ascent(p, fails)["traj"] for p in ascent_starts(5)]
    second = [replay_ascent(p, fails)["traj"] for p in ascent_starts(5)]
    assert fails == []
    assert sum(len(t.steps) - 1 for t in first) > 0
    assert [t.steps for t in first] == [t.steps for t in second]


def test_oracle_accepts_the_solver_and_rejects_a_perturbed_radius():
    h_tri = triangle_closed_form()[1]
    poly = random_polygon(3, 30, 5)
    sol = cheeger_set(poly)
    assert oracle.check_cheeger(poly.vertices, sol.R, h_tri) == []
    for factor in (1.0 + 1e-6, 1.0 - 1e-6):
        assert oracle.check_cheeger(poly.vertices, sol.R * factor, h_tri)


def test_replayed_h_may_differ_within_the_solver_accuracy():
    h = 1.0 / cheeger_set(random_polygon(3, 30, 5)).R
    for dR in (1e-12, -1e-12, 5e-12):
        assert oracle.check_same_h(1.0 / (1.0 / h + dR), h) == []
    assert oracle.check_same_h(1.0 / (1.0 / h + 1e-9), h)


def test_oracle_rejects_h_above_the_triangle():
    poly = random_polygon(2, 30, 9)
    sol = cheeger_set(poly)
    assert oracle.check_cheeger(poly.vertices, sol.R, sol.h - 1e-6)


def test_radial_area_of_the_reuleaux_triangle():
    got = oracle.radial_area(regular(1).vertices, 1.0)
    assert abs(got - 0.5 * (math.pi - math.sqrt(3.0))) < 1e-12


def test_check_reuleaux_rejects_a_wrong_polygon():
    v = regular(2).vertices
    assert oracle.check_reuleaux(v, 5) == []
    assert oracle.check_reuleaux(v, 7)
    assert oracle.check_reuleaux(1.01 * v, 5)


def test_check_ascent_rejects_a_drop_in_h():
    assert oracle.check_ascent([4.0, 4.1, 4.1, 4.2]) == []
    assert oracle.check_ascent([4.0, 4.2, 4.1])


def test_self_times_subtract_direct_children():
    spans = [Span("item", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 5.0, 9.0, 0, 0),
             Span("c", 6.0, 7.0, 2, 0),
             Span("item", 10.0, 12.0, -1, 1)]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 2.0]
    assert self_time_by_name(spans) == {"item": 5.0, "a": 3.0, "b": 3.0,
                                        "c": 1.0}
    # self times of nested spans add up to the roots' durations
    assert sum(self_times(spans)) == 12.0


def test_tracer_records_parents_and_items():
    tracer = Tracer()
    with tracer.span("item", item=4):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    with tracer.span("item", item=5):
        pass
    names = [(s.name, s.parent, s.item) for s in tracer.spans]
    assert names == [("item", -1, 4), ("outer", 0, 4), ("inner", 1, 4),
                     ("item", -1, 5)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_tail_is_the_item_with_ten_beyond_it():
    times = [float(k) for k in range(30)]
    assert run.tail(times) == (19.0, 100.0 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class _Constant:
    """A stand-in workload whose items take no time and always pass."""

    timed_items = 25

    def input(self, i):
        return i

    def cost_class(self, inp, out):
        return inp % 2

    def run(self, inp, tracer):
        return inp

    def check(self, inp, out, h_triangle):
        return []


def test_a_run_covers_the_timed_items_past_its_seconds():
    times, classes, fails, kept = run.measure(_Constant(), 0.0, NullTracer(),
                                              4.0, 3)
    assert len(times) == 25 and fails == []
    assert classes == [i % 2 for i in range(25)]
    assert [i for i, _inp, _out in kept] == [0, 1, 2]


def test_class_best_takes_the_fastest_time_of_each_class():
    times = [3.0, 5.0, 2.0, 4.0, 6.0]
    classes = ["a", "b", "a", "b", "c"]
    assert run.class_best(times, classes) == [2.0, 4.0, 2.0, 4.0, 6.0]


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert run.VERIFY_CHECKS == tuple(verify.CHECKS)

"""Per-layer metrics of a traced run (--trace 1).

Sources: spans the driver records around its own calls in the main loop; a
probe phase that re-times the inner public calls on the same inputs,
outside the main loop; the wall time of each verify check.

Each metric, and the end-to-end metric it should move on which workload:
- arcs.inner_body_us: inner_parallel(poly, R) plus area and perimeter at
  the solved R, median over probe polygons. Moves items_per_s on large_n
  most, on sweep least.
- cheeger.cheeger_radius_ms, cheeger.cheeger_set_ms: median probe times.
  cheeger.share: the solver's self time over item time from spans.
  cheeger.evals_est: cheeger_radius_ms over inner_body_us (both printed as
  its base). Move items_per_s and item_p50_ms on sweep most.
- polygon.random_polygon_ms (re-timed walks), polygon.share (walk self
  time over item time), polygon.from_vertices_us. Move large_n and sweep.
- blaschke.ms_per_step (ascent time over accepted steps),
  blaschke.accepted_steps (exact count), blaschke.deform_us and
  blaschke.shape_derivative_us, from REPLAYS greedy ascents with the
  settings of `reuleaux optimize`, run, timed and replayed move by move in
  the probe phase. No end-to-end metric moves with these: no gated
  workload runs local_maximize. Beside them the record line prints the
  solver's share of the replayed accepted paths and the share of the
  ascents' time the replay does not explain (near 0; separate timings, so
  it can read a little below 0).
- trace.overhead_frac: the measured cost of recording one span times the
  spans recorded, over the traced item time. trace.coverage_frac: the
  share of item time covered by the layer spans inside it.
- verify.<check>_s: informational wall time of each verify check.
"""
from __future__ import annotations

import statistics
import time

from reuleaux import (area, cheeger_radius, cheeger_set, deform,
                      from_vertices, inner_parallel, local_maximize,
                      perimeter, random_polygon, shape_derivative, verify)

import oracle
from tracer import self_time_by_name, span_cost_s
from workloads import ITEM_STRIDE

# repeats of the microsecond-scale probes; the median is reported
MICRO_REPEATS = 3
# walks re-timed for polygon.random_polygon_ms
WALK_PROBES = 12
# ascents run and replayed move by move
REPLAYS = 8
# the settings of `reuleaux optimize`: local_maximize defaults, --iters 500
ASCENT_OPTS = dict(max_iters=500)
# repeats of each replayed ascent and of each of its solves; medians
ASCENT_REPEATS = 3


def _timed(fn, repeats: int = 1) -> tuple[float, object]:
    """Median wall time of fn() over repeats, and its last result."""
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def probe_polygons(polys, solve_repeats: int = 1) -> list[dict]:
    """Re-time the kernel, the solver and polygon construction per polygon."""
    rows = []
    for poly in polys:
        t_radius, R = _timed(lambda: cheeger_radius(poly), solve_repeats)
        t_set, sol = _timed(lambda: cheeger_set(poly), solve_repeats)

        def inner_body():
            inner = inner_parallel(poly, R)
            return area(inner), perimeter(inner)

        t_inner, _ = _timed(inner_body, MICRO_REPEATS)
        t_fv, _ = _timed(lambda: from_vertices(poly.vertices), MICRO_REPEATS)
        rows.append(dict(poly=poly, sol=sol, radius=t_radius, set=t_set,
                         inner=t_inner, from_vertices=t_fv))
    return rows


def replay(start, traj) -> tuple[list, list[float]]:
    """Re-derive an ascent's polygons (start first) with deform, timing each."""
    polys = [start]
    times = []
    for step in traj.steps[1:]:
        t, nxt = _timed(lambda: deform(polys[-1], step.k, step.eps))
        times.append(t)
        polys.append(nxt)
    return polys, times


def ascent_starts(seed: int) -> list:
    """REPLAYS seeded start polygons with 5, 7 or 9 arcs."""
    seeds = (seed * ITEM_STRIDE + i for i in range(REPLAYS))
    return [random_polygon(2 + s % 3, 40, s) for s in seeds]


def replay_ascent(start, fails: list[str]) -> dict:
    """Time one ascent, then replay it: move, solve and differentiate at
    each accepted step.

    h must not fall along the trajectory, and each replayed solve must give
    the trajectory's h to within the solver's accuracy (oracle.check_same_h);
    what fails is added to fails.
    """
    span, traj = _timed(lambda: local_maximize(start, **ASCENT_OPTS),
                        ASCENT_REPEATS)
    for problem in oracle.check_ascent([step.h for step in traj.steps]):
        fails.append(f"ascent: {problem}")
    polys, deform_s = replay(start, traj)
    rows = probe_polygons(polys, ASCENT_REPEATS)
    for row, step in zip(rows, traj.steps):
        for problem in oracle.check_same_h(row["sol"].h, step.h):
            fails.append(f"replayed ascent, step {step.iteration}: {problem}")
    deriv_s = []
    for row, step in zip(rows, traj.steps[1:]):
        t, _ = _timed(lambda: shape_derivative(row["poly"], step.k, row["sol"]),
                      MICRO_REPEATS)
        deriv_s.append(t)
    # The accepted path: the start is solved once (cheeger_set); each step
    # solves its candidate (cheeger_radius) and the accepted polygon
    # (cheeger_set), moves once (deform) and differentiates at every arc.
    solve = rows[0]["set"] + sum(r["radius"] + r["set"] for r in rows[1:])
    rest = sum(deform_s) + start.n * sum(deriv_s)
    return dict(traj=traj, span=span, rows=rows, deform=deform_s,
                deriv=deriv_s, solve=solve, rest=rest)


def _median_ms(xs) -> float:
    return 1e3 * statistics.median(xs)


def _median_us(xs) -> float:
    return 1e6 * statistics.median(xs)


def layer_metrics(wl, kept, tracer) -> tuple[dict, dict, list[str]]:
    """Every per-layer metric, an info record, and any probe failures.

    kept holds (item id, input, output) of the leading items of the loop.
    """
    spans = tracer.spans
    fails: list[str] = []
    items = [s for s in spans if s.name == "item"]
    item_total = sum(s.duration for s in items)
    by_name = self_time_by_name(spans)
    covered = sum(s.duration for s in spans
                  if s.parent >= 0 and spans[s.parent].name == "item")

    replays = [replay_ascent(start, fails) for start in ascent_starts(wl.seed)]
    deform_s = [t for r in replays for t in r["deform"]]
    deriv_s = [t for r in replays for t in r["deriv"]]
    span_s = sum(r["span"] for r in replays)
    solve_s = sum(r["solve"] for r in replays)
    explained_s = solve_s + sum(r["rest"] for r in replays)
    steps = sum(len(r["traj"].steps) - 1 for r in replays)
    rows = probe_polygons([out[0] for _i, _inp, out in kept])

    walks = [wl.walk_input(wl.item_seed(i))
             for i in range(min(WALK_PROBES, wl.probe_items))]
    walk_s = [_timed(lambda: random_polygon(*w))[0] for w in walks]

    inner_us = _median_us([r["inner"] for r in rows])
    radius_ms = _median_ms([r["radius"] for r in rows])
    metrics = {
        "arcs.inner_body_us": inner_us,
        "cheeger.cheeger_radius_ms": radius_ms,
        "cheeger.cheeger_set_ms": _median_ms([r["set"] for r in rows]),
        "cheeger.share":
            by_name.get("cheeger.cheeger_set", 0.0) / item_total,
        "cheeger.evals_est": 1e3 * radius_ms / inner_us,
        "polygon.random_polygon_ms": _median_ms(walk_s),
        "polygon.share": by_name.get("polygon.random_polygon", 0.0) / item_total,
        "polygon.from_vertices_us": _median_us([r["from_vertices"] for r in rows]),
        "blaschke.ms_per_step": 1e3 * span_s / max(steps, 1),
        "blaschke.accepted_steps": steps,
        "blaschke.deform_us": _median_us(deform_s) if deform_s else 0.0,
        "blaschke.shape_derivative_us": _median_us(deriv_s) if deriv_s else 0.0,
        "trace.overhead_frac": span_cost_s() * len(spans) / item_total,
        "trace.coverage_frac": covered / item_total,
    }
    info = {"evals_est_base": {"cheeger_radius_ms": radius_ms,
                               "inner_body_us": inner_us},
            "probe_polygons": len(rows),
            "replayed_ascents": len(replays),
            "replayed_steps": len(deform_s),
            "replay_cheeger_share": solve_s / explained_s,
            "replay_unexplained_frac": 1.0 - explained_s / span_s,
            "spans": len(spans)}
    verify_passed = {}
    for name, check in verify.CHECKS.items():
        t, result = _timed(check)
        metrics[f"verify.{name}_s"] = t
        verify_passed[name] = result.passed
    info["verify_passed"] = verify_passed
    return metrics, info, fails

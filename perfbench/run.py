#!/usr/bin/env python3
"""Benchmark of the reuleaux toolkit: seeded closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

One client, one thread: each item runs after the previous one returned and
passed the independent output check in oracle.py. An item that raises or
fails its check counts as failed. The library is imported from ./src and
receives only the generated inputs.

With --trace 0 the last line of stdout is the end-to-end result, with
--trace 1 the per-layer one (see layers.py). The line before it records
the machine, the run, the tail percentile used and the item count.

End-to-end metrics (untraced run) are taken over the run's first
timed_items items, fixed per workload so that every commit times the same
inputs; a run goes on past --seconds until it has them, for at most
MAX_MEASURE_S. An item is one polygon: a walk and its Cheeger solve. Each
item is timed at its cost class's best: the fastest time among the timed
items of its class (workloads.cost_class: arc count and walk length, which
fix an item's work). On a shared 2-vCPU cloud VM the same code ran at two
speeds 1.7x apart, switching every fraction of a second, in shares that
changed from minute to minute, so raw times moved by up to 35% between
sets of runs; class-best times move far less. The raw figures are printed
on the record line. What class-best times cannot see is an input that is
slow for its class.
- items_per_s: timed items over their summed class-best time.
- item_p50_ms: median class-best item time.
- item_tail_ms: the class-best time of the item with exactly ten slower
  items beyond it: the highest percentile with at least ten items beyond
  it, printed with the item count.
- setup_s: the median of SETUP_REPEATS set-ups, each the import of numpy
  and reuleaux in a fresh interpreter and one untimed warm-up item.
- peak_rss_mb: peak resident set size of the process.
Failed items are counted by the result's `attempted` and `failed` keys;
failed_frac = failed / attempted is printed on the record line.
"""
from __future__ import annotations

import os

# pin native thread pools before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# a run that is slow to reach its timed items stops here all the same
MAX_MEASURE_S = 100.0
# probe-phase trace output, relative to the checkout root
TRACE_DIR = ".bench_out"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "arcs.inner_body_us": "us",
    "cheeger.cheeger_radius_ms": "ms",
    "cheeger.cheeger_set_ms": "ms",
    "cheeger.share": "fraction",
    "cheeger.evals_est": "count",
    "polygon.random_polygon_ms": "ms",
    "polygon.share": "fraction",
    "polygon.from_vertices_us": "us",
    "blaschke.ms_per_step": "ms",
    "blaschke.accepted_steps": "count",
    "blaschke.deform_us": "us",
    "blaschke.shape_derivative_us": "us",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}
VERIFY_CHECKS = ("triangle", "disk", "table1", "radius_window", "sector",
                 "minr", "small_polygon", "derivative", "criticality",
                 "sweep", "minarea", "bands", "invariants")
PER_LAYER_UNITS.update({f"verify.{name}_s": "s" for name in VERIFY_CHECKS})


def child_import_s(src: Path) -> float:
    """Import time of numpy and reuleaux in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, reuleaux; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the item with exactly ten items beyond it.

    With ten items or fewer there is no such percentile; the slowest item
    is reported as the 100th percentile.
    """
    ordered = sorted(times)
    c = len(ordered)
    if c <= 10:
        return ordered[-1], 100.0
    return ordered[c - 11], 100.0 * (c - 10) / c


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the library's source files, to identify the code measured
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(wl, seconds: float, tracer, h_triangle: float, keep: int):
    """Closed loop for `seconds` of wall time, and until the workload's
    first timed_items items are done (within MAX_MEASURE_S).

    Returns item times, their cost classes, failure messages, and
    (id, input, output) of the first `keep` items that passed.
    """
    times: list[float] = []
    classes = []
    fails: list[str] = []
    kept = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (i >= wl.timed_items
                                   or elapsed >= MAX_MEASURE_S):
            break
        inp = wl.input(i)
        t0 = time.perf_counter()
        try:
            with tracer.span("item", item=i):
                out = wl.run(inp, tracer)
        except Exception as exc:  # an item that raises counts as failed
            times.append(time.perf_counter() - t0)
            classes.append(wl.cost_class(inp, None))
            fails.append(f"item {i}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        else:
            times.append(time.perf_counter() - t0)
            classes.append(wl.cost_class(inp, out))
            problems = wl.check(inp, out, h_triangle)
            if problems:
                fails.append(f"item {i}: " + "; ".join(problems))
            elif len(kept) < keep:
                kept.append((i, inp, out))
        i += 1
    return times, classes, fails, kept


def class_best(times: list[float], classes: list) -> list[float]:
    """Each item's time replaced by the fastest time of its cost class."""
    best: dict = {}
    for t, c in zip(times, classes):
        best[c] = min(t, best.get(c, t))
    return [best[c] for c in classes]


def timing(times: list[float]) -> dict:
    """items_per_s, item_p50_ms, item_tail_ms and the tail's percentile."""
    tail_s, pct = tail(times)
    return {"items_per_s": len(times) / sum(times),
            "item_p50_ms": 1e3 * statistics.median(times),
            "item_tail_ms": 1e3 * tail_s, "tail_percentile": pct}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import numpy
        import reuleaux
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {src}: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(reuleaux.__file__).resolve().parent != src / "reuleaux":
        print(f"perfbench: reuleaux imported from {reuleaux.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    h_triangle = reuleaux.triangle_closed_form()[1]
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_s(src)
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed)
        wl.warm_up(NullTracer())
        setups.append(imported + time.perf_counter() - t0)

    tracer = Tracer() if args.trace else NullTracer()
    keep = wl.probe_items if args.trace else 0
    times, classes, fails, kept = measure(wl, args.seconds, tracer,
                                          h_triangle, keep)
    probe_fails: list[str] = []

    record = {
        "run": {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "git_commit": git_commit(),
                "source_sha256": source_digest()},
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": platform.platform()},
        "items": len(times),
    }
    if args.trace:
        from layers import layer_metrics
        values, info, probe_fails = layer_metrics(wl, kept, tracer)
        record["layers"] = info
        out_dir = ROOT / TRACE_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.json")
        units = PER_LAYER_UNITS
    else:
        timed = slice(0, wl.timed_items)
        values = timing(class_best(times[timed], classes[timed]))
        record["timed"] = {"items": len(times[timed]),
                           "classes": len(set(classes[timed])),
                           "tail_percentile": values.pop("tail_percentile"),
                           "raw": timing(times[timed]),
                           "raw_all_items": timing(times)}
        values.update({
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        record["setup"] = {"in_process_import_s": import_s,
                           "repeats_s": setups}
        units = END_TO_END_UNITS
    record["failed_frac"] = len(fails) / len(times)
    record["failures"] = (fails + probe_fails)[:10]
    print(json.dumps(record))
    print(json.dumps({
        "correct": not fails and not probe_fails,
        "attempted": len(times),
        "failed": len(fails),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

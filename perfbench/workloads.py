"""The benchmark's workloads: seeded inputs, one item's calls, its check.

Every workload is a closed loop with one client: item i+1 starts when item i
has returned and been checked. An item is a seeded random Blaschke walk
(random_polygon) followed by the Cheeger solve (cheeger_set). Item i of a
run with seed `seed` uses the walk seed `seed * ITEM_STRIDE + i`, so runs
with different seeds share no inputs and consecutive items cycle through
the cost classes.
"""
from __future__ import annotations

from reuleaux import cheeger_set, random_polygon

import oracle

ITEM_STRIDE = 100_000
# Set-up warms up on the same item in every run, so that set-up time does
# not vary with the seed.
WARMUP_SEED = 2


class Workload:
    name = ""
    # leading items whose inputs and outputs the traced run keeps for probes
    probe_items = 12
    # The end-to-end times are taken over items 0..timed_items-1 of every
    # run, the same inputs on every commit; a run goes on past --seconds
    # until it has them.
    timed_items = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def item_seed(self, i: int) -> int:
        return self.seed * ITEM_STRIDE + i

    def warm_up(self, tracer) -> None:
        self.run(self.walk_input(WARMUP_SEED), tracer)

    def input(self, i: int):
        return self.walk_input(self.item_seed(i))

    def cost_class(self, inp, out):
        """The input features that fix how much work an item does: arc count
        and walk length."""
        return inp[:2]

    def run(self, inp, tracer):
        N, steps, s = inp
        with tracer.span("polygon.random_polygon"):
            poly = random_polygon(N, steps, s)
        with tracer.span("cheeger.cheeger_set"):
            sol = cheeger_set(poly)
        return poly, sol

    def check(self, inp, out, h_triangle: float) -> list[str]:
        poly, sol = out
        return (oracle.check_reuleaux(poly.vertices, 2 * inp[0] + 1)
                or oracle.check_cheeger(poly.vertices, sol.R, h_triangle))


class Sweep(Workload):
    """The verify sweep's polygons: n = 3..13 arcs, 30, 37 or 44 walk steps."""

    name = "sweep"
    # 200 items of each of the 6 (arc count, walk length) classes
    timed_items = 1200

    def walk_input(self, s: int):
        return (s % 6 + 1, 30 + (7 * s) % 21, s)


class LargeN(Workload):
    """41-arc polygons, where the O(n^2) kernel and walk checks dominate.

    n = 41 rather than more keeps a run at about 100 items, enough for
    item_tail_ms to be a tail and for each walk length to have its best.
    """

    name = "large_n"
    probe_items = 4
    # 25 items of each of the 3 walk lengths
    timed_items = 75

    def walk_input(self, s: int):
        return (20, 20 + (7 * s) % 21, s)


WORKLOADS = {w.name: w for w in (Sweep, LargeN)}

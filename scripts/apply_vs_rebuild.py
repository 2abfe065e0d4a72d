#!/usr/bin/env python3
"""Time the incremental update against a from-scratch rebuild.

For every n and K of the sweep this builds a seeded graph at degree
bound d, then applies churn batches of one delete plus one insert
(on four distinct vertices, so the edge count never moves).  After the
warm-up batches it records the CPU time of each ``apply_batch`` and of
``state_from_graph`` on the same graph, and prints the medians and
their ratio (below one means the incremental path wins).  Outside the
timers, every rebuilt state's F is compared with the folded state's
(every coefficient of the 2n x 2n G is one of F's, so this checks G
too); on a mismatch the script names the (n, K) point and exits with 1.

    python3 scripts/apply_vs_rebuild.py
    python3 scripts/apply_vs_rebuild.py --n 12 --k 4 --batches 2 --warmup 1
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dynwalk.dyncore import apply_batch, state_from_graph
from dynwalk.graph import DynGraph, EdgeBatch, EdgeOp

# Share of the n*d/2 edge slots the graph holds.
DENSITY = 0.9


def insert_pairs(edges: set, n: int, d: int) -> list:
    """Non-adjacent pairs of vertices that both have spare degree."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    spare = [w for w in range(n) if deg[w] < d]
    return [(x, y) for i, x in enumerate(spare) for y in spare[i + 1 :] if (x, y) not in edges]


def seeded_graph(n: int, d: int, rng: random.Random) -> set:
    """round(DENSITY * n*d/2) random edges, degrees at most d, one insertable pair left."""
    target = round(DENSITY * n * d / 2)
    while True:
        edges = set()
        while len(edges) < target and (pairs := insert_pairs(edges, n, d)):
            edges.add(rng.choice(pairs))
        if len(edges) == target and insert_pairs(edges, n, d):
            return edges


def churn_batch(edges: set, n: int, d: int, rng: random.Random) -> EdgeBatch:
    """Insert a random insertable pair and delete an edge disjoint from it.

    The deleted endpoints are an insertable pair afterwards, so the
    stream never runs dry.  ``edges`` is updated in place.
    """
    x, y = rng.choice(insert_pairs(edges, n, d))
    u, v = rng.choice(sorted(e for e in edges if x not in e and y not in e))
    edges.remove((u, v))
    edges.add((x, y))
    return EdgeBatch((EdgeOp("delete", u, v), EdgeOp("insert", x, y)))


def cpu_ms(fn, *args):
    t0 = time.thread_time_ns()
    out = fn(*args)
    return out, (time.thread_time_ns() - t0) / 1e6


def sweep_point(n: int, d: int, k: int, batches: int, warmup: int, seed: int):
    """(median apply ms, median rebuild ms) over the timed batches.

    Exits with 1 if a folded state differs from its rebuild.
    """
    rng = random.Random(seed)
    edges = seeded_graph(n, d, rng)
    state = state_from_graph(DynGraph(n, d, set(edges)), k)
    applies, rebuilds = [], []
    for i in range(warmup + batches):
        state, ms = cpu_ms(apply_batch, state, churn_batch(edges, n, d, rng))
        if i >= warmup:
            applies.append(ms)
            rebuilt, ms = cpu_ms(state_from_graph, state.graph, k)
            rebuilds.append(ms)
            if rebuilt.F != state.F:
                sys.exit(f"error: n={n} K={k}: folded F differs from the rebuild at batch {i + 1}")
    return statistics.median(applies), statistics.median(rebuilds)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[12, 32, 64])
    ap.add_argument("--k", type=int, nargs="+", default=[4, 8, 12], help="truncation degrees")
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--batches", type=int, default=5, help="timed batches per point")
    ap.add_argument("--warmup", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"# d={args.d} batches={args.batches} warmup={args.warmup} seed={args.seed}; CPU ms, medians")
    print(f"{'n':>4} {'K':>4} {'apply_ms':>10} {'rebuild_ms':>11} {'ratio':>7}")
    for n in args.n:
        for k in args.k:
            apply_ms, rebuild_ms = sweep_point(n, args.d, k, args.batches, args.warmup, args.seed)
            print(f"{n:>4} {k:>4} {apply_ms:>10.2f} {rebuild_ms:>11.2f} {apply_ms / rebuild_ms:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

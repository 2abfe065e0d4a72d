"""Seeded inputs and the closed benchmark loop for dynwalk.

The generator owns the randomness: from a seed it builds a graph at a
fixed density and an endless stream of churn batches, and the program
sees only that graph and those batches.  One caller applies the next
batch only after the previous update has returned (a closed loop with a
single client).  Correctness gates run outside every timer.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from dynwalk import dyncore, expander, muddle, oracle
from dynwalk.expander import TesterConfig, Verdict, threshold
from dynwalk.graph import DynGraph, EdgeBatch, EdgeOp, lazy_transition
from dynwalk.numerics import Rat

# Share of the n*d/2 edge slots that the graph holds throughout a run.
DENSITY = 0.9
# The tail percentile is the highest one with at least this many samples
# beyond it.
TAIL_BEYOND = 10
# Every timed interval is reported as if the reference kernel had taken
# this long right before it (see normalised()).
REFERENCE_MS = 10.0
# Rebuild samples are taken after an update while rebuild time so far is
# at most this share of update time, so they never dominate a run.
REBUILD_SHARE = 1.0
# Set-up repeats at least SETUP_MIN_REPS times and until it has taken
# SETUP_SECONDS, within SETUP_MAX_REPS, so the setup_s median rests on
# enough samples.
SETUP_MIN_REPS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 50


class ChurnStream:
    """A seeded graph at DENSITY * n*d/2 edges and its churn batches.

    Every batch is one delete followed by one insert on four distinct
    vertices, so the edge count never moves.  The inserted pair is drawn
    among non-adjacent vertices with spare degree and the deleted edge
    among edges disjoint from it; after a batch the deleted endpoints are
    such a pair, so the stream never runs dry.
    """

    def __init__(self, n: int, d: int, rng: random.Random):
        self.n, self.d, self.rng = n, d, rng
        self.target = round(DENSITY * n * d / 2)
        while True:
            self.adj, self.deg = set(), [0] * n
            while len(self.adj) < self.target and (pairs := self._insert_pairs()):
                self._add(*rng.choice(pairs))
            if len(self.adj) == self.target and self._insert_pairs():
                break

    def graph(self) -> DynGraph:
        return DynGraph(self.n, self.d, set(self.adj))

    def _add(self, u, v):
        self.adj.add((u, v))
        self.deg[u] += 1
        self.deg[v] += 1

    def _insert_pairs(self) -> list:
        spare = [v for v in range(self.n) if self.deg[v] < self.d]
        return [
            (x, y)
            for i, x in enumerate(spare)
            for y in spare[i + 1 :]
            if (x, y) not in self.adj
        ]

    def next_batch(self) -> EdgeBatch:
        x, y = self.rng.choice(self._insert_pairs())
        u, v = self.rng.choice(sorted(e for e in self.adj if x not in e and y not in e))
        self.adj.remove((u, v))
        self.deg[u] -= 1
        self.deg[v] -= 1
        self._add(x, y)
        return EdgeBatch((EdgeOp("delete", u, v), EdgeOp("insert", x, y)))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    K: int
    cascade_threshold: int = dyncore.DEFAULT_CASCADE_THRESHOLD
    latency: int | None = None  # set for the muddled pipeline
    bits: int | None = None

    @property
    def muddled(self) -> bool:
        return self.latency is not None

    @property
    def warmup(self) -> int:
        """Updates before timing starts: the muddled pipeline fills in L steps."""
        return self.latency if self.muddled else 0

    def build(self, graph: DynGraph):
        if self.muddled:
            cfg = muddle.MuddleConfig(self.n, self.d, self.K, self.latency, self.bits)
            return muddle.MuddleTimeline(cfg, graph)
        return dyncore.state_from_graph(
            graph, self.K, cascade_threshold=self.cascade_threshold
        )

    def update(self, system, batch):
        if self.muddled:
            return system.step(batch)
        return dyncore.apply_batch(system, batch)

    def served(self, system):
        return system.served if self.muddled else system


# Why each workload is here is recorded in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("churn-exact", n=96, d=3, K=4),
        Workload("muddled", n=16, d=3, K=4, latency=4, bits=64),
        Workload("cascade", n=16, d=3, K=4, cascade_threshold=4),
    )
}


def tester_config(w: Workload) -> TesterConfig:
    return TesterConfig(Rat(1, 2), w.d, w.K // 4)


def pick_lookups(graph: DynGraph, K: int, rng: random.Random) -> list:
    """The fixed read_power_entry set: 8 diagonals and 8 edges, j = 1..K/2."""
    verts = rng.sample(range(graph.n), 8)
    edges = rng.sample(graph.edges(), 8)
    pairs = [(v, v) for v in verts] + edges
    return [(s, t, j) for s, t in pairs for j in range(1, K // 2 + 1)]


# -- correctness gates ------------------------------------------------------


def reference_verdict(t, n: int, ell: int) -> Verdict:
    """expansion_query's verdict recomputed by walk counting on T."""
    bound = threshold(n)
    for v in range(n):
        val = oracle.walk_count_dp(t, v, v, 2 * ell)[2 * ell]
        if val > bound:
            return Verdict(False, v, val)
    return Verdict(True, None, None)


def error_bound(state):
    """Certified entrywise error of a served state: 0 exact, 2^-(b-spent-2) in bits mode."""
    if not state.is_bits:
        return Rat(0)
    return Rat(1, 1 << (state.bits - state.budget.bits_spent - 2))


def check_round(state, verdict, values, lookups, ell) -> list:
    """Gate one read round against walk counting on the same graph."""
    errors = []
    tol = error_bound(state)
    t = lazy_transition(state.graph)
    ref = reference_verdict(t, state.n, ell)
    if (verdict.accept, verdict.witness) != (ref.accept, ref.witness):
        errors.append(f"verdict {verdict} != reference {ref}")
    elif ref.value is not None and abs(verdict.value - ref.value) > tol:
        errors.append(f"verdict value {verdict.value} off reference {ref.value}")
    for (s, u, j), got in zip(lookups, values):
        want = oracle.walk_count_dp(t, s, u, j)[j]
        if abs(got - want) > tol:
            errors.append(f"T^{j}[{s},{u}] = {got}, walk count gives {want}")
    return errors


def check_rebuild(state, rebuilt, verdict, cfg) -> list:
    """Gate the maintained state against a from-scratch state on its graph."""
    errors = []
    fresh = expander.expansion_query(rebuilt, cfg)
    if (verdict.accept, verdict.witness) != (fresh.accept, fresh.witness):
        errors.append(f"verdict {verdict} != from-scratch {fresh}")
    if not state.is_bits and state.G != rebuilt.G:
        errors.append("G differs from the from-scratch state")
    return errors


def check_final(w: Workload, system) -> list:
    """End-of-run gate: G against the oracle power sum of the current B."""
    state = w.served(system)
    exact = oracle.exact_power_sum(state.B, w.K)
    errors = []
    if w.muddled:
        tol = error_bound(state)
        worst = max(
            abs(ea[i] - eb[i])
            for ra, rb in zip(state.G.rows, exact.rows)
            for ea, eb in zip(ra, rb)
            for i in range(w.K + 1)
        )
        if worst > tol:
            errors.append(f"served G off by {worst}, certified {tol}")
        peak = w.latency + (w.latency + 1) // 2 + 1
        if system.max_budget_age() > peak:
            errors.append(f"budget age {system.max_budget_age()} above {peak}")
    elif state.G != exact:
        errors.append("final G differs from exact_power_sum(B, K)")
    return errors


# -- the closed loop --------------------------------------------------------


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    update_ms: list = field(default_factory=list)
    query_us: list = field(default_factory=list)
    rebuild_ms: list = field(default_factory=list)
    raw_update_ms: list = field(default_factory=list)
    reference_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class _NoHooks:
    def begin(self, batch_id):
        pass

    def after(self, system):
        pass


def reference_kernel():
    """Fixed Fraction work, independent of dynwalk, that sets the unit of time."""
    a, acc = Fraction(3, 7), Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 1) * a
    return acc


def _timed(fn, *args):
    """(result, ns, reference ns): CPU time of ``fn(*args)`` and of the kernel before it.

    Times are CPU time of this thread.  The program is single-threaded
    and neither sleeps nor does I/O, so on an otherwise idle core its CPU
    time is its wall time, while on a shared host wall time also counts
    intervals in which the process was not scheduled at all.  The
    reference kernel runs right before the call so that normalised()
    can cancel the host's own speed swings.

    Every live object is first moved to the permanent GC generation, so
    the call pays the cyclic collector for its own allocations but never
    for a traversal of whatever heap the loop happens to hold.
    """
    gc.freeze()
    t0 = time.thread_time_ns()
    reference_kernel()
    t1 = time.thread_time_ns()
    result = fn(*args)
    return result, time.thread_time_ns() - t1, t1 - t0


def normalised(ns, ref_ns) -> float:
    """A time in ns scaled to a reference kernel time of REFERENCE_MS."""
    return ns * REFERENCE_MS * 1e6 / ref_ns


def _read_round(state, cfg, lookups):
    verdict = expander.expansion_query(state, cfg)
    return verdict, [dyncore.read_power_entry(state, s, t, j) for s, t, j in lookups]


def run(w: Workload, seed: int, seconds: float, repeat_setup=True, hooks=None) -> Samples:
    """Set up, then update and read in a closed loop for ``seconds``.

    With ``repeat_setup`` set-up runs at least SETUP_MIN_REPS times and
    until it has taken SETUP_SECONDS, else once.  ``hooks`` (the traced
    run's) gets ``begin(batch_id)`` before the calls that belong to an
    update, ``begin(0)`` before each gate, and ``after(system)`` after
    each update, outside the timers.  Warm-up updates get ids
    -warmup..-1 and are not timed; timed updates are numbered from 1.
    """
    hooks = hooks or _NoHooks()
    rng = random.Random(seed)
    stream = ChurnStream(w.n, w.d, rng)
    graph = stream.graph()
    lookups = pick_lookups(graph, w.K, rng)
    cfg = tester_config(w)
    out = Samples()

    reps = SETUP_MIN_REPS if repeat_setup else 1
    while len(out.setup_s) < reps or (
        repeat_setup and sum(out.setup_s) < SETUP_SECONDS and len(out.setup_s) < SETUP_MAX_REPS
    ):
        system = None
        system, ns, ref = _timed(w.build, graph)
        out.setup_s.append(normalised(ns, ref) / 1e9)

    def fail(msgs):
        out.failed += 1
        out.errors.extend(msgs)

    rebuild_ns = update_ns = 0
    for i in itertools.chain(range(-w.warmup, 0), itertools.count(1)):
        if i == 1:
            deadline = time.perf_counter() + seconds
        elif i > 1 and time.perf_counter() >= deadline and len(out.update_ms) > TAIL_BEYOND:
            break
        batch = stream.next_batch()
        hooks.begin(i)
        try:
            out.attempted += 1
            system, ns, ref = _timed(w.update, system, batch)
            hooks.after(system)
            if i > 0:
                out.update_ms.append(normalised(ns, ref) / 1e6)
                out.raw_update_ms.append(ns / 1e6)
                out.reference_ms.append(ref / 1e6)
                update_ns += ns
            state = w.served(system)
            out.attempted += 1
            (verdict, values), ns, ref = _timed(_read_round, state, cfg, lookups)
            if i > 0:
                out.query_us.append(normalised(ns, ref) / 1e3)
            rebuilt = None
            if i > 0 and rebuild_ns <= REBUILD_SHARE * update_ns:
                out.attempted += 1
                rebuilt, ns, ref = _timed(dyncore.state_from_graph, state.graph, w.K)
                rebuild_ns += ns
                out.rebuild_ms.append(normalised(ns, ref) / 1e6)
        except Exception as exc:  # a failed operation ends the run
            fail([f"update {i}: {type(exc).__name__}: {exc}"])
            break
        hooks.begin(0)
        errs = check_round(state, verdict, values, lookups, cfg.ell)
        if rebuilt is not None:
            errs += check_rebuild(state, rebuilt, verdict, cfg)
        if errs:
            fail(errs)

    if not out.failed:
        out.attempted += 1
        hooks.begin(0)
        errs = check_final(w, system)
        if errs:
            fail(errs)
    gc.unfreeze()
    return out


# -- summaries --------------------------------------------------------------


def tail(values: list):
    """(percentile, value): the highest rank with TAIL_BEYOND samples above it."""
    n = len(values)
    rank = n - TAIL_BEYOND  # 1-based rank of the value
    return math.floor(100 * rank / n), sorted(values)[rank - 1]


def end_to_end(s: Samples):
    """(metrics, tail percentile) of one untraced run; metrics map name -> (value, unit)."""
    p50 = statistics.median(s.update_ms)
    rebuild = statistics.median(s.rebuild_ms)
    pct, tail_ms = tail(s.update_ms)
    return {
        "setup_s": (statistics.median(s.setup_s), "s"),
        "batch_ms_p50": (p50, "ms"),
        "batch_ms_tail": (tail_ms, "ms"),
        "batches_per_s": (len(s.update_ms) / (sum(s.update_ms) / 1e3), "1/s"),
        "query_us_p50": (statistics.median(s.query_us), "us"),
        "rebuild_ms_p50": (rebuild, "ms"),
        "apply_rebuild_ratio": (p50 / rebuild, "ratio"),
    }, pct

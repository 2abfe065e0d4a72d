"""Pipelined recomputation: freshness, liveness, population bounds."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as hst

from dynwalk.numerics import BudgetExhausted, PrecisionBudget
from dynwalk.linalg import PolyMatrix
from dynwalk.graph import BatchRejected, DynGraph, EdgeBatch, EdgeOp, validate_and_apply
from dynwalk.dyncore import apply_batch, state_from_graph
from dynwalk.muddle import AccountingRow, MuddleConfig, MuddleTimeline, TraceRow

from conftest import random_batch, random_graph, truncate_all, woodbury_fold


def toggle(u, v, present):
    kind = "delete" if present else "insert"
    return EdgeBatch((EdgeOp(kind, u, v),))


def truncated_twin(graph, k, bits):
    return truncate_all(state_from_graph(graph, k).G, bits)


@dataclass
class Served:
    """The reference timeline's served state: a graph, F in Rat, a budget."""

    graph: DynGraph
    F: PolyMatrix
    budget: PrecisionBudget


class ReplayTimeline:
    """The latency model taken literally: one exact state per job.

    Each job rebuilds from scratch at its spawn, replays its backlog at two
    batches per tick once its compute ticks are over, and delivers its own
    F truncated to b bits.  The served state takes every batch as the
    Woodbury fold of its F in Rat followed by truncation of every
    coefficient (of F, which is every coefficient of G but its structural
    zeros).  Nothing here shares work between jobs, so it checks that the
    shadow scheduler's counters and single exact state reproduce the
    model, and that the served packed state rounds as the definition does.
    """

    def __init__(self, cfg, graph):
        self.cfg = cfg
        self.clock = 0
        fresh = state_from_graph(graph, cfg.K)
        self.served = Served(fresh.graph, fresh.F, PrecisionBudget(cfg.bits))
        self.jobs = []
        self.trace = []
        self.rows = []
        self._spawn()

    def _spawn(self):
        state = state_from_graph(self.served.graph, self.cfg.K)
        self.jobs.append({"spawn": self.clock, "state": state, "backlog": []})

    def _serve(self, batch):
        st = self.served
        if len(batch) == 0:
            return st
        graph, tdeltas = validate_and_apply(st.graph, batch)
        if not st.budget.can_spend(1):
            raise BudgetExhausted("served budget exhausted")
        budget = st.budget.copy()
        budget.spend(1)
        f = truncate_all(woodbury_fold(st.F, tdeltas, self.cfg.K, 2 * graph.d), self.cfg.bits)
        return Served(graph, f, budget)

    def step(self, batch):
        cfg = self.cfg
        self.served = self._serve(batch)
        self.clock += 1
        if len(batch) > 0:
            for job in self.jobs:
                job["backlog"].append(batch)
        caught_up = 0
        for job in self.jobs:
            if self.clock - job["spawn"] > cfg.compute_ticks:
                for _ in range(2):
                    if job["backlog"]:
                        job["state"] = apply_batch(job["state"], job["backlog"].pop(0))
                        caught_up += 1
        delivered = 0
        for job in self.jobs:
            if self.clock - job["spawn"] >= cfg.L and not job["backlog"]:
                budget = PrecisionBudget(cfg.bits)
                budget.spend(1)
                self.served = Served(
                    job["state"].graph, truncate_all(job["state"].F, cfg.bits), budget
                )
                self.jobs.remove(job)
                delivered = 1
                break
        self._spawn()
        age = self.served.budget.bits_spent
        self.trace.append(TraceRow(self.clock, len(self.jobs), age, delivered))
        self.rows.append(
            AccountingRow(
                clock=self.clock,
                active_jobs=len(self.jobs),
                backlog_depths=tuple(len(j["backlog"]) for j in self.jobs),
                budget_remaining=self.served.budget.remaining,
                caught_up=caught_up,
                delivered=delivered,
            )
        )

    def trace_lines(self):
        return [r.line() for r in self.trace]


def drive(timeline, steps):
    """Feed one valid single-op batch per step by toggling edge (0, 1)."""
    present = timeline.served.graph.has_edge(0, 1)
    for _ in range(steps):
        timeline.step(toggle(0, 1, present))
        present = not present
    return timeline


def test_config_validation():
    MuddleConfig(4, 2, 4, 4, 16)  # peak 7 clears a 16-bit budget
    with pytest.raises(ValueError, match="latency 5 too deep for a 16-bit budget"):
        MuddleConfig(4, 2, 4, 5, 16)
    with pytest.raises(ValueError, match="negative"):
        MuddleConfig(4, 2, 4, -1, 32)
    with pytest.raises(ValueError, match="positive"):
        MuddleConfig(4, 2, 4, 2, 0)


def test_compute_ticks_floor():
    for ell, want in ((0, 0), (1, 0), (2, 1), (3, 1), (8, 4)):
        assert MuddleConfig(4, 2, 4, ell, 64).compute_ticks == want


def test_graph_shape_must_match():
    cfg = MuddleConfig(4, 2, 4, 2, 32)
    with pytest.raises(ValueError, match="disagrees"):
        MuddleTimeline(cfg, DynGraph.empty(5, 2))


def test_zero_latency_serves_fresh_exact_every_step():
    cfg = MuddleConfig(4, 2, 4, 0, 32)
    tl = MuddleTimeline(cfg)
    present = False
    for _ in range(6):
        tl.step(toggle(0, 1, present))
        present = not present
        row = tl.trace[-1]
        assert row.delivered == 1
        assert row.served_budget_age == 1
        assert row.active_jobs == 1
        assert tl.served.G == truncated_twin(tl.served.graph, cfg.K, cfg.bits)


def test_population_and_liveness_even_latency():
    cfg = MuddleConfig(4, 2, 4, 4, 32)
    tl = drive(MuddleTimeline(cfg), 12)
    assert all(r.active_jobs <= 4 for r in tl.trace)
    for r in tl.trace:
        if r.clock >= cfg.L:
            assert r.delivered == 1
            assert r.active_jobs == 4
        else:
            assert r.delivered == 0


def test_population_and_liveness_odd_latency():
    cfg = MuddleConfig(4, 2, 4, 5, 32)
    tl = drive(MuddleTimeline(cfg), 14)
    assert all(r.active_jobs <= 5 for r in tl.trace)
    for r in tl.trace:
        assert r.delivered == (1 if r.clock >= cfg.L else 0)


def test_budget_age_peaks_during_warmup_then_pins_at_one():
    cfg = MuddleConfig(4, 2, 4, 4, 32)
    tl = drive(MuddleTimeline(cfg), 12)
    assert tl.max_budget_age() == 3
    assert tl.max_budget_age() <= cfg.L + (cfg.L + 1) // 2
    for r in tl.trace:
        if r.clock >= cfg.L:
            assert r.served_budget_age == 1


def test_delivery_installs_truncated_exact_rebuild():
    cfg = MuddleConfig(5, 2, 6, 3, 48)
    tl = MuddleTimeline(cfg)
    plan = [("insert", 0, 1), ("insert", 2, 3), ("delete", 0, 1), ("insert", 1, 2),
            ("insert", 0, 4), ("delete", 2, 3), ("insert", 0, 1), ("delete", 1, 2)]
    for kind, u, v in plan:
        tl.step(EdgeBatch((EdgeOp(kind, u, v),)))
        if tl.trace[-1].delivered:
            assert tl.served.budget.bits_spent == 1
            assert tl.served.G == truncated_twin(tl.served.graph, cfg.K, cfg.bits)


def test_accounting_rows_track_backlogs():
    cfg = MuddleConfig(4, 2, 4, 4, 32)
    tl = drive(MuddleTimeline(cfg), 10)
    rows = tl.accounting()
    assert [r.clock for r in rows] == list(range(1, 11))
    for r in rows:
        assert r.budget_remaining == cfg.bits - (r.clock if r.clock < cfg.L else 1)
        assert all(depth <= cfg.L for depth in r.backlog_depths)
        if r.clock >= cfg.L:
            assert r.caught_up >= 1


def test_rejected_batch_leaves_timeline_untouched():
    cfg = MuddleConfig(4, 2, 4, 2, 32)
    tl = MuddleTimeline(cfg)
    with pytest.raises(BatchRejected):
        tl.step(EdgeBatch((EdgeOp("delete", 0, 1),)))
    assert tl.clock == 0
    assert tl.trace == []
    assert len(tl.jobs) == 1
    # after warmup, on a tick where the oldest job would deliver
    drive(tl, 5)
    assert all(r.delivered for r in tl.trace[cfg.L - 1:])
    clock, trace, rows = tl.clock, list(tl.trace), list(tl.rows)
    counters = [(j.spawn_time, j.backlog) for j in tl.jobs]
    served, shadow = tl.served, tl.shadow
    served_g = [list(r) for r in served.G.rows]
    shadow_g = [list(r) for r in shadow.G.rows]
    # (0, 1) is present after five toggles; the first op is valid, the
    # second deletes an absent edge
    with pytest.raises(BatchRejected):
        tl.step(EdgeBatch((EdgeOp("insert", 1, 3), EdgeOp("delete", 2, 3))))
    assert tl.clock == clock
    assert tl.trace == trace
    assert tl.rows == rows
    assert [(j.spawn_time, j.backlog) for j in tl.jobs] == counters
    assert tl.served is served and tl.shadow is shadow
    assert [list(r) for r in served.G.rows] == served_g
    assert [list(r) for r in shadow.G.rows] == shadow_g
    # the same tick with a valid batch delivers
    tl.step(EdgeBatch((EdgeOp("insert", 1, 3),)))
    assert tl.trace[-1].delivered == 1
    assert tl.served.G == truncated_twin(tl.served.graph, cfg.K, cfg.bits)


def test_trace_line_format():
    cfg = MuddleConfig(4, 2, 4, 2, 32)
    tl = drive(MuddleTimeline(cfg), 2)
    assert tl.trace_lines() == ["1\t2\t1\t0", "2\t2\t1\t1"]


def test_idle_steps_age_jobs_without_spending():
    cfg = MuddleConfig(4, 2, 4, 2, 32)
    tl = MuddleTimeline(cfg)
    baseline = truncated_twin(tl.served.graph, cfg.K, cfg.bits)
    for _ in range(5):
        tl.step(EdgeBatch(()))
        assert tl.trace[-1].served_budget_age <= 1
    assert tl.served.G == baseline
    assert sum(r.delivered for r in tl.trace) >= 4


# -- the shadow scheduler against a literal per-job replay ----------------------


def _next_batch(rng, graph):
    """A random batch: mostly valid, sometimes empty, sometimes rejected."""
    roll = rng.random()
    if roll < 0.15:
        return EdgeBatch(())
    if roll < 0.3:
        u, v = rng.sample(range(graph.n), 2)
        kind = "insert" if graph.has_edge(u, v) else "delete"
        return EdgeBatch(random_batch(rng, graph, 2, min_ops=0).ops + (EdgeOp(kind, u, v),))
    return random_batch(rng, graph, 2)


@settings(max_examples=40, deadline=None)
@given(
    hst.integers(0, 5),
    hst.integers(2, 6),
    hst.integers(1, 3),
    hst.integers(1, 4),
    hst.randoms(use_true_random=False),
)
def test_property_shadow_matches_per_job_replay(latency, n, d, k, rng):
    cfg = MuddleConfig(n, d, k, latency, 32)
    graph = random_graph(rng, n, d, fill=rng.random())
    tl = MuddleTimeline(cfg, graph)
    ref = ReplayTimeline(cfg, graph)
    assert tl.served.F == ref.served.F
    for _ in range(latency + 6):
        batch = _next_batch(rng, tl.served.graph)
        try:
            ref.step(batch)
        except BatchRejected:
            with pytest.raises(BatchRejected):
                tl.step(batch)
        else:
            tl.step(batch)
        assert tl.trace_lines() == ref.trace_lines()
        assert tl.accounting() == ref.rows
        assert tl.served.F == ref.served.F
        assert tl.served.graph == ref.served.graph
        assert tl.served.budget.bits_spent == ref.served.budget.bits_spent

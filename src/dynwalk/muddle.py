"""Pipelined recomputation: fresh answers from a slow exact rebuild.

The served state runs in bits mode and loses one budget bit per batch.
To stop the decay, a recomputation job spawns every step against the
current graph, spends floor(L/2) ticks on its from-scratch rebuild, then
catches up the batches that arrived meanwhile at two per tick.  Arrivals
come one per tick, so the backlog shrinks by one net batch per tick,
empties by age L, and the job delivers at age L exactly.  At most
max(L, 1) jobs are in flight at any time.

A job delivers only once it has replayed every batch since its spawn, so
what it delivers is always the exact state of the current graph.  One
exact shadow state, which takes each batch once as it arrives, therefore
stands in for every job: a job is kept as its spawn clock and backlog
length, which is all the latency model and the accounting read, and a
delivery installs the shadow truncated once to b bits with a fresh
budget.  On a delivery tick the served state skips the batch, since the
delivery replaces it in the same tick.

Steady state has one delivery per step, so the served budget age stays
pinned near one after warmup; the warmup peak is L + ceil(L/2) + 1 spent
bits, which is the freshness bound the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# truncate_to_bits is unused here but stays bound: the layer tracer in
# bench/layers.py wraps muddle.truncate_to_bits by name
from .numerics import PrecisionBudget, truncate_to_bits  # noqa: F401
from .graph import DynGraph, EdgeBatch
from .dyncore import apply_batch, state_from_graph, truncate_rows

__all__ = ["MuddleConfig", "MuddleJob", "TraceRow", "AccountingRow", "MuddleTimeline"]


@dataclass(frozen=True)
class MuddleConfig:
    n: int
    d: int
    K: int
    L: int
    bits: int

    def __post_init__(self):
        if self.L < 0:
            raise ValueError("latency cannot be negative")
        if self.bits < 1:
            raise ValueError("bits mode needs a positive width")
        # warmup peak spend must clear the budget guard, else the served
        # state would hit refusals before the first delivery rescues it
        peak = self.L + _half_up(self.L) + 1
        if peak >= self.bits - PrecisionBudget(self.bits).guard:
            raise ValueError(
                f"latency {self.L} too deep for a {self.bits}-bit budget"
            )

    @property
    def compute_ticks(self) -> int:
        # floor, not ceil: catch-up then drains the backlog by age L on
        # the one-batch-per-tick worst case, keeping at most L jobs alive
        return self.L // 2


def _half_up(x: int) -> int:
    return (x + 1) // 2


@dataclass
class MuddleJob:
    """One in-flight recomputation, as counters.

    backlog is the number of batches that arrived since the spawn and
    that the job has not yet caught up on.  The job's state itself is
    never built: when the backlog is empty it would equal the timeline's
    exact shadow, which is what a delivery installs.
    """

    spawn_time: int
    backlog: int = 0

    def age(self, clock: int) -> int:
        return clock - self.spawn_time


@dataclass(frozen=True)
class TraceRow:
    clock: int
    active_jobs: int
    served_budget_age: int
    delivered: int

    def line(self) -> str:
        return f"{self.clock}\t{self.active_jobs}\t{self.served_budget_age}\t{self.delivered}"


@dataclass(frozen=True)
class AccountingRow:
    clock: int
    active_jobs: int
    backlog_depths: tuple
    budget_remaining: int
    caught_up: int
    delivered: int


class MuddleTimeline:
    """Deterministic single-threaded muddled run."""

    def __init__(self, config: MuddleConfig, graph: DynGraph | None = None):
        self.config = config
        if graph is None:
            graph = DynGraph.empty(config.n, config.d)
        if graph.n != config.n or graph.d != config.d:
            raise ValueError("graph shape disagrees with the configuration")
        self.clock = 0
        self.shadow = state_from_graph(graph, config.K)
        self.served = replace(self.shadow, budget=PrecisionBudget(config.bits))
        self.jobs: list = [MuddleJob(0)]
        self.trace: list = []
        self.rows: list = []

    # -- internals -----------------------------------------------------

    def _deliver(self, shadow):
        b = self.config.bits
        budget = PrecisionBudget(b)
        budget.spend(1)
        return replace(shadow, P=truncate_rows(shadow.P, b), budget=budget)

    # -- the public surface ---------------------------------------------

    def step(self, batch: EdgeBatch) -> "MuddleTimeline":
        """Advance one tick: shadow, catch up, deliver or serve, spawn.

        The shadow takes the batch first, which also validates it.  Every
        job's backlog then grows by the batch (if it is not empty), jobs
        past their compute ticks catch up on up to two backlog batches
        each, and the oldest job with an empty backlog at age L or more
        delivers.  Without a delivery the served state takes the batch
        (one budget bit).  Finally a new job spawns against the now-current
        graph.  A rejected batch raises before the timeline is touched.
        """
        cfg = self.config
        shadow = apply_batch(self.shadow, batch)
        clock = self.clock + 1
        arrived = 1 if len(batch) > 0 else 0
        backlogs = []
        caught_up = 0
        for job in self.jobs:
            backlog = job.backlog + arrived
            if job.age(clock) > cfg.compute_ticks:
                eaten = min(2, backlog)
                backlog -= eaten
                caught_up += eaten
            backlogs.append(backlog)
        done = next(
            (
                i
                for i, (job, backlog) in enumerate(zip(self.jobs, backlogs))
                if backlog == 0 and job.age(clock) >= cfg.L
            ),
            None,
        )
        if done is None:
            self.served = apply_batch(self.served, batch)
        else:
            self.served = self._deliver(shadow)
        self.shadow = shadow
        self.clock = clock
        for job, backlog in zip(self.jobs, backlogs):
            job.backlog = backlog
        if done is not None:
            del self.jobs[done]
        self.jobs.append(MuddleJob(clock))
        delivered = int(done is not None)
        age = self.served.budget.bits_spent
        self.trace.append(TraceRow(clock, len(self.jobs), age, delivered))
        self.rows.append(
            AccountingRow(
                clock=clock,
                active_jobs=len(self.jobs),
                backlog_depths=tuple(j.backlog for j in self.jobs),
                budget_remaining=self.served.budget.remaining,
                caught_up=caught_up,
                delivered=delivered,
            )
        )
        return self

    def accounting(self) -> list:
        """Per-step counters; the freshness tests read these."""
        return list(self.rows)

    def max_budget_age(self) -> int:
        return max((r.served_budget_age for r in self.trace), default=0)

    def trace_lines(self) -> list:
        return [r.line() for r in self.trace]

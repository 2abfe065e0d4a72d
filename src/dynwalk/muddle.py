"""Pipelined recomputation: fresh answers from a slow exact rebuild.

The served state runs in bits mode and loses one budget bit per batch.
To stop the decay, a recomputation job spawns every step: it snapshots
the current graph, spends floor(L/2) ticks on its from-scratch rebuild
(computed eagerly here, embargoed to model the latency), then catches up
the batches that arrived meanwhile at two per tick.  Arrivals come one
per tick, so the backlog shrinks by one net batch per tick, empties by
age L, and the job delivers at age L exactly.  At delivery its state,
which has replayed every batch exactly, is truncated once to b bits and
installed as the served state with a fresh budget.  At most L jobs are
in flight at any time.

Steady state has one delivery per step, so the served budget age stays
pinned near one after warmup; the warmup peak is L + ceil(L/2) + 1 spent
bits, which is the freshness bound the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .numerics import PrecisionBudget, truncate_to_bits
from .poly import UniPoly
from .linalg import PolyMatrix
from .graph import DynGraph, EdgeBatch
from .dyncore import (
    DEFAULT_CASCADE_THRESHOLD,
    DynState,
    apply_batch,
    state_from_graph,
)

__all__ = ["MuddleConfig", "MuddleJob", "TraceRow", "AccountingRow", "MuddleTimeline"]


@dataclass(frozen=True)
class MuddleConfig:
    n: int
    d: int
    K: int
    L: int
    bits: int
    cascade_threshold: int = DEFAULT_CASCADE_THRESHOLD

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
    """One in-flight recomputation.

    state is exact mode: the rebuild and every catch-up batch are exact,
    so the single truncation at delivery is the only precision loss the
    delivered answer ever takes.
    """

    spawn_time: int
    snapshot: DynGraph
    state: DynState
    backlog: list = field(default_factory=list)

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
        self.served = state_from_graph(
            graph,
            config.K,
            mode="bits",
            bits=config.bits,
            cascade_threshold=config.cascade_threshold,
        )
        self.jobs: list = []
        self.trace: list = []
        self.rows: list = []
        self._spawn()

    # -- internals -----------------------------------------------------

    def _spawn(self):
        graph = self.served.graph.copy()
        job_state = state_from_graph(
            graph,
            self.config.K,
            mode="exact",
            cascade_threshold=self.config.cascade_threshold,
        )
        self.jobs.append(MuddleJob(self.clock, graph, job_state))

    def _deliver(self, job: MuddleJob):
        b = self.config.bits
        budget = PrecisionBudget(b)
        budget.spend(1)
        truncated = PolyMatrix(
            [
                [
                    UniPoly([truncate_to_bits(c, b) for c in e.coeffs])
                    for e in row
                ]
                for row in job.state.G.rows
            ]
        )
        self.served = replace(
            job.state,
            mode="bits",
            bits=b,
            G=truncated,
            budget=budget,
        )

    # -- the public surface ---------------------------------------------

    def step(self, batch: EdgeBatch) -> "MuddleTimeline":
        """Advance one tick: serve, catch up, maybe deliver, spawn.

        The order is fixed: the served state eats the batch first (one
        budget bit), active jobs advance and consume up to two backlog
        batches each, the oldest finished job delivers, and a new job
        spawns against the now-current graph.  A rejected batch raises
        before the timeline is touched at all.
        """
        new_served = apply_batch(self.served, batch)
        self.clock += 1
        self.served = new_served
        if len(batch) > 0:
            for job in self.jobs:
                job.backlog.append(batch)
        caught_up = 0
        for job in self.jobs:
            if job.age(self.clock) > self.config.compute_ticks:
                for _ in range(2):
                    if not job.backlog:
                        break
                    pending = job.backlog.pop(0)
                    job.state = apply_batch(job.state, pending)
                    caught_up += 1
        delivered = 0
        for job in self.jobs:
            if (
                job.age(self.clock) >= self.config.L
                and job.age(self.clock) >= self.config.compute_ticks
                and not job.backlog
            ):
                self._deliver(job)
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
                backlog_depths=tuple(len(j.backlog) for j in self.jobs),
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

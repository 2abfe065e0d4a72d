"""Pipelined recomputation: fresh answers from a slow exact rebuild.

The served state runs in bits mode and loses one budget bit per batch.
To stop the decay, a recomputation job spawns every tick against the
current graph, spends floor(L/2) ticks on its from-scratch rebuild, then
catches up the batches that arrived meanwhile at two per tick, and
delivers once it is at least L ticks old with nothing left to replay.

That model has a closed form, which is what the timeline runs.  At most
one batch arrives per tick, so a job's backlog is at most floor(L/2)
when it starts catching up, and from then on it falls by at least one
net batch per tick.  It is empty by age 2 floor(L/2) <= L (the floor is
what makes this hold for odd L), so the job of age L always delivers,
and no younger job ever does.  With lag = max(L, 1), a tick delivers
exactly when its clock is at least lag, and the jobs in flight after it
are those spawned in the last lag ticks.

A job delivers only once it has replayed every batch since its spawn, so
what it delivers is the exact state of the current graph.  One exact
shadow state, which takes each batch once as it arrives, therefore
stands in for every job, and a delivery installs the shadow truncated
once to b bits with a fresh budget.  On a delivery tick the served state
skips the batch, since the delivery replaces it in the same tick.

Before the first delivery the served state spends at most one bit per
tick, so its budget age peaks at max(L - 1, 1); after that every tick
delivers and the age stays at one.  MuddleConfig checks the looser
L + ceil(L/2) + 1 against the budget's guard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# truncate_to_bits is unused here but stays bound: the layer tracer in
# bench/layers.py wraps muddle.truncate_to_bits by name
from .numerics import PrecisionBudget, truncate_to_bits  # noqa: F401
from .graph import DynGraph, EdgeBatch
from .dyncore import apply_batch, state_from_graph
from .packed import truncate_rows

__all__ = ["MuddleConfig", "TraceRow", "MuddleTimeline"]


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
        # the spend bound must clear the budget guard, else the served
        # state could hit refusals before the first delivery rescues it;
        # the budget itself rejects a width below one
        peak = self.L + (self.L + 1) // 2 + 1
        if peak >= self.bits - PrecisionBudget(self.bits).guard:
            raise ValueError(
                f"latency {self.L} too deep for a {self.bits}-bit budget"
            )


@dataclass(frozen=True)
class TraceRow:
    """One step's counters; line() is its trace line."""

    clock: int
    active_jobs: int
    served_budget_age: int
    budget_remaining: int
    delivered: int

    def line(self) -> str:
        return f"{self.clock}\t{self.active_jobs}\t{self.served_budget_age}\t{self.delivered}"


class MuddleTimeline:
    """Deterministic single-threaded muddled run.

    jobs holds the spawn clocks of the jobs in flight.
    """

    def __init__(self, config: MuddleConfig, graph: DynGraph | None = None):
        self.config = config
        if graph is None:
            graph = DynGraph.empty(config.n, config.d)
        if graph.n != config.n or graph.d != config.d:
            raise ValueError("graph shape disagrees with the configuration")
        self.clock = 0
        self.shadow = state_from_graph(graph, config.K)
        self.served = replace(self.shadow, budget=PrecisionBudget(config.bits))
        self.jobs = range(1)
        self.trace: list = []

    def _deliver(self, shadow):
        b = self.config.bits
        return replace(shadow, P=truncate_rows(shadow.P, b), budget=PrecisionBudget(b).spend(1))

    def step(self, batch: EdgeBatch) -> "MuddleTimeline":
        """Advance one tick: shadow, then deliver or serve, then spawn.

        The shadow takes the batch first, which also validates it, so a
        rejected batch raises before the timeline is touched.  From clock
        max(L, 1) on, the oldest job delivers the shadow; before that the
        served state takes the batch (one budget bit).  A new job spawns
        against the now-current graph.
        """
        shadow = apply_batch(self.shadow, batch)
        clock = self.clock + 1
        lag = max(self.config.L, 1)
        delivered = clock >= lag
        self.served = self._deliver(shadow) if delivered else apply_batch(self.served, batch)
        self.shadow = shadow
        self.clock = clock
        self.jobs = range(max(clock - lag + 1, 0), clock + 1)
        budget = self.served.budget
        self.trace.append(
            TraceRow(
                clock=clock,
                active_jobs=len(self.jobs),
                served_budget_age=budget.bits_spent,
                budget_remaining=budget.remaining,
                delivered=int(delivered),
            )
        )
        return self

    def max_budget_age(self) -> int:
        return max((r.served_budget_age for r in self.trace), default=0)

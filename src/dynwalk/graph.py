"""Bounded-degree dynamic graph and its lazy transition matrix.

The graph is undirected, loop-free, with every degree capped by d.  Batches
of edge changes are validated in order and either applied atomically or
rejected at the first offending operation.  Application also reports the
net set of transition-matrix entry deltas, which is what the dynamic
maintenance layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .numerics import Rat
from .linalg import RatMatrix

__all__ = [
    "DynGraph",
    "EdgeOp",
    "EdgeBatch",
    "BatchRejected",
    "lazy_transition",
    "validate_and_apply",
]


def _pair(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


class BatchRejected(Exception):
    """Whole-batch rejection, pointing at the first bad operation."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"batch rejected at op {index}: {reason}")


@dataclass(frozen=True)
class EdgeOp:
    kind: str  # "insert" | "delete"
    u: int
    v: int

    def __post_init__(self):
        if self.kind not in ("insert", "delete"):
            raise ValueError(f"unknown edge operation {self.kind!r}")


@dataclass(frozen=True)
class EdgeBatch:
    """Ordered list of edge operations, evaluated sequentially."""

    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, EdgeOp):
                raise TypeError("batch entries must be EdgeOp")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


@dataclass
class DynGraph:
    """Undirected graph on vertices 0..n-1 with degree bound d.

    The constructor normalises and validates the edge set and counts the
    degrees once, and ``degree`` reads that count, so neither the edge set
    nor the count may be mutated in place; ``validate_and_apply`` builds
    a new graph instead.
    """

    n: int
    d: int
    adjacency: set = field(default_factory=set)
    degrees: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        if self.d < 1:
            raise ValueError("degree bound must be at least one")
        self.adjacency = {(min(u, v), max(u, v)) for (u, v) in self.adjacency}
        self.degrees = degs = [0] * self.n
        for u, v in self.adjacency:
            if u == v:
                raise ValueError("self-loops are not stored")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            degs[u] += 1
            degs[v] += 1
        if degs and max(degs) > self.d:
            raise ValueError("degree bound violated")

    @staticmethod
    def empty(n: int, d: int) -> "DynGraph":
        return DynGraph(n, d, set())

    @staticmethod
    def _unchecked(n: int, d: int, adjacency: set, degrees: list) -> "DynGraph":
        """A graph over a normalised edge set and its degrees, as given."""
        g = DynGraph.__new__(DynGraph)
        g.n, g.d, g.adjacency, g.degrees = n, d, adjacency, degrees
        return g

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _pair(u, v) in self.adjacency

    def edges(self) -> list:
        return sorted(self.adjacency)

    def copy(self) -> "DynGraph":
        return DynGraph._unchecked(self.n, self.d, set(self.adjacency), list(self.degrees))


def lazy_transition(g: DynGraph) -> RatMatrix:
    """The lazy walk matrix: stay put with the leftover probability.

    Off-diagonal entries are 1/(2d) per edge; the diagonal is 1 - d(v)/(2d).
    Symmetric and row-stochastic by construction since every degree is <= d.
    """
    n, d = g.n, g.d
    half = Rat(1, 2 * d)
    rows = [[Rat(0)] * n for _ in range(n)]
    degs = [0] * n
    for u, v in g.adjacency:
        rows[u][v] = half
        rows[v][u] = half
        degs[u] += 1
        degs[v] += 1
    for v in range(n):
        rows[v][v] = 1 - Rat(degs[v], 2 * d)
    return RatMatrix.from_rat_rows(rows)


def validate_and_apply(g: DynGraph, batch: EdgeBatch):
    """Apply a batch sequentially or reject it without touching the graph.

    Returns the new graph plus the net transition-entry deltas as a set of
    (row, col, delta) triples: inserting (u, v) adds 1/(2d) at (u, v) and
    (v, u) and subtracts 1/(2d) from both diagonal entries; deletion is the
    mirror image.  Ops that cancel within the batch produce no deltas.

    Only the batch's vertices and edges are checked: the rest of the
    graph was valid when it was built, so the new graph takes the edge
    set and degree count of the old one with the batch's changes made,
    and is not normalised or validated again.
    """
    adj = set(g.adjacency)
    degs = list(g.degrees)
    half = Rat(1, 2 * g.d)
    net = {}

    def bump(r, c, delta):
        key = (r, c)
        net[key] = net.get(key, Rat(0)) + delta
        if net[key] == 0:
            del net[key]

    for i, op in enumerate(batch):
        u, v = op.u, op.v
        if u == v:
            raise BatchRejected(i, f"self-loop ({u}, {v})")
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise BatchRejected(i, f"vertex out of range in ({u}, {v})")
        e = _pair(u, v)
        if op.kind == "insert":
            if e in adj:
                raise BatchRejected(i, f"edge ({e[0]}, {e[1]}) already present")
            if degs[u] >= g.d:
                raise BatchRejected(i, f"degree bound {g.d} hit at vertex {u}")
            if degs[v] >= g.d:
                raise BatchRejected(i, f"degree bound {g.d} hit at vertex {v}")
            adj.add(e)
            degs[u] += 1
            degs[v] += 1
            bump(u, v, half)
            bump(v, u, half)
            bump(u, u, -half)
            bump(v, v, -half)
        else:
            if e not in adj:
                raise BatchRejected(i, f"edge ({e[0]}, {e[1]}) not present")
            adj.remove(e)
            degs[u] -= 1
            degs[v] -= 1
            bump(u, v, -half)
            bump(v, u, -half)
            bump(u, u, half)
            bump(v, v, half)

    new_graph = DynGraph._unchecked(g.n, g.d, adj, degs)
    deltas = {(r, c, delta) for (r, c), delta in net.items()}
    return new_graph, deltas

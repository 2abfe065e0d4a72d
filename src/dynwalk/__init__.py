"""dynwalk: exact dynamic maintenance of random-walk generating functions.

The package keeps G(x) = sum of (xB)^i up to a truncation degree exactly
up to date while the underlying bounded-degree graph changes in batches
(storing only its n x n half F(z) = sum of (zT)^j, from which G is read),
and answers expansion-testing queries from the maintained coefficients.
Everything is exact rational arithmetic; approximate modes are explicit,
budgeted, and tracked.
"""

from .numerics import Rat, rat, PrecisionBudget, BudgetExhausted
from .poly import UniPoly, EvalGrid, interpolate, divide_monic
from .linalg import RatMatrix, PolyMatrix, charpoly, det_rational_crt, det_poly
from .matpow import power_large, power_sum, small_powers_via_series
from .graph import DynGraph, EdgeBatch, EdgeOp, BatchRejected, lazy_transition
from .dyncore import (
    DynState,
    apply_batch,
    initial_state,
    read_power_entry,
    state_from_graph,
)
from .expander import TesterConfig, Verdict, expansion_query, threshold
from .muddle import MuddleConfig, MuddleTimeline
from .oracle import (
    conductance_bruteforce,
    det_bareiss,
    exact_power_sum,
    second_eigenvalue,
    walk_count_dp,
)

__version__ = "0.1.0"

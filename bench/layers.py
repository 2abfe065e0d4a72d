"""What the traced run wraps, and the per-layer metrics it reports.

Each row of ``trace_table`` names the binding a caller looks a function
up through.  Where two modules hold their own binding of one function
(``from .dyncore import apply_batch`` in muddle, say) both are wrapped
under the function's home name.  Leaves are the hot functions that call
nothing else traced.

Per-function numbers are means per timed update over the traced window;
set-up and warm-up calls are excluded.
"""

from __future__ import annotations

from collections import defaultdict

from dynwalk import dyncore, expander, linalg, matpow, muddle
from dynwalk.linalg import PolyMatrix
from dynwalk.poly import UniPoly

from tracing import Tracer

STEP = "muddle.MuddleTimeline.step"


def _bits(m: PolyMatrix):
    num = den = 0
    for row in m.rows:
        for e in row:
            for c in e.coeffs:
                num = max(num, abs(c.numerator).bit_length())
                den = max(den, c.denominator.bit_length())
    return num, den


class LayerProbe:
    """Traced-run hooks: wrapper counters, batch ids, post-update samples."""

    def __init__(self, tracer: Tracer, workload):
        self.tracer = tracer
        self.workload = workload
        self.counts = defaultdict(int)
        self.pending_folds = []
        self.num_bits = self.den_bits = 0
        self.bits_spent_max = self.jobs_max = 0

    # -- wrapper hooks, called only for timed updates ----------------------

    def _gadget(self, tr, args):
        state, gadget = args
        if gadget.is_empty():
            return
        self.counts["gadgets"] += 1
        self.counts["gadget_size_max"] = max(self.counts["gadget_size_max"], gadget.size)
        if gadget.size > state.cascade_threshold:
            self.counts["gadgets_cascade"] += 1

    def _apply(self, tr, args):
        if args[0].mode == "exact" and tr.parent_name() == STEP:
            self.counts["exact_applies"] += 1

    def _rebuild(self, tr, args):
        if tr.parent_name() == STEP:
            self.counts["step_rebuilds"] += 1

    def _add(self, tr, args, result):
        a = args[0]
        self.counts["add_entries"] += a.nrows * a.ncols
        if tr.parent_name() == "dyncore.apply_gadget":
            # compared in after(), outside every timer
            self.pending_folds.append((a, result))

    def _mul_mod_deg(self, tr, args, result):
        if tr.parent_name() == "linalg.PolyMatrix.mul":
            self.counts["entry_products"] += 1

    def _truncate(self, tr, args, result):
        if result != args[0]:
            self.counts["truncate_changed"] += 1

    def trace_table(self):
        """(owner, attribute, name, kind, hook) for every wrapped binding."""
        S, L = "span", "leaf"
        return [
            (dyncore, "apply_batch", "dyncore.apply_batch", S, None),
            (muddle, "apply_batch", "dyncore.apply_batch", S, self._apply),
            (dyncore, "state_from_graph", "dyncore.state_from_graph", S, None),
            (muddle, "state_from_graph", "dyncore.state_from_graph", S, self._rebuild),
            (dyncore, "apply_gadget", "dyncore.apply_gadget", S, self._gadget),
            (dyncore, "build_delta_gadgets", "dyncore.build_delta_gadgets", S, None),
            (dyncore, "validate_and_apply", "graph.validate_and_apply", S, None),
            (dyncore, "exact_power_sum", "oracle.exact_power_sum", S, None),
            (matpow, "power_sum", "matpow.power_sum", S, None),
            (matpow, "power_large", "matpow.power_large", S, None),
            (matpow, "small_powers_via_series", "matpow.small_powers_via_series", S, None),
            (matpow, "charpoly", "linalg.charpoly", S, None),
            (matpow, "det_poly", "linalg.det_poly", S, None),
            (linalg, "det_poly", "linalg.det_poly", S, None),
            (matpow, "divide_monic", "poly.divide_monic", S, None),
            (PolyMatrix, "mul", "linalg.PolyMatrix.mul", S, None),
            (expander, "expansion_query", "expander.expansion_query", S, None),
            (muddle.MuddleTimeline, "step", STEP, S, None),
            (linalg, "det_rational_crt", "linalg.det_rational_crt", L, None),
            (matpow, "interpolate", "poly.interpolate", L, None),
            (linalg, "interpolate", "poly.interpolate", L, None),
            (PolyMatrix, "add", "linalg.PolyMatrix.add", L, self._add),
            (UniPoly, "mul_mod_deg", "poly.UniPoly.mul_mod_deg", L, self._mul_mod_deg),
            (dyncore, "truncate_to_bits", "numerics.truncate_to_bits", L, self._truncate),
            (muddle, "truncate_to_bits", "numerics.truncate_to_bits", L, self._truncate),
            (dyncore, "read_power_entry", "dyncore.read_power_entry", L, None),
            (expander, "read_power_entry", "dyncore.read_power_entry", L, None),
        ]

    # -- loop hooks -------------------------------------------------------

    def begin(self, batch_id: int):
        self.tracer.batch = batch_id
        self.pending_folds.clear()

    def after(self, system):
        if self.tracer.batch <= 0:
            return
        for old, new in self.pending_folds:
            self.counts["fold_entries"] += old.nrows * old.ncols
            self.counts["fold_changed"] += sum(
                a != b for ra, rb in zip(old.rows, new.rows) for a, b in zip(ra, rb)
            )
        self.pending_folds.clear()
        state = self.workload.served(system)
        num, den = _bits(state.G)
        self.num_bits = max(self.num_bits, num)
        self.den_bits = max(self.den_bits, den)
        if state.budget is not None:
            self.bits_spent_max = max(self.bits_spent_max, state.budget.bits_spent)
        if self.workload.muddled:
            self.jobs_max = max(self.jobs_max, len(system.jobs))


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(probe: LayerProbe, updates: int, overhead_frac: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    tr = probe.tracer
    # name -> (calls, total_ns, self_ns); a leaf calls nothing traced, so
    # its self time is its total
    table = {name: (n, ns, ns) for name, (n, ns) in tr.leaves.items()}
    table.update(tr.span_totals())
    c = probe.counts
    per = 1 / updates
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (table.get(name, (0,))[0] * per, "calls/update")

    def ms(name, which):
        ns = table.get(name, (0, 0, 0))[2 if which == "self_ms" else 1]
        out[f"{name}.{which}"] = (ns / 1e6 * per, "ms/update")

    for name in (
        "dyncore.apply_gadget", "linalg.PolyMatrix.add", "linalg.PolyMatrix.mul",
        "matpow.power_sum", "matpow.power_large", "matpow.small_powers_via_series",
        "linalg.charpoly", "linalg.det_poly", "linalg.det_rational_crt",
        "poly.divide_monic", "poly.interpolate", "oracle.exact_power_sum",
        "graph.validate_and_apply",
    ):
        calls(name)
        ms(name, "self_ms")
    for name in (
        "poly.UniPoly.mul_mod_deg", "dyncore.state_from_graph",
        "numerics.truncate_to_bits", "expander.expansion_query",
    ):
        calls(name)
        ms(name, "total_ms")
    calls("dyncore.read_power_entry")
    ms("dyncore.build_delta_gadgets", "self_ms")
    ms(STEP, "total_ms")

    steps = table.get(STEP, (0,))[0]
    out.update({
        "linalg.PolyMatrix.add.entries": (c["add_entries"] * per, "entries/update"),
        "linalg.PolyMatrix.mul.entry_products": (c["entry_products"] * per, "products/update"),
        "dyncore.fold.changed_frac": (_ratio(c["fold_changed"], c["fold_entries"]), "ratio"),
        "dyncore.gadget.size_max": (c["gadget_size_max"], "count"),
        "dyncore.gadget.cascade_frac": (_ratio(c["gadgets_cascade"], c["gadgets"]), "ratio"),
        "muddle.exact_applies_per_step": (_ratio(c["exact_applies"], steps), "calls/step"),
        "muddle.rebuilds_per_step": (_ratio(c["step_rebuilds"], steps), "calls/step"),
        "muddle.jobs_in_flight_max": (probe.jobs_max, "count"),
        "numerics.truncate.changed_frac": (
            _ratio(c["truncate_changed"], table["numerics.truncate_to_bits"][0]), "ratio"),
        "numerics.budget.bits_spent_max": (probe.bits_spent_max, "bits"),
        "dyncore.G.max_num_bits": (probe.num_bits, "bits"),
        "dyncore.G.max_den_bits": (probe.den_bits, "bits"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return out

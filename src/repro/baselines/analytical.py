"""Pure analytical (worst-case) refinement baseline.

Models the interpolative/analytical approach of Willems et al. (1997),
the paper's reference [3]: wordlengths are derived from the *structure*
of the design alone.

* **MSB**: interval propagation over the traced signal flow graph seeded
  with the declared input ranges — sound but conservative, and feedback
  must be cut by declared ranges to avoid infinite results.
* **LSB**: worst-case error-bound propagation over the same graph: each
  quantized input contributes half an LSB of error; every operator maps
  operand error bounds to an output error bound using the operand ranges
  (``|d(a*b)| <= |a||db| + |b||da|``).  Each signal's LSB is then chosen
  so its own rounding error does not exceed the incoming worst-case
  error — the analytical analogue of the paper's ``2**l <= k_w sigma``.

No simulation values are used anywhere, which is precisely why the
result overestimates: the bench compares bits against the hybrid flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import word
from repro.core.dtype import DType
from repro.core.errors import RefinementError
from repro.core.interval import Interval
from repro.sfg.analyze import propagate_ranges
from repro.sfg.build import record_design

__all__ = ["AnalyticalRefiner", "AnalyticalResult", "propagate_error_bounds"]


@dataclass
class AnalyticalResult:
    types: dict
    ranges: dict
    error_bounds: dict
    exploded: list

    def total_bits(self):
        return sum(dt.n for dt in self.types.values())


def _op_error_bound(label, in_errs, in_ranges):
    """Worst-case |output error| from operand error bounds and ranges."""
    if any(math.isinf(e) for e in in_errs):
        return math.inf
    if label in ("add", "sub"):
        return in_errs[0] + in_errs[1]
    if label == "mul":
        def term(mag, err):
            if err == 0.0:
                return 0.0
            return mag * err
        a = in_ranges[0].max_abs
        b = in_ranges[1].max_abs
        return (term(a, in_errs[1]) + term(b, in_errs[0])
                + term(in_errs[0], in_errs[1]))
    if label == "div":
        num = in_ranges[0].max_abs
        den = in_ranges[1]
        dmin = min(abs(den.lo), abs(den.hi))
        if den.contains(0.0) or dmin == 0.0:
            return math.inf
        return (in_errs[0] + num * in_errs[1] / dmin) / dmin
    if label in ("neg", "abs"):
        return in_errs[0]
    if label in ("min", "max"):
        return max(in_errs[0], in_errs[1])
    if label in ("gt", "ge", "lt", "le"):
        # Uniform control: both tracks take the same branch, so the
        # decision itself carries no difference error.
        return 0.0
    if label == "select":
        return max(in_errs[-2], in_errs[-1])
    if label.startswith("shl"):
        return in_errs[0] * (2.0 ** int(label[3:]))
    if label.startswith("shr"):
        return in_errs[0] * (2.0 ** -int(label[3:]))
    if label.startswith("cast<"):
        return in_errs[0]  # the cast's own rounding is assigned later
    raise RefinementError("no error model for traced op %r" % label)


def propagate_error_bounds(sfg, ranges, input_errors, max_rounds=60,
                           growth_cut=1e6, node_ranges=None):
    """Fixpoint worst-case error propagation over the flow graph.

    ``input_errors`` maps input signal names to their absolute error
    bound (half an LSB of their quantization).  Feedback loops that keep
    amplifying the bound are cut at ``growth_cut`` and reported as
    infinite (the analytical method cannot bound them).
    """
    order = sfg.condensed_order()
    errs = {}
    for node in order:
        errs[node] = 0.0

    node_ranges = node_ranges or {}

    def node_range(node):
        if node in node_ranges and not node_ranges[node].is_empty:
            return node_ranges[node]
        if node.kind == "const":
            return Interval.point(node.payload)
        if node.kind in ("sig", "reg"):
            return ranges.get(node.label, Interval.full())
        return Interval.full()

    # Cache op input ranges through a value propagation identical to the
    # range analysis (ranges for signals come from the caller).
    op_ranges = {}
    for node in order:
        if node.kind == "op":
            op_ranges[node] = [node_range(p) for p in sfg.preds(node)]

    for _ in range(max_rounds):
        changed = False
        for node in order:
            if node.kind == "const":
                continue
            if node.kind == "op":
                ins = [errs[p] for p in sfg.preds(node)]
                new = _op_error_bound(node.label, ins, op_ranges[node])
            else:
                if node.label in input_errors:
                    new = float(input_errors[node.label])
                else:
                    preds = sfg.preds(node)
                    new = max((errs[p] for p in preds), default=0.0)
            if new > growth_cut:
                new = math.inf
            if new != errs[node]:
                errs[node] = new
                changed = True
        if not changed:
            break
    return {n.label: errs[n] for n in sfg.signal_nodes()}


class AnalyticalRefiner:
    """Derives fixed-point types from structure alone (no simulation)."""

    def __init__(self, design_factory, input_types, input_ranges,
                 declared_ranges=None, trace_samples=4, k_w=2.0,
                 max_frac_bits=24, seed=1234):
        self.factory = design_factory
        self.input_types = dict(input_types)
        self.input_ranges = dict(input_ranges)
        self.declared_ranges = dict(declared_ranges or {})
        self.trace_samples = trace_samples
        self.k_w = float(k_w)
        self.max_frac_bits = int(max_frac_bits)
        self.seed = seed

    def run(self):
        sfg, _ = record_design(self.factory, self.trace_samples,
                               seed=self.seed)
        analysis = propagate_ranges(
            sfg, input_ranges=self.input_ranges,
            forced_ranges=self.declared_ranges)

        # Worst-case input errors: half an LSB of each input type.
        input_errors = {name: 0.5 * dt.eps
                        for name, dt in self.input_types.items()}
        bounds = propagate_error_bounds(sfg, analysis.ranges, input_errors,
                                        node_ranges=analysis.node_ranges)

        types = {}
        for name, iv in analysis.ranges.items():
            if name in self.input_types:
                continue
            if iv.is_empty or not iv.is_finite:
                continue  # unresolvable analytically (reported as exploded)
            msb = word.required_msb(iv.lo, iv.hi)
            if msb is None:
                msb = 0
            bound = bounds.get(name, 0.0)
            if bound <= 0.0 or math.isinf(bound):
                f = self.max_frac_bits
            else:
                # Worst-case analogue of the paper's LSB rule: the
                # rounding step must stay below the incoming error bound.
                f = max(0, min(self.max_frac_bits,
                               -int(math.floor(math.log2(self.k_w * bound)))))
            f = max(f, -msb)
            types[name] = DType("%s_t" % name, msb + f + 1, f, "tc",
                                "saturate", "round")
        return AnalyticalResult(types, analysis.ranges, bounds,
                                analysis.exploded)

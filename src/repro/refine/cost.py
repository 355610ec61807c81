"""Hardware cost estimation for refined designs.

The paper's refinement rules trade quality for hardware cost: fewer
bits mean narrower adders/multipliers, saturation logic is extra
hardware that case-a signals avoid, and floor-type rounding "leads to a
cheaper hardware implementation" than round-type (which needs an
increment adder per quantization point).  This module turns a traced
signal flow graph plus a type assignment into a datapath cost estimate
so those trade-offs can be quantified (see bench_floor_vs_round and the
k_w ablation).

The model is the standard first-order ASIC estimate:

* ripple adder / subtractor: ``n`` full-adder cells,
* array multiplier: ``n_a * n_b`` cells,
* mux / comparator / abs / negate: ``n`` cells,
* register: ``n`` flip-flops,
* round-type quantization: an ``n``-bit increment adder (floor: free),
* saturation: an ``n``-bit clamp (wrap: free).

Cell weights are configurable; the defaults count "unit cells" so
relative comparisons are technology-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import DesignError

__all__ = ["CostWeights", "CostReport", "estimate_cost"]


@dataclass(frozen=True)
class CostWeights:
    """Relative area of one bit of each resource."""

    adder: float = 1.0
    multiplier: float = 1.0
    mux: float = 0.6
    comparator: float = 0.8
    register: float = 1.2
    rounding: float = 1.0
    saturation: float = 1.5


@dataclass
class CostReport:
    """Bit counts per resource class plus the weighted total."""

    adder_bits: int = 0
    multiplier_cells: int = 0
    mux_bits: int = 0
    comparator_bits: int = 0
    register_bits: int = 0
    rounding_bits: int = 0
    saturation_bits: int = 0
    by_signal: dict = field(default_factory=dict)

    def total(self, weights=CostWeights()):
        return (weights.adder * self.adder_bits
                + weights.multiplier * self.multiplier_cells
                + weights.mux * self.mux_bits
                + weights.comparator * self.comparator_bits
                + weights.register * self.register_bits
                + weights.rounding * self.rounding_bits
                + weights.saturation * self.saturation_bits)

    def table(self):
        rows = [
            ("adder bits", self.adder_bits),
            ("multiplier cells", self.multiplier_cells),
            ("mux bits", self.mux_bits),
            ("comparator bits", self.comparator_bits),
            ("register bits", self.register_bits),
            ("rounding bits", self.rounding_bits),
            ("saturation bits", self.saturation_bits),
            ("weighted total", "%.1f" % self.total()),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join("%-*s %s" % (width, k, v) for k, v in rows)


def _quantization_cost(src_dt, dst_dt):
    """(rounding_bits, saturation_bits) of one assignment."""
    rounding = 0
    if dst_dt.lsbspec == "round" and src_dt.f > dst_dt.f:
        rounding = dst_dt.n  # increment adder at the target width
    saturation = dst_dt.n if dst_dt.msbspec in ("saturate", "error") else 0
    return rounding, saturation


def estimate_cost(sfg, types, inputs=(), outputs=()):
    """Estimate datapath cost of ``sfg`` realized with ``types``."""
    from repro.hdl.netlist import build_netlist

    netlist = build_netlist(sfg, types, inputs, outputs)
    report = CostReport()

    for op in netlist.ops.values():
        n = op.dtype.n
        label = op.label
        if label in ("add", "sub"):
            report.adder_bits += n
        elif label == "mul":
            widths = [netlist.dtype_of(p).n for p in op.operands]
            report.multiplier_cells += widths[0] * widths[1]
        elif label == "select":
            report.mux_bits += n
        elif label in ("gt", "ge", "lt", "le"):
            widths = [netlist.dtype_of(p).n for p in op.operands]
            report.comparator_bits += max(widths)
        elif label in ("neg", "abs", "min", "max"):
            report.adder_bits += n
        elif label.startswith(("shl", "shr", "cast<")):
            pass  # wiring only (casts are costed at the assignment)
        else:
            raise DesignError("no cost model for traced op %r" % label)

    for net in netlist.nets.values():
        per_signal = 0.0
        if net.is_register:
            report.register_bits += net.dtype.n
            per_signal += net.dtype.n
        if net.driver is not None and not net.is_input:
            src_dt = netlist.dtype_of(net.driver)
            rounding, saturation = _quantization_cost(src_dt, net.dtype)
            report.rounding_bits += rounding
            report.saturation_bits += saturation
            per_signal += rounding + saturation
        report.by_signal[net.name] = per_signal
    return report

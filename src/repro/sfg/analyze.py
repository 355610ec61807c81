"""Analytical range propagation over a signal flow graph.

This is the paper's third MSB method: propagate value ranges through the
*structure* of the design (no simulation values involved), using the same
interval arithmetic as the quasi-analytical method.  Feedback loops are
handled by fixpoint iteration with widening: a range that keeps growing
is driven to infinity, which the refinement rules then classify as MSB
explosion — the cue for a ``range()`` annotation or a saturating type.
"""

from __future__ import annotations

from repro.core.errors import RangeDivergenceError
from repro.core.interval import Interval, eval_op

__all__ = ["propagate_ranges", "RangeAnalysis"]


class RangeAnalysis:
    """Result of :func:`propagate_ranges`."""

    def __init__(self, ranges, exploded, rounds, converged,
                 node_ranges=None, diverged=None, first_diverged=None):
        #: dict signal name -> Interval
        self.ranges = ranges
        #: dict Node -> Interval (every graph node, incl. op nodes)
        self.node_ranges = node_ranges or {}
        #: names whose range is unbounded after widening
        self.exploded = exploded
        #: fixpoint rounds executed
        self.rounds = rounds
        #: True when a fixpoint was reached
        self.converged = converged
        #: dict signal name -> fixpoint round at which its interval first
        #: became unbounded (divergence attribution)
        self.diverged = diverged or {}
        #: name of the signal that diverged first (None when bounded) —
        #: the actionable location for a range() annotation
        self.first_diverged = first_diverged

    def msb(self, name, signed=True):
        """Required MSB position of a signal (None/inf per interval)."""
        from repro.core import word
        iv = self.ranges[name]
        if iv.is_empty:
            return None
        return word.required_msb(iv.lo, iv.hi, signed=signed)

    def __repr__(self):
        return ("RangeAnalysis(%d signals, %d exploded, rounds=%d, "
                "converged=%s)" % (len(self.ranges), len(self.exploded),
                                   self.rounds, self.converged))


def _signal_constraint(sfg, node, input_ranges, forced_ranges, clip_ranges):
    """(seed, forced, clip) intervals applicable to a signal node."""
    name = node.label
    seed = input_ranges.get(name)
    forced = forced_ranges.get(name)
    clip = clip_ranges.get(name)
    sig = sfg.sig_payload(name)
    if sig is not None:
        if forced is None and getattr(sig, "forced_range", None) is not None:
            forced = sig.forced_range
        dt = getattr(sig, "dtype", None)
        if clip is None and dt is not None and dt.msbspec == "saturate":
            clip = dt.range_interval()
    return seed, forced, clip


def propagate_ranges(sfg, input_ranges=None, forced_ranges=None,
                     clip_ranges=None, max_rounds=100, widen_after=16,
                     raise_on_explosion=False):
    """Fixpoint interval propagation over ``sfg``.

    Parameters
    ----------
    input_ranges:
        Seed ranges for primary inputs, by signal name.  A seeded signal's
        own drivers (if any) are ignored — it is treated as an input.
    forced_ranges:
        Per-signal ``range()``-style overrides (freeze propagation).
        Annotations found on traced signal objects are honoured as well.
    clip_ranges:
        Per-signal saturation ranges (propagated value is clipped, not
        frozen).  Saturating dtypes on traced signals are honoured too.
    widen_after:
        Rounds of plain iteration before the widening operator kicks in.
    raise_on_explosion:
        Raise :class:`~repro.core.errors.RangeDivergenceError` naming the
        first diverged signal instead of returning an exploded result.
    """
    input_ranges = dict(input_ranges or {})
    forced_ranges = {k: Interval.coerce(v)
                     for k, v in (forced_ranges or {}).items()}
    clip_ranges = {k: Interval.coerce(v)
                   for k, v in (clip_ranges or {}).items()}
    for k, v in list(input_ranges.items()):
        input_ranges[k] = Interval.coerce(v)

    order = sfg.condensed_order()
    values = {}
    for node in order:
        if node.kind == "const":
            values[node] = Interval.point(node.payload)
        else:
            values[node] = Interval()

    sig_nodes = [n for n in order if n.kind in ("sig", "reg")]

    def eval_node(node):
        if node.kind == "const":
            return values[node]
        preds = sfg.preds(node)
        if node.kind == "op":
            ins = [values[p] for p in preds]
            return eval_op(node.label, ins)
        # Signal node: union of assigned drivers.
        seed, forced, clip = _signal_constraint(sfg, node, input_ranges,
                                                forced_ranges, clip_ranges)
        if forced is not None:
            return forced
        if seed is not None:
            return seed
        if node.kind == "reg":
            # Registers power up at a known value, which seeds the
            # fixpoint iteration through feedback loops.
            init = getattr(sfg.sig_payload(node.label), "init_value",
                           0.0) or 0.0
            acc = Interval.point(init)
        else:
            acc = Interval()
        for p in preds:
            acc = acc.union(values[p])
        if acc.is_empty and not preds:
            # Driverless signal (e.g. a constant coefficient assigned
            # before tracing started): its held value is part of the
            # source description, so seed the analysis with it.
            sig = sfg.sig_payload(node.label)
            if sig is not None:
                acc = sig.read_interval()
        if clip is not None and not acc.is_empty:
            acc = acc.clip(clip)
        return acc

    converged = False
    rounds = 0
    diverged = {}
    for rounds in range(1, max_rounds + 1):
        changed = False
        for node in order:
            if node.kind == "const":
                continue
            new = eval_node(node)
            if node.kind in ("sig", "reg") and rounds > widen_after:
                new = values[node].widen_to(new)
            if new != values[node]:
                values[node] = new
                changed = True
                # Divergence attribution: remember the round each signal
                # first left the finite lattice (widening or an
                # inherently unbounded op such as a zero-crossing
                # division).  The topological sweep order makes the
                # within-round order deterministic.
                if (node.kind in ("sig", "reg")
                        and not new.is_empty and not new.is_finite
                        and node.label not in diverged):
                    diverged[node.label] = rounds
        if not changed:
            converged = True
            break

    ranges = {n.label: values[n] for n in sig_nodes}
    exploded = sorted(name for name, iv in ranges.items()
                      if not iv.is_empty and not iv.is_finite)
    topo_pos = {n.label: i for i, n in enumerate(order)
                if n.kind in ("sig", "reg")}
    first = None
    if exploded:
        # First by round, then by topological position within the round.
        first = min(exploded,
                    key=lambda n: (diverged.get(n, rounds + 1),
                                   topo_pos.get(n, len(order))))
        if raise_on_explosion:
            raise RangeDivergenceError(
                "range propagation diverged at signal %r (fixpoint round "
                "%d; %d signal(s) unbounded: %s) — add a range() "
                "annotation or a saturating type on the feedback path"
                % (first, diverged.get(first, rounds), len(exploded),
                   ", ".join(exploded)),
                signal=first, round=diverged.get(first), signals=exploded)
    return RangeAnalysis(ranges, exploded, rounds, converged,
                         node_ranges=dict(values), diverged=diverged,
                         first_diverged=first)

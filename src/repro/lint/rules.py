"""The paper-grounded lint rules FX001–FX009.

Every rule works purely on the traced graph structure, the declared
types/annotations and the analytical range propagation — never on
simulated values.  Each has a triggering fixture and a clean twin in
``tests/test_lint.py``, and is documented with a minimal example in
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.core import word
from repro.core.dtype import DType
from repro.lint.core import Rule, register_rule
from repro.sfg.graph import SFG


def _protecting_annotations(lctx, cycle):
    """Range annotations / saturating elements present on a cycle.

    The paper's two remedies for MSB explosion are an explicit
    ``range()`` annotation and a saturating type; a saturating ``cast``
    on the feedback path clips the iteration just the same.
    """
    names = SFG.cycle_signal_names(cycle)
    has_range = any(n in lctx.forced for n in names)
    has_sat = any(lctx.dtype(n) is not None
                  and lctx.dtype(n).msbspec == "saturate" for n in names)
    for node in cycle:
        if node.kind == "op":
            dt = DType.from_cast_label(node.label)
            if dt is not None and dt.msbspec == "saturate":
                has_sat = True
    return has_range, has_sat


def _on_unprotected_exploded_cycle(lctx, name):
    """True when ``name`` exploded on a cycle without any remedy."""
    if name not in lctx.analysis.exploded:
        return False
    for cycle in lctx.cycles:
        if name in SFG.cycle_signal_names(cycle):
            has_range, has_sat = _protecting_annotations(lctx, cycle)
            if not has_range and not has_sat:
                return True
    return False


@register_rule
class MsbExplosionRule(Rule):
    """FX001 — feedback cycle whose range propagation widens to infinity."""

    id = "FX001"
    title = "msb-explosion"
    severity = "error"
    description = ("A feedback cycle's analytical range propagation "
                   "widens to infinity and no range() annotation or "
                   "saturating type/cast breaks the growth: the signal "
                   "has no finite MSB position.")
    hint = ("annotate one cycle signal with range(lo, hi) or give it a "
            "saturating dtype")

    def check(self, lctx):
        reported = set()
        analysis = lctx.analysis
        for cycle in lctx.cycles:
            names = SFG.cycle_signal_names(cycle)
            exploded = [n for n in names if n in analysis.exploded]
            if not exploded:
                continue
            has_range, has_sat = _protecting_annotations(lctx, cycle)
            if has_range or has_sat:
                continue
            anchor = (analysis.first_diverged
                      if analysis.first_diverged in names else exploded[0])
            if anchor in reported:
                continue
            reported.add(anchor)
            first_round = analysis.diverged.get(anchor)
            yield self.finding(
                "MSB explosion on feedback cycle through %s: range of %r "
                "is unbounded after fixpoint iteration%s"
                % (" -> ".join(names), anchor,
                   "" if first_round is None
                   else " (diverged in round %d)" % first_round),
                signal=anchor, cycle=names, site=lctx.site(anchor),
                round=first_round)


@register_rule
class DeclaredRangeOverflowRule(Rule):
    """FX002 — declared range narrower than the propagated range."""

    id = "FX002"
    title = "declared-range-overflow"
    severity = "error"
    description = ("The analytically propagated range exceeds the "
                   "declared dtype's representable range and the type "
                   "wraps (or errors) on overflow: assignments can "
                   "silently wrap around.")

    def check(self, lctx):
        for name, node, dt in lctx.typed_signals():
            if dt.msbspec == "saturate":
                continue          # clipping is the declared intent
            prop = lctx.prop(name)
            if prop is None or prop.is_empty:
                continue
            if _on_unprotected_exploded_cycle(lctx, name):
                continue          # FX001 already owns this hazard
            if prop.issubset(dt.range_interval()):
                continue
            if prop.is_finite:
                req = word.required_msb(min(prop.lo, 0.0), prop.hi)
                hint = ("widen to %d integer bit(s) (n=%d at f=%d) or "
                        "use a saturating mode"
                        % (req, word.wordlength_for_msb(req, dt.f), dt.f))
            else:
                hint = ("bound the signal with range(lo, hi) before "
                        "sizing the type")
            # Wrap corrupts silently (error severity); error-mode types
            # at least abort the simulation at runtime (warning).
            default = "error" if dt.msbspec == "wrap" else "warning"
            f = self.finding(
                "propagated range [%g, %g] exceeds declared %s range "
                "[%g, %g]%s"
                % (prop.lo, prop.hi, dt.spec(), dt.min_value, dt.max_value,
                   " — wrap mode corrupts silently"
                   if dt.msbspec == "wrap" else
                   " — error mode will abort the simulation"),
                hint=hint, signal=name, site=lctx.site(name))
            yield type(f)(f.rule_id,
                          self.config.severity_of(self.id, default),
                          f.message, f.hint, f.signal, f.cycle, f.site,
                          f.data)


@register_rule
class WordlengthWasteRule(Rule):
    """FX003 — integer bits provably dead given the propagated range."""

    id = "FX003"
    title = "wordlength-waste"
    severity = "warning"
    description = ("The declared MSB position exceeds what the "
                   "analytically propagated range requires by at least "
                   "``min_dead_bits`` (default 2): the top integer bits "
                   "can provably never be exercised.")
    hint = "shrink the type with DType.from_range(...)"

    def check(self, lctx):
        min_dead = self.option("min_dead_bits", 2)
        for name, node, dt in lctx.typed_signals():
            prop = lctx.prop(name)
            if prop is None or prop.is_empty or not prop.is_finite:
                continue
            if not dt.covers(prop):
                continue          # overflow hazard: FX002's domain
            req = word.required_msb(prop.lo, prop.hi, signed=dt.signed)
            if req is None:       # provably always zero
                req = -dt.f
            dead = dt.msb - req
            if dead < min_dead:
                continue
            yield self.finding(
                "%d of %d integer bit(s) of %s are provably dead: "
                "propagated range [%g, %g] needs msb=%s, declared msb=%d"
                % (dead, dt.msb + (1 if dt.signed else 0), dt.spec(),
                   prop.lo, prop.hi, req, dt.msb),
                signal=name, site=lctx.site(name), dead_bits=dead)


@register_rule
class PrecisionHazardRule(Rule):
    """FX004 — double rounding through a cast chain / excess discard."""

    id = "FX004"
    title = "precision-hazard"
    severity = "warning"
    description = ("A rounding cast feeds another, coarser rounding "
                   "quantization (double rounding differs from a single "
                   "rounding to the final grid), or an assignment "
                   "discards far more exactly-known fractional bits "
                   "than the declared LSB budget.")

    def check(self, lctx):
        sfg = lctx.sfg
        max_discard = self.option("max_frac_discard", 8)
        for node in sfg.nodes("op"):
            dt_in = DType.from_cast_label(node.label)
            if dt_in is None or dt_in.lsbspec != "round":
                continue
            for succ in sfg.succs(node):
                if succ.kind == "op":
                    dt_out = DType.from_cast_label(succ.label)
                    if (dt_out is not None and dt_out.f < dt_in.f
                            and dt_out.lsbspec == "round"):
                        anchor = _assigned_signal(sfg, succ)
                        yield self.finding(
                            "cast chain rounds twice: %s then %s — the "
                            "result can differ from rounding once to "
                            "f=%d" % (node.label, succ.label, dt_out.f),
                            hint="cast directly to the final format",
                            signal=anchor,
                            site=None if anchor is None
                            else lctx.site(anchor))
                elif succ.kind in ("sig", "reg"):
                    dt_sig = lctx.dtype(succ.label)
                    if (dt_sig is not None and dt_sig.f < dt_in.f
                            and dt_sig.lsbspec == "round"):
                        yield self.finding(
                            "cast %s rounds to f=%d, then assignment to "
                            "%r rounds again to f=%d (double rounding)"
                            % (node.label, dt_in.f, succ.label, dt_sig.f),
                            hint=("assign the unrounded expression or "
                                  "cast straight to f=%d" % dt_sig.f),
                            signal=succ.label, site=lctx.site(succ.label))
        # Excess-discard check: assignments throwing away far more
        # exactly-known fractional bits than the type's LSB budget.
        for name, node, dt in lctx.typed_signals():
            for drv in sfg.preds(node):
                f_in = lctx.frac_bits(drv)
                if f_in is None:
                    continue
                lost = dt.discarded_frac_bits(f_in)
                if lost > max_discard:
                    yield self.finding(
                        "assignment to %r discards %d exactly-known "
                        "fractional bit(s) (expression grid f=%d, "
                        "declared f=%d)" % (name, lost, f_in, dt.f),
                        hint=("raise f or quantize upstream operands "
                              "first"),
                        signal=name, site=lctx.site(name), lost_bits=lost)


@register_rule
class UndrivenRegRule(Rule):
    """FX005 — register read but never driven in the traced graph."""

    id = "FX005"
    title = "undriven-reg"
    severity = "warning"
    description = ("A Reg is read by the design but no assignment ever "
                   "drives it: it holds its power-on value forever, "
                   "which is almost always a missing statement.")
    hint = "drive the register, or declare the constant as a Sig"

    def check(self, lctx):
        sfg = lctx.sfg
        for node in sfg.nodes("reg"):
            name = node.label
            if name in lctx.inputs or name in lctx.forced:
                continue          # deliberately treated as an input
            if sfg.in_degree(node) == 0 and sfg.out_degree(node) > 0:
                sig = sfg.sig_payload(name)
                init = getattr(sig, "init_value", 0.0)
                yield self.finding(
                    "register %r is read but never driven; every read "
                    "returns the power-on value %g" % (name, init),
                    signal=name, site=lctx.site(name))


@register_rule
class DeadSignalRule(Rule):
    """FX006 — dead or write-only signal."""

    id = "FX006"
    title = "dead-signal"
    severity = "warning"
    description = ("A signal is assigned but nothing in the traced "
                   "graph ever reads it (and it is not a declared "
                   "output): dead hardware after synthesis.")
    hint = "read the signal, declare it as an output, or remove it"

    def check(self, lctx):
        sfg = lctx.sfg
        for node in sfg.signal_nodes():
            name = node.label
            if name in lctx.outputs:
                continue
            if sfg.in_degree(node) > 0 and sfg.out_degree(node) == 0:
                yield self.finding(
                    "signal %r is write-only: assigned but never read"
                    % name, signal=name, site=lctx.site(name))


@register_rule
class WrapCompareRule(Rule):
    """FX007 — wrap-mode dtype feeding a comparison/slicer."""

    id = "FX007"
    title = "wrap-compare"
    severity = "warning"
    description = ("A wrap-mode value feeds a comparison: around the "
                   "wrap boundary the comparison inverts (e.g. a phase "
                   "slicer firing on the wrong edge).")
    hint = ("saturate the compared copy, or compare a wrapped "
            "difference instead of absolute values")

    _COMPARE_OPS = ("gt", "ge", "lt", "le")

    def check(self, lctx):
        sfg = lctx.sfg
        for name, node, dt in lctx.typed_signals():
            if dt.msbspec != "wrap":
                continue
            prop = lctx.prop(name)
            if (prop is not None and not prop.is_empty
                    and prop.is_finite and dt.covers(prop)):
                continue          # provably never wraps: comparison safe
            for succ in sfg.succs(node):
                if succ.kind == "op" and succ.label in self._COMPARE_OPS:
                    yield self.finding(
                        "wrap-mode signal %r (%s) feeds comparison %r; "
                        "results invert across the wrap boundary"
                        % (name, dt.spec(), succ.label),
                        signal=name, site=lctx.site(name))
                    break


@register_rule
class RedundantCastRule(Rule):
    """FX008 — cast that provably never changes the value."""

    id = "FX008"
    title = "redundant-cast"
    severity = "info"
    description = ("A cast's grid is at least as fine as its operand's "
                   "and its range covers every value the operand can "
                   "produce: the cast is a provable no-op.")
    hint = "remove the cast"

    def check(self, lctx):
        sfg = lctx.sfg
        for node in sfg.nodes("op"):
            dt = DType.from_cast_label(node.label)
            if dt is None:
                continue
            (pred,) = sfg.preds(node)
            f_in = lctx.frac_bits(pred)
            if f_in is None or dt.f < f_in:
                continue
            rng = self._operand_range(lctx, pred)
            if rng is None or rng.is_empty or not rng.is_finite:
                continue
            if not dt.covers(rng):
                continue
            anchor = _assigned_signal(sfg, node)
            yield self.finding(
                "cast %s is a provable no-op: operand grid f=%d <= %d "
                "and operand range [%g, %g] fits"
                % (node.label, f_in, dt.f, rng.lo, rng.hi),
                signal=anchor,
                site=None if anchor is None else lctx.site(anchor))

    @staticmethod
    def _operand_range(lctx, pred):
        if pred.kind in ("sig", "reg"):
            dt_in = lctx.dtype(pred.label)
            if dt_in is not None:
                return dt_in.range_interval()
            return lctx.prop(pred.label)
        return lctx.analysis.node_ranges.get(pred)


def _assigned_signal(sfg, op_node):
    """Name of a signal the op's result is assigned to (for anchoring)."""
    for succ in sfg.succs(op_node):
        if succ.kind in ("sig", "reg"):
            return succ.label
    return None


@register_rule
class StateLoopWithoutSaturationRule(Rule):
    """FX009 — register on a cycle with a wrapping write-back."""

    id = "FX009"
    title = "state-loop-without-saturation"
    severity = "warning"
    description = ("A register sits on a feedback cycle and its "
                   "write-back quantizes with wrap (its own dtype, or a "
                   "wrapping cast on the cycle): any rounding residue "
                   "the loop sustains becomes a zero-input limit cycle, "
                   "and an overflow re-enters the state far from "
                   "saturation. prove_no_limit_cycle() decides the "
                   "hazard exactly for short periods.")
    hint = ("saturate the state write-back (msbspec='saturate') or "
            "truncate toward zero so zero-input orbits decay")

    def check(self, lctx):
        reported = set()
        for cycle in lctx.cycles:
            regs = [n for n in cycle if n.kind == "reg"]
            if not regs:
                continue
            wrap_casts = [
                n.label for n in cycle if n.kind == "op"
                and (DType.from_cast_label(n.label) is not None
                     and DType.from_cast_label(n.label).msbspec == "wrap")]
            names = SFG.cycle_signal_names(cycle)
            for reg in regs:
                dt = lctx.dtype(reg.label)
                wraps_via_dtype = dt is not None and dt.msbspec == "wrap"
                if not wraps_via_dtype and not wrap_casts:
                    continue
                if reg.label in reported:
                    continue
                reported.add(reg.label)
                how = ("its dtype %s wraps" % dt.spec()
                       if wraps_via_dtype
                       else "cycle cast %s wraps" % wrap_casts[0])
                yield self.finding(
                    "state loop through %s quantizes the write-back of "
                    "%r with wrap (%s): limit-cycle hazard"
                    % (" -> ".join(names), reg.label, how),
                    signal=reg.label, cycle=names,
                    site=lctx.site(reg.label))

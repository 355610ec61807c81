"""Tests for SFG capture (tracing) and analytical range propagation."""

import math

import pytest

from repro.core.dtype import DType
from repro.core.errors import DesignError
from repro.core.interval import Interval
from repro.hdl import build_netlist
from repro.lint import run_lint
from repro.signal import DesignContext, Reg, Sig, cast, select
from repro.signal.ops import gt
from repro.sfg import SFG, propagate_ranges, trace
from repro.verify import bv
from repro.verify.encode import Envelope, StepEncoder


@pytest.fixture
def ctx():
    with DesignContext("sfg-test", seed=0) as c:
        yield c


class TestGraphBasics:
    def test_dedup_sig_nodes(self):
        g = SFG()
        a = g.sig_node("a")
        assert g.sig_node("a") is a
        assert g.n_nodes == 1

    def test_sig_reg_conflict(self):
        g = SFG()
        g.sig_node("a", is_register=False)
        with pytest.raises(DesignError):
            g.sig_node("a", is_register=True)

    def test_dedup_const_nodes(self):
        g = SFG()
        assert g.const_node(1.0) is g.const_node(1.0)
        assert g.const_node(1.0) is not g.const_node(2.0)

    def test_dedup_op_nodes(self):
        g = SFG()
        a = g.sig_node("a")
        b = g.sig_node("b")
        op1 = g.op_node("add", [a, b])
        op2 = g.op_node("add", [a, b])
        assert op1 is op2
        assert g.op_node("add", [b, a]) is not op1  # order matters

    def test_preds_ordered(self):
        g = SFG()
        a = g.sig_node("a")
        b = g.sig_node("b")
        op = g.op_node("sub", [a, b])
        assert g.preds(op) == [a, b]

    def test_assign_edge_and_sources(self):
        g = SFG()
        a = g.sig_node("a")
        op = g.op_node("neg", [a])
        g.assign_edge(op, "b")
        assert g.node_for_signal("b") in g.succs(op)
        assert [n.label for n in g.sources()] == ["a"]

    def test_missing_signal(self):
        g = SFG()
        with pytest.raises(DesignError):
            g.node_for_signal("zz")

    def test_feedback_detection(self):
        g = SFG()
        acc = g.sig_node("acc", is_register=True)
        x = g.sig_node("x")
        op = g.op_node("add", [acc, x])
        g.assign_edge(op, "acc", is_register=True)
        assert g.feedback_signals() == ["acc"]

    def test_no_feedback(self):
        g = SFG()
        a = g.sig_node("a")
        g.assign_edge(g.op_node("neg", [a]), "b")
        assert g.feedback_signals() == []


class TestTracing:
    def test_trace_simple_dataflow(self, ctx):
        a = Sig("a")
        b = Sig("b")
        c = Sig("c")
        with trace(ctx) as t:
            a.assign(1.0)
            b.assign(2.0)
            c.assign(a * b + 1.0)
        g = t.sfg
        assert set(g.signal_names()) == {"a", "b", "c"}
        # One mul, one add, regardless of re-execution.
        assert len([n for n in g.nodes("op")]) == 2

    def test_trace_dedups_across_iterations(self, ctx):
        a = Sig("a")
        b = Sig("b")
        with trace(ctx) as t:
            for i in range(50):
                a.assign(float(i))
                b.assign(a * 2.0)
        assert len(t.sfg.nodes("op")) == 1

    def test_trace_captures_register_feedback(self, ctx):
        acc = Reg("acc")
        x = Sig("x")
        with trace(ctx) as t:
            for i in range(3):
                x.assign(1.0)
                acc.assign(acc + x)
                ctx.tick()
        assert t.sfg.feedback_signals() == ["acc"]
        assert t.sfg.node_for_signal("acc").kind == "reg"

    def test_nested_trace_rejected(self, ctx):
        with trace(ctx):
            with pytest.raises(DesignError):
                with trace(ctx):
                    pass

    def test_tracer_detached_after_block(self, ctx):
        with trace(ctx):
            pass
        assert ctx.tape is None

    def test_select_traced(self, ctx):
        a = Sig("a")
        y = Sig("y")
        with trace(ctx) as t:
            a.assign(0.5)
            y.assign(select(a > 0, 1.0, -1.0))
        labels = [n.label for n in t.sfg.nodes("op")]
        assert "select" in labels

    def test_cast_traced(self, ctx):
        a = Sig("a")
        y = Sig("y")
        T = DType("T", 8, 5)
        with trace(ctx) as t:
            a.assign(0.4)
            y.assign(cast(a + 0.0, T))
        labels = [n.label for n in t.sfg.nodes("op")]
        assert any(l.startswith("cast<8,5,tc") for l in labels)


class TestPropagation:
    def _graph_fir(self):
        """y = 0.5*x0 + 0.25*x1 built by hand."""
        g = SFG()
        x0 = g.sig_node("x0")
        x1 = g.sig_node("x1")
        m0 = g.op_node("mul", [x0, g.const_node(0.5)])
        m1 = g.op_node("mul", [x1, g.const_node(0.25)])
        s = g.op_node("add", [m0, m1])
        g.assign_edge(s, "y")
        return g

    def test_feedforward(self):
        g = self._graph_fir()
        res = propagate_ranges(g, input_ranges={"x0": (-1, 1), "x1": (-1, 1)})
        assert res.converged
        assert res.ranges["y"] == Interval(-0.75, 0.75)
        assert res.msb("y") == 0
        assert res.exploded == []

    def test_unseeded_input_is_empty(self):
        g = self._graph_fir()
        res = propagate_ranges(g, input_ranges={"x0": (-1, 1)})
        assert res.ranges["y"].is_empty
        assert res.msb("y") is None

    def test_accumulator_explodes(self, ctx):
        acc = Reg("acc")
        x = Sig("x")
        with trace(ctx) as t:
            x.assign(1.0)
            acc.assign(acc + x)
            ctx.tick()
        res = propagate_ranges(t.sfg, input_ranges={"x": (-1, 1),
                                                    "acc": None} or {"x": (-1, 1)})
        res = propagate_ranges(t.sfg, input_ranges={"x": (-1, 1)})
        assert "acc" in res.exploded
        assert not res.ranges["acc"].is_finite

    def test_forced_range_stops_explosion(self, ctx):
        acc = Reg("acc")
        x = Sig("x")
        with trace(ctx) as t:
            x.assign(1.0)
            acc.assign(acc + x)
            ctx.tick()
        res = propagate_ranges(t.sfg, input_ranges={"x": (-1, 1)},
                               forced_ranges={"acc": (-4, 4)})
        assert res.exploded == []
        assert res.ranges["acc"] == Interval(-4, 4)

    def test_clip_range_stops_explosion(self, ctx):
        acc = Reg("acc")
        x = Sig("x")
        with trace(ctx) as t:
            x.assign(1.0)
            acc.assign(acc + x)
            ctx.tick()
        res = propagate_ranges(t.sfg, input_ranges={"x": (-1, 1)},
                               clip_ranges={"acc": (-4, 4)})
        assert res.exploded == []
        # acc = clip(acc + x): range settles at [-4, 4].
        assert res.ranges["acc"] == Interval(-4, 4)

    def test_annotation_on_traced_signal_object(self, ctx):
        acc = Reg("acc")
        x = Sig("x")
        acc.range(-2.0, 2.0)
        x.range(-1.0, 1.0)
        with trace(ctx) as t:
            x.assign(1.0)
            acc.assign(acc + x)
            ctx.tick()
        res = propagate_ranges(t.sfg)
        assert res.ranges["acc"] == Interval(-2.0, 2.0)
        assert res.ranges["x"] == Interval(-1.0, 1.0)

    def test_saturating_dtype_on_traced_signal(self, ctx):
        T = DType("T", 8, 5, msbspec="saturate")
        acc = Reg("acc", T)
        x = Sig("x")
        x.range(-1.0, 1.0)
        with trace(ctx) as t:
            x.assign(1.0)
            acc.assign(acc + x)
            ctx.tick()
        res = propagate_ranges(t.sfg)
        assert res.exploded == []
        assert res.ranges["acc"].hi <= T.max_value

    def test_select_union(self, ctx):
        a = Sig("a")
        y = Sig("y")
        a.range(-1, 1)
        with trace(ctx) as t:
            a.assign(0.5)
            y.assign(select(a > 0, 1.0, -1.0))
        res = propagate_ranges(t.sfg)
        assert res.ranges["y"] == Interval(-1.0, 1.0)

    def test_division_by_zero_crossing_is_unbounded(self, ctx):
        num = Sig("num")
        den = Sig("den")
        y = Sig("y")
        num.range(1, 2)
        den.range(-1, 1)
        with trace(ctx) as t:
            num.assign(1.0)
            den.assign(0.5)
            y.assign(num / den)
        res = propagate_ranges(t.sfg)
        assert "y" in res.exploded

    def test_msb_inf_for_exploded(self, ctx):
        acc = Reg("acc")
        x = Sig("x")
        x.range(-1, 1)
        with trace(ctx) as t:
            x.assign(1.0)
            acc.assign(acc + x)
            ctx.tick()
        res = propagate_ranges(t.sfg)
        assert res.msb("acc") == math.inf

    def test_paper_fir_range(self, ctx):
        """The LMS example's FIR: v3 = c0*x0 + c1*x1 + c2*x2."""
        coefs = [-0.11, 1.2, -0.02]
        x = Sig("x")
        x.range(-1.5, 1.5)
        v = Sig("v3")
        with trace(ctx) as t:
            x.assign(1.0)
            acc = x * coefs[0] + x * coefs[1] + x * coefs[2]
            v.assign(acc)
        res = propagate_ranges(t.sfg)
        bound = 1.5 * sum(abs(c) for c in coefs)
        assert res.ranges["v3"].hi == pytest.approx(bound)
        assert res.msb("v3") == 1


_T8 = DType("T8", 8, 5, "tc", "saturate", "round")


def _traced_repeated_operands():
    """``sq = x * x``, ``zero = x - x``, ``pick = select(gt(x, 0), x, x)``."""
    with DesignContext("repeated-operands", seed=0,
                       overflow_action="record",
                       guard_action="sanitize") as ctx:
        x = Sig("x", dtype=_T8)
        sq = Sig("sq", dtype=_T8)
        zero = Sig("zero", dtype=_T8)
        pick = Sig("pick", dtype=_T8)
        with trace(ctx) as t:
            x.assign(0.5)
            sq.assign(x * x)
            zero.assign(x - x)
            pick.assign(select(gt(x, 0.0), x, x))
            ctx.tick()
    return t.sfg


class TestRepeatedOperands:
    """An operation that uses one node twice keeps every operand."""

    OUTPUTS = ("sq", "zero", "pick")

    def test_preds_keep_each_use(self):
        sfg = _traced_repeated_operands()
        x = sfg.node_for_signal("x")
        by_label = {n.label: n for n in sfg.nodes("op")}
        assert sfg.preds(by_label["mul"]) == [x, x]
        assert sfg.preds(by_label["sub"]) == [x, x]
        assert sfg.preds(by_label["select"])[1:] == [x, x]
        # One graph edge per distinct operand, as before.
        assert sfg.in_degree(by_label["mul"]) == 1

    def test_propagate_ranges(self):
        sfg = _traced_repeated_operands()
        res = propagate_ranges(sfg, input_ranges={"x": (-1.0, 1.0)})
        assert res.ranges["sq"] == Interval(-1.0, 1.0)
        assert res.ranges["zero"] == Interval(-2.0, 2.0)
        assert res.ranges["pick"] == Interval(-1.0, 1.0)

    def test_run_lint(self):
        rep = run_lint(_traced_repeated_operands(),
                       input_ranges={"x": (-1.0, 1.0)},
                       outputs=set(self.OUTPUTS))
        assert rep.findings == []

    def test_build_netlist(self):
        types = {name: _T8 for name in ("x",) + self.OUTPUTS}
        nl = build_netlist(_traced_repeated_operands(), types,
                           inputs=["x"], outputs=list(self.OUTPUTS))
        arity = {(op.label, len(op.operands)) for op in nl.ops.values()}
        assert ("mul", 2) in arity and ("sub", 2) in arity
        assert ("select", 3) in arity

    def test_verify_encoder(self):
        enc = StepEncoder(_traced_repeated_operands(), ("x",),
                          Envelope({"x": (-1.0, 1.0)}))
        _state, sigs = enc.step(enc.initial_state(),
                                {"x": enc.input_var("x", 0)})
        # x = 16 codes of 2^-5 = 0.5: x*x = 0.25, x - x = 0, pick = x.
        values = {name: bv.Evaluator([sigs[name].code]).run({"x@0": 16})
                  [sigs[name].code] * 2.0 ** -sigs[name].f
                  for name in self.OUTPUTS}
        assert values == {"sq": 0.25, "zero": 0.0, "pick": 0.5}

"""Signals are their own operands.

A :class:`~repro.signal.signal.Sig` carries the attributes of the
:class:`~repro.signal.expr.Operand` protocol (``fx``, ``fl``, ``ival``,
``ctx``, ``node``), so an operation reads a signal directly.  ``ival``
is a stored copy of :meth:`Sig.read_interval`: a stale one would
silently change every downstream propagated range, hence MSB decisions,
so every call that re-binds the read interval is checked here.
"""

import pytest

from repro.core.dtype import DType
from repro.core.interval import Interval
from repro.parallel.runner import SimConfig, run_simulations
from repro.refine import Design
from repro.sfg.build import trace
from repro.signal import (DesignContext, Expr, Reg, RegArray, Sig, SigArray,
                          as_expr)
from repro.signal.interval_tape import IntervalTape

T85 = DType("T", 8, 5, "tc", "saturate", "round")


@pytest.fixture
def ctx():
    with DesignContext("operand", seed=0) as c:
        yield c


def _fresh(ctx, cls, dtype):
    s = cls("s", dtype)
    s.assign(0.5)
    ctx.tick()
    return s


@pytest.mark.parametrize("cls", [Sig, Reg])
@pytest.mark.parametrize("dtype", [None, T85], ids=["untyped", "typed"])
class TestIvalIsTheReadInterval:
    def test_after_construction_and_assignments(self, ctx, cls, dtype):
        s = _fresh(ctx, cls, dtype)
        assert s.ival is s.read_interval()

    def test_after_range(self, ctx, cls, dtype):
        s = _fresh(ctx, cls, dtype)
        s.range(-0.25, 0.75)
        assert s.ival is s.read_interval()
        assert s.ival == Interval(-0.25, 0.75)

    def test_after_clear_annotations(self, ctx, cls, dtype):
        s = _fresh(ctx, cls, dtype)
        s.range(-0.25, 0.75)
        s.clear_annotations()
        assert s.ival is s.read_interval()
        assert s.ival != Interval(-0.25, 0.75)

    def test_after_set_dtype(self, ctx, cls, dtype):
        s = _fresh(ctx, cls, dtype)
        other = None if dtype is not None else T85
        s.set_dtype(other)
        assert s.ival is s.read_interval()
        s.set_dtype(dtype)
        assert s.ival is s.read_interval()

    def test_after_reset_stats(self, ctx, cls, dtype):
        s = _fresh(ctx, cls, dtype)
        s.reset_stats()
        assert s.ival is s.read_interval()

    def test_untyped_growth_is_visible(self, ctx, cls, dtype):
        s = _fresh(ctx, cls, dtype)
        s.assign(-1.5)
        ctx.tick()
        assert s.ival is s.read_interval()
        if dtype is None:
            assert s.ival == Interval(-1.5, 0.5)


@pytest.mark.parametrize("dtype", [None, T85], ids=["untyped", "typed"])
def test_ival_after_set_init(ctx, dtype):
    r = Reg("r", dtype)
    r.assign(0.25)
    ctx.tick()
    r.set_init(-0.75)
    assert r.ival is r.read_interval()
    if dtype is None:
        # Power-on value plus the propagated range so far.
        assert r.ival == Interval(-0.75, 0.25)


class _AnnotatedInBuild(Design):
    """``acc = 0.5*acc + 0.5*x``, annotated and initialised in build()."""

    name = "annotated"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.acc = Reg("acc")
        self.taps = RegArray("d", 2)
        self.y = Sig("y")
        self.v = SigArray("v", 2)
        self.x.range(-1.0, 1.0)
        self.acc.set_init(0.25)
        self.taps.set_init([0.5, -0.5])

    def run(self, ctx, n):
        for i in range(n):
            self.x.assign(((i * 7) % 11 - 5) / 8.0)
            self.acc <<= self.acc * 0.5 + self.x * 0.5
            self.taps[1] = self.taps[0]
            self.taps[0] = self.x
            self.v[0] = self.taps[1] - self.acc
            self.y <<= self.v[0] * 0.25
            ctx.tick()


def test_ranges_annotated_in_build_propagate():
    """Propagated ranges of a design whose build() annotates and
    initialises its signals, in a full-monitor job, pinned bit for bit.

    ``x`` reads its forced [-1, 1] and the taps read [-1, 1] with their
    power-on values; ``acc = 0.5*acc + 0.5*x`` grows from its power-on
    0.25 towards [-1, 1] one tick at a time, and ``v = d[1] - acc`` and
    ``y = v/4`` follow it.  A read interval that missed an annotation
    or an init would move every one of these numbers."""
    out, = run_simulations(_AnnotatedInBuild,
                           [SimConfig(n_samples=40, monitors="all")],
                           workers=0)
    prop = {name: (rec.prop.lo, rec.prop.hi)
            for name, rec in out.records.items()}
    assert prop == {
        "x": (-1.0, 1.0),
        "acc": (-0.9999999999988631, 0.9999999999993179),
        "d[0]": (-1.0, 1.0),
        "d[1]": (-1.0, 1.0),
        "y": (-0.49999999999982947, 0.4999999999997158),
        "v[0]": (-1.9999999999993179, 1.9999999999988631),
        "v[1]": (float("inf"), float("-inf")),     # never assigned
    }


def test_reg_read_inside_a_cycle_is_the_committed_value(ctx):
    r = Reg("r", T85, init=0.25)
    y = Sig("y", T85)
    r.assign(0.5)
    assert (r.fx, r.fl) == (0.25, 0.25)
    assert (r * 2.0).fx == 0.5
    y <<= r
    assert y.fx == 0.25
    ctx.tick()
    assert (r.fx, r.fl) == (0.5, 0.5)
    y <<= r
    assert y.fx == 0.5


def test_taped_read_records_the_signal_as_provenance(ctx):
    x = Sig("x")
    y = Sig("y")
    assert x.node is None
    tape = IntervalTape()
    tape.start(ctx)
    assert x.node is x
    x.assign(0.25)
    y.assign(x * 2.0)
    ctx.tick()
    tape.finish()
    assert x.node is None
    (shape,) = tape._shapes
    assert shape == (("=", x, -1), ("mul", x, -2), ("=", y, 1))


def test_traced_read_is_the_signal_node(ctx):
    x = Sig("x")
    with trace(ctx):
        assert x.node is x
        assert (x + 1.0).node is not None
    assert x.node is None


def test_operands_pass_through_as_expr(ctx):
    x = Sig("x")
    e = x * 1.0
    assert as_expr(x) is x
    assert as_expr(e) is e
    assert +x is x
    lit = Expr(1, 2)
    assert (lit.fx, lit.fl, lit.ctx, lit.node) == (1.0, 2.0, None, None)
    assert lit.ival.is_empty

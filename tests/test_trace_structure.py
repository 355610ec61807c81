"""The recorded signal flow graph survives every reason to distrust a tape.

``trace()`` records onto an interval tape and builds the graph from it.
A tape whose intervals cannot be trusted refuses to replay, but goes on
recording the structure, so the graph is complete after each reason.
"""

import pytest

from repro.core.dtype import DType
from repro.core.interval import Interval
from repro.signal import DesignContext, Expr, Sig, select
from repro.signal.interval_tape import IntervalTape
from repro.sfg import trace

T = DType("T", 8, 5, "tc", "saturate", "round")


@pytest.fixture
def ctx():
    with DesignContext("structure", seed=0) as c:
        yield c


def _structure(sfg):
    """``(kind, label, operand labels)`` of every node, in id order."""
    return [(n.kind, n.label, [p.label for p in sfg.preds(n)])
            for n in sfg.nodes()]


#: ``x = 0.5; y = x * 2.0`` -- the graph every case below records.
MUL = [("const", "0.5", []), ("sig", "x", ["0.5"]),
       ("const", "2.0", []), ("op", "mul", ["x", "2.0"]),
       ("sig", "y", ["mul"])]


def _refused(tape, reason):
    assert reason in tape.reason
    with pytest.raises(ValueError, match="cannot be replayed"):
        tape.replay({})


@pytest.mark.parametrize("annotate", [lambda y: y.set_dtype(T),
                                      lambda y: y.range(-1, 1)],
                         ids=["set_dtype", "range"])
def test_annotation_inside_the_run(ctx, annotate):
    x, y = Sig("x"), Sig("y")
    with trace(ctx) as t:
        x.assign(0.5)
        annotate(y)
        y.assign(x * 2.0)
        ctx.tick()
    assert _structure(t.sfg) == MUL
    _refused(t, "was called on 'y' inside run()")


def test_expression_carried_across_a_tick(ctx):
    x, y = Sig("x"), Sig("y")
    with trace(ctx) as t:
        for _ in range(2):          # the second tick repeats the first
            x.assign(0.5)
            carried = x * 2.0
            ctx.tick()
        y.assign(carried)
        ctx.tick()
    assert _structure(t.sfg) == MUL
    _refused(t, "an expression was carried across ctx.tick()")


def test_expression_from_an_earlier_tape(ctx):
    x, y, z = Sig("x"), Sig("y"), Sig("z")
    earlier = IntervalTape()
    earlier.start(ctx)
    x.assign(0.5)
    e = x * 2.0
    earlier.finish()
    with trace(ctx) as t:
        z.assign(0.25)
        y.assign(e)
        ctx.tick()
    assert _structure(t.sfg) == [
        ("const", "0.25", []), ("sig", "z", ["0.25"]),
        ("const", "1.0", []), ("sig", "y", ["1.0"])]
    _refused(t, "an expression recorded by an earlier tape was reused")


def test_operand_without_provenance(ctx):
    x, y = Sig("x"), Sig("y")
    with trace(ctx) as t:
        x.assign(0.5)
        y.assign(x * Expr(1, 2))
        ctx.tick()
    assert _structure(t.sfg) == [
        ("const", "0.5", []), ("sig", "x", ["0.5"]),
        ("const", "1.0", []), ("op", "mul", ["x", "1.0"]),
        ("sig", "y", ["mul"])]
    _refused(t, "has no provenance")


def test_signal_created_inside_the_run(ctx):
    x = Sig("x")
    with trace(ctx) as t:
        x.assign(0.5)
        y = Sig("y")
        y.assign(x * 2.0)
        ctx.tick()
    assert _structure(t.sfg) == MUL
    _refused(t, "signal 'y' was created inside run()")


def test_select_keeps_its_condition_first(ctx):
    c, a, b, y = Sig("c"), Sig("a"), Sig("b"), Sig("y")
    with trace(ctx) as t:
        y.assign(select(c, a, b))
    op, = t.sfg.nodes("op")
    assert (op.label, [p.label for p in t.sfg.preds(op)]) == \
        ("select", ["c", "a", "b"])
    assert t.reason is None


def _select_run(ranges, tape=None):
    """Prop intervals of a select whose condition is a signal, each
    signal forced per ``ranges``."""
    with DesignContext("select") as ctx:
        c, a, b, y = Sig("c"), Sig("a"), Sig("b"), Sig("y")
        for name, bounds in ranges.items():
            ctx.get(name).range(*bounds)
        if tape is not None:
            tape.start(ctx)
        for i in range(8):
            c.assign(float(i % 2))
            a.assign(0.25 * i)
            b.assign(-0.5 * i)
            y.assign(select(c, a * 2.0, b))
            ctx.tick()
        if tape is not None:
            tape.finish()
        return {s.name: (s.prop_interval(), s.forced_range)
                for s in ctx.signals()}


@pytest.mark.parametrize("ranges", [{}, {"a": (-4.0, 4.0)},
                                    {"c": (0.0, 1.0), "b": (-8.0, 0.5)}])
def test_select_replay_equals_a_full_run(ranges):
    tape = IntervalTape()
    _select_run({}, tape)
    assert tape.reason is None
    forced = {tape.ctx.get(k): Interval(*v) for k, v in ranges.items()}
    assert tape.replay(forced) == _select_run(ranges)

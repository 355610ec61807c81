"""Literal operands and float assignments take no ``Expr``, bit for bit.

``x + v``, ``x * v`` and ``v * x`` take an exact ``float``/``int``
literal inline, the other forms wrap it, ``select`` and the traced
comparisons take an exact float inline, and
``Sig.assign`` (which ``<<=`` and array stores call) keeps a float as
is, down to the interval tape.  Every case of the six operators, of
``gt``/``ge``/``lt``/``le`` and of ``select`` is checked against the
route that wraps the literal with :func:`as_expr` first: values, the
propagated interval (or the error it raises), the context, the result's
provenance and the interval tape's records and constants, in a
propagating run, in an output-only run (``monitor_only``) and while an
:class:`IntervalTape` records.
"""

import dataclasses
import math
import operator
import struct
from unittest import mock

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.core.errors import NonFiniteError
from repro.core.interval import Interval
from repro.signal import (DesignContext, Reg, RegArray, Sig, SigArray,
                          as_expr)
from repro.signal import ops
from repro.signal.interval_tape import IntervalTape

T85 = DType("T", 8, 5, "tc", "saturate", "round")

LITERALS = [0.5, 3, -0.0, math.inf, -math.inf, math.nan, True,
            np.float64(0.25)]
LITERAL_IDS = ["0.5", "3", "-0.0", "inf", "-inf", "nan", "True",
               "np.float64"]

OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "radd": lambda a, k: k + a,
    "rsub": lambda a, k: k - a,
    "rmul": lambda a, k: k * a,
}

MODES = ["propagate", "monitor_only", "tape"]


def _canon(x):
    """Comparable form: floats by their bits, so -0.0 and NaN compare."""
    if isinstance(x, float):
        return ("f", struct.pack("<d", x))
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _canon(v)) for k, v in x.items()))
    if isinstance(x, Sig):
        return ("sig", x.name)
    return x


def _context(mode):
    """A context with signals ``a`` (Sig) and ``r`` (Reg) assigned and
    committed, in ``mode``; returns ``(ctx, tape)``."""
    ctx = DesignContext("literal", seed=0)
    with ctx:
        a = Sig("a")
        r = Reg("r", T85)
        Sig("out")
        a.assign(as_expr(0.75))
        r.assign(as_expr(-1.25))
        ctx.tick()
    tape = None
    if mode == "monitor_only":
        ctx.monitor_only("out")
    elif mode == "tape":
        tape = IntervalTape()
        tape.start(ctx)
    return ctx, tape


def _operand(ctx, kind):
    a, r = ctx.get("a"), ctx.get("r")
    if kind == "sig":
        return a
    if kind == "reg":
        return r
    if kind == "expr":
        return a + r
    return as_expr(0.375)     # a context-free constant Expr


def _tape_state(tape):
    if tape is None:
        return None
    return (_canon(tape._ops), _canon(tape._consts), tape.reason)


def _op_result(mode, kind, name, lit, wrap):
    ctx, tape = _context(mode)
    x = _operand(ctx, kind)
    k = as_expr(lit) if wrap else lit
    try:
        e = OPS[name](x, k)
    except ValueError as exc:
        return ("raises", type(exc), str(exc), _tape_state(tape))
    return (_canon(e.fx), _canon(e.fl),
            _canon((e.ival.lo, e.ival.hi)),
            "ctx" if e.ctx is ctx else e.ctx,
            e.node if type(e.node) is int else _canon(e.node),
            _tape_state(tape))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["sig", "reg", "expr", "const"])
@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("lit", LITERALS, ids=LITERAL_IDS)
def test_operation_matches_as_expr_route(mode, kind, name, lit):
    assert (_op_result(mode, kind, name, lit, wrap=False)
            == _op_result(mode, kind, name, lit, wrap=True))


#: select and the traced comparisons, with the literal ``k`` in each
#: place; ``w`` wraps the other literals on the reference route.
CHOICES = {
    "gt": lambda a, k, w: ops.gt(a, k),
    "ge": lambda a, k, w: ops.ge(a, k),
    "lt": lambda a, k, w: ops.lt(a, k),
    "le": lambda a, k, w: ops.le(a, k),
    "rgt": lambda a, k, w: ops.gt(k, a),
    "rle": lambda a, k, w: ops.le(k, a),
    "select-cond": lambda a, k, w: ops.select(k, a, w(0.5)),
    "select-true": lambda a, k, w: ops.select(a, k, w(-1.0)),
    "select-false": lambda a, k, w: ops.select(a, w(1.0), k),
    "select-bool": lambda a, k, w: ops.select(a > 0.0, k, a),
    "select-taken": lambda a, k, w: ops.select(ops.gt(a, k), w(1.0),
                                               w(-1.0)),
}


def _wrap(v):
    """``v`` wrapped by as_expr; a bool stays a bool, because ``select``
    takes a bool condition as the decision itself, not as an operand."""
    return v if type(v) is bool else as_expr(v)


def _choice_result(mode, kind, name, lit, as_expr_route):
    ctx, tape = _context(mode)
    x = _operand(ctx, kind)
    if as_expr_route:
        e = CHOICES[name](x, _wrap(lit), _wrap)
    else:
        e = CHOICES[name](x, lit, lambda v: v)
    return (_canon(e.fx), _canon(e.fl),
            _canon((e.ival.lo, e.ival.hi)),
            "ctx" if e.ctx is ctx else e.ctx,
            e.node if type(e.node) is int else _canon(e.node),
            _tape_state(tape))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["sig", "reg", "expr", "const"])
@pytest.mark.parametrize("name", sorted(CHOICES))
@pytest.mark.parametrize("lit", LITERALS, ids=LITERAL_IDS)
def test_choice_matches_as_expr_route(mode, kind, name, lit):
    assert (_choice_result(mode, kind, name, lit, as_expr_route=False)
            == _choice_result(mode, kind, name, lit, as_expr_route=True))


def test_choices_take_the_inline_route():
    """A float literal builds no Expr, also under a recording tape: only
    the result."""
    for mode in MODES:
        ctx, tape = _context(mode)
        a = ctx.get("a")
        with mock.patch.object(ops, "as_expr") as wrap:
            g = ops.gt(a, 0.5)
            e = ops.select(g, 1.0, -1.0)
        assert not wrap.called
        assert (g.fx, e.fx) == (1.0, 1.0)
        if mode == "propagate":
            assert (e.ival.lo, e.ival.hi) == (-1.0, 1.0)
        elif mode == "monitor_only":
            assert e.ival.is_empty
        else:
            assert _tape_state(tape) == (
                _canon([("gt", a, -1), ("select", 0, -2, -3)]),
                _canon([0.5, 1.0, -1.0]), None)


def test_operations_cover_every_interval_outcome():
    """The cases above meet a finite interval, an infinite point, the
    empty interval of a NaN literal and the skipped arithmetic of an
    output-only run, so each comparison means something."""
    def ival(*args):
        return _op_result(*args, wrap=False)[2]
    assert ival("propagate", "sig", "add", 0.5) == _canon((0.5, 1.25))
    assert (ival("propagate", "const", "mul", math.inf)
            == _canon((math.inf, math.inf)))
    empty = _canon((math.inf, -math.inf))
    assert ival("propagate", "sig", "add", math.nan) == empty
    assert ival("monitor_only", "sig", "mul", 0.5) == empty


def test_literal_propagates_its_point():
    ctx, _ = _context("propagate")
    e = 2.0 * ctx.get("a") - 0.5
    assert e.fx == 1.0
    assert e.ival == 2.0 * ctx.get("a").ival - Interval(0.5, 0.5)


def test_infinite_bounds_raise_on_both_routes():
    ctx, _ = _context("propagate")
    s = Sig("s", ctx=ctx)
    s.range(-math.inf, math.inf)
    with pytest.raises(ValueError, match="NaN"):
        s + math.inf
    with pytest.raises(ValueError, match="NaN"):
        s + as_expr(math.inf)


@pytest.mark.parametrize("lit", [0.5, -0.0, math.inf, math.nan],
                         ids=["0.5", "-0.0", "inf", "nan"])
def test_comparison_with_float_literal(lit):
    ctx, _ = _context("propagate")
    a = ctx.get("a")
    for cmp in ("__lt__", "__le__", "__gt__", "__ge__", "eq"):
        assert getattr(a, cmp)(lit) == getattr(a, cmp)(as_expr(lit))


# -- float assignments ------------------------------------------------------

ASSIGN_VALUES = [0.5, -0.0, 5.0, -7.25, math.inf, -math.inf, math.nan, 0.125]

STORES = {
    "assign": lambda s, arr, v: s.assign(v),
    "ilshift": lambda s, arr, v: s.__ilshift__(v),
    "array": lambda s, arr, v: arr.__setitem__(1, v),
}


def _assign_state(mode, store, array_cls, dtype, guard, wrap):
    action, replacement = guard
    ctx = DesignContext("assign", seed=0, overflow_action="record",
                        guard_action=action, guard_replacement=replacement)
    with ctx:
        arr = array_cls("arr", 3, dtype=dtype)
        s = arr[1]
    tape = None
    if mode == "monitor_only":
        ctx.monitor_only("arr[1]")
    elif mode == "tape":
        tape = IntervalTape()
        tape.start(ctx)
    raised = []
    for v in ASSIGN_VALUES:
        try:
            STORES[store](s, arr, as_expr(v) if wrap else v)
        except NonFiniteError as exc:
            raised.append(str(exc))
        ctx.tick()
    if tape is not None:
        tape.finish()
    return (
        _canon((s.fx, s.fl)),
        _canon(s.prop_interval().lo), _canon(s.prop_interval().hi),
        _canon((s.ival.lo, s.ival.hi)),
        s.overflow_count,
        _canon(s.range_stat.as_dict()), _canon(s.val_stat.as_dict()),
        _canon(s.err_consumed.as_dict()), _canon(s.err_produced.as_dict()),
        ctx.guard_trip_count,
        _canon([dataclasses.astuple(g) for g in ctx.guard_log]),
        raised,
        None if tape is None else (
            _canon(list(tape._shapes)),
            _canon(tape._tick_consts), tape.reason),
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("array_cls", [SigArray, RegArray])
@pytest.mark.parametrize("dtype", [None, T85], ids=["untyped", "typed"])
@pytest.mark.parametrize("guard", [("raise", "hold"), ("record", "hold"),
                                   ("record", "zero"), ("sanitize", "hold")],
                         ids=lambda g: "-".join(g))
def test_float_assignment_matches_as_expr_route(mode, store, array_cls,
                                                dtype, guard):
    state = _assign_state(mode, store, array_cls, dtype, guard, wrap=False)
    assert state == _assign_state(mode, store, array_cls, dtype, guard,
                                  wrap=True)


def test_assignment_cases_exercise_guard_and_overflow():
    typed = _assign_state("propagate", "assign", SigArray, T85,
                          ("record", "hold"), wrap=False)
    assert typed[4] == 2           # 5.0 and -7.25 saturate
    assert typed[9] == 3           # inf, -inf and NaN are guarded
    raised = _assign_state("propagate", "array", RegArray, None,
                           ("raise", "hold"), wrap=False)[11]
    assert len(raised) == 3
    # The infinities widen an untyped signal's propagated range; the
    # NaN's empty interval leaves it alone.
    untyped = _assign_state("propagate", "assign", SigArray, None,
                            ("sanitize", "hold"), wrap=False)
    assert untyped[1:3] == (_canon(-math.inf), _canon(math.inf))


# -- the interval tape ------------------------------------------------------

def test_signal_nodes_follow_the_tape():
    ctx = DesignContext("nodes")
    with ctx:
        a = Sig("a")
        assert a.node is None
        tape = IntervalTape()
        tape.start(ctx)
        assert a.node is a
        b = Sig("b")           # created inside the taped run
        assert b.node is b
        b.assign(a * 2.0)
        ctx.tick()
        tape.finish()
    assert [s.node for s in ctx.signals()] == [None, None]
    assert tape.reason == "signal 'b' was created inside run()"
    assert _canon(list(tape._shapes)) == _canon(
        [(("mul", a, -1), ("=", b, 0))])


def test_nan_float_assignment_distrusts_like_a_nan_operand():
    def reason(act):
        ctx = DesignContext("nan", guard_action="sanitize")
        with ctx:
            s = Sig("s")
        tape = IntervalTape()
        tape.start(ctx)
        act(s)
        ctx.tick()
        tape.finish()
        return tape.reason

    reasons = {reason(lambda s: s.assign(math.nan)),
               reason(lambda s: s.assign(as_expr(math.nan))),
               reason(lambda s: s.assign(s + math.nan)),
               reason(lambda s: s.assign(s + as_expr(math.nan)))}
    assert reasons == {"an operand expression has no provenance and "
                       "interval Interval(), not the point of its value nan"}

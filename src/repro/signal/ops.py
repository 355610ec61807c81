"""Extra overloaded operations beyond the arithmetic dunders.

``select`` is the expression-level conditional the paper's C++ writes as
``w > 0 ? 1 : -1``.  The condition is evaluated on the *fixed-point*
values only and the float reference follows the same branch, so the two
coupled simulations never take different control decisions (Section 4.2).
The propagated range is the union of both branches, which is what the
analytical method would derive from the signal flow graph.

``select`` and the traced comparisons take an exact ``float`` literal
inline, as the arithmetic dunders do (:mod:`repro.signal.expr`): no
``Expr`` per literal, also while an interval tape records (the tape
takes the bare float), and the branches' union is built only where the
context propagates ranges.  Any other literal type is wrapped with
:func:`as_expr`.

``cast`` quantizes an intermediate expression without assigning it to a
signal — the paper's cast operator for intermediate results.
"""

from __future__ import annotations

import operator

from repro.core.dtype import DType
from repro.core.errors import DesignError
from repro.core.interval import EMPTY, Interval
from repro.signal.expr import (Expr, Operand, _new, _point, _trace_node,
                               as_expr)

#: Shared 0/1 range of traced comparisons (read-only by convention).
_BOOL_IVAL = Interval(0.0, 1.0)

__all__ = ["select", "cast", "fmin", "fmax", "fabs", "clamp",
           "gt", "ge", "lt", "le"]


def _ctx_of(*operands):
    for e in operands:
        if type(e) is not float and e.ctx is not None:
            return e.ctx
    # All operands are literals (e.g. ``select(flag, 1.0, -1.0)``): fall
    # back to the active context so its interval tape still sees the
    # operation.
    from repro.signal.context import current_context
    ctx = current_context()
    return ctx if ctx.tape is not None else None


def _propagates(ctx):
    """False in a context that skips range propagation (output-only)."""
    return ctx is None or ctx.propagate


def _inline(x):
    """``x`` as an operand, or as itself if it is an exact float."""
    if type(x) is float or isinstance(x, Operand):
        return x
    return as_expr(x)


def _ival(x):
    """Interval of an operand or an exact float literal."""
    return _point(x) if type(x) is float else x.ival


def select(cond, if_true, if_false):
    """Fixed-point-steered conditional expression.

    ``cond`` may be a plain bool (the result of a relational operator,
    which already compares fixed-point values) or a signal/expression
    whose fixed-point value is tested for being nonzero.
    """
    if_true = _inline(if_true)
    if_false = _inline(if_false)
    if type(cond) is bool:
        operands = (if_true, if_false)
    else:
        cond = _inline(cond)
        operands = (cond, if_true, if_false)
        cond = (cond if type(cond) is float else cond.fx) != 0.0
    picked = if_true if cond else if_false
    ctx = _ctx_of(*operands)
    e = _new(Expr)
    if type(picked) is float:
        e.fx = e.fl = picked
    else:
        e.fx = picked.fx
        e.fl = picked.fl
    e.ival = (_ival(if_true).union(_ival(if_false)) if _propagates(ctx)
              else EMPTY)
    e.ctx = ctx
    e.node = _trace_node(ctx, "select", operands)
    return e


def cast(value, dtype):
    """Quantize an intermediate expression through ``dtype``.

    The fixed-point value is quantized; the float reference passes
    through untouched; the range is clipped for saturating types.  No
    monititoring statistics are collected (casts are anonymous).
    """
    if not isinstance(dtype, DType):
        raise DesignError("cast target must be a DType, got %r" % (dtype,))
    e = as_expr(value)
    qfx = dtype.saturating.kernel(e.fx)[0] if dtype.msbspec != "wrap" \
        else dtype.quantize(e.fx)
    # A cast of a literal is an operation over it, so a tape sees it
    # even though no signal is involved.
    ctx = _ctx_of(e)
    ival = e.ival
    if not _propagates(ctx):
        ival = EMPTY
    elif dtype.msbspec == "saturate":
        ival = ival.clip(dtype.range_interval())
    node = _trace_node(ctx, "cast%s" % dtype.spec(), (e,))
    return Expr(qfx, e.fl, ival, ctx, node)


def fmin(a, b):
    """Elementary minimum with proper range propagation."""
    ea = as_expr(a)
    eb = as_expr(b)
    ctx = _ctx_of(ea, eb)
    node = _trace_node(ctx, "min", (ea, eb))
    ival = ea.ival.minimum(eb.ival) if _propagates(ctx) else EMPTY
    return Expr(min(ea.fx, eb.fx), min(ea.fl, eb.fl), ival, ctx, node)


def fmax(a, b):
    """Elementary maximum with proper range propagation."""
    ea = as_expr(a)
    eb = as_expr(b)
    ctx = _ctx_of(ea, eb)
    node = _trace_node(ctx, "max", (ea, eb))
    ival = ea.ival.maximum(eb.ival) if _propagates(ctx) else EMPTY
    return Expr(max(ea.fx, eb.fx), max(ea.fl, eb.fl), ival, ctx, node)


def fabs(a):
    """Absolute value (alias for ``abs`` that works on plain floats too)."""
    return abs(as_expr(a))


def clamp(value, lo, hi):
    """Clamp ``value`` into ``[lo, hi]`` (saturation in the value domain)."""
    return fmin(fmax(value, lo), hi)


def _compare(opname, a, b, fn):
    """Traced comparison: 1.0/0.0 valued expression.

    Both simulation tracks take the *fixed-point* decision (uniform
    control, Section 4.2), so ``fl == fx`` by construction.  Unlike the
    relational dunders (which return plain bools), the result is an
    :class:`Expr`, so the decision survives into the traced signal flow
    graph — necessary for HDL generation of slicers and strobes.
    """
    a = _inline(a)
    b = _inline(b)
    ctx = _ctx_of(a, b)
    e = _new(Expr)
    e.fx = e.fl = 1.0 if fn(a if type(a) is float else a.fx,
                            b if type(b) is float else b.fx) else 0.0
    e.ival = _BOOL_IVAL
    e.ctx = ctx
    e.node = _trace_node(ctx, opname, (a, b))
    return e


def gt(a, b):
    """Traced ``a > b`` (1.0 when true, else 0.0)."""
    return _compare("gt", a, b, operator.gt)


def ge(a, b):
    """Traced ``a >= b``."""
    return _compare("ge", a, b, operator.ge)


def lt(a, b):
    """Traced ``a < b``."""
    return _compare("lt", a, b, operator.lt)


def le(a, b):
    """Traced ``a <= b``."""
    return _compare("le", a, b, operator.le)

"""Extra overloaded operations beyond the arithmetic dunders.

``select`` is the expression-level conditional the paper's C++ writes as
``w > 0 ? 1 : -1``.  The condition is evaluated on the *fixed-point*
values only and the float reference follows the same branch, so the two
coupled simulations never take different control decisions (Section 4.2).
The propagated range is the union of both branches, which is what the
analytical method would derive from the signal flow graph.

``cast`` quantizes an intermediate expression without assigning it to a
signal — the paper's cast operator for intermediate results.
"""

from __future__ import annotations

from repro.core.dtype import DType
from repro.core.errors import DesignError
from repro.core.interval import EMPTY, Interval
from repro.signal.expr import Expr, _trace_node, as_expr

#: Shared 0/1 range of traced comparisons (read-only by convention).
_BOOL_IVAL = Interval(0.0, 1.0)

__all__ = ["select", "cast", "fmin", "fmax", "fabs", "clamp",
           "gt", "ge", "lt", "le"]


def _ctx_of(*exprs):
    for e in exprs:
        if e.ctx is not None:
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


def select(cond, if_true, if_false):
    """Fixed-point-steered conditional expression.

    ``cond`` may be a plain bool (the result of a relational operator,
    which already compares fixed-point values) or a signal/expression
    whose fixed-point value is tested for being nonzero.
    """
    et = as_expr(if_true)
    ef = as_expr(if_false)
    if isinstance(cond, bool):
        taken = cond
        cond_exprs = ()
    else:
        ec = as_expr(cond)
        taken = ec.fx != 0.0
        cond_exprs = (ec,)
    picked = et if taken else ef
    ctx = _ctx_of(*cond_exprs, et, ef)
    ival = et.ival.union(ef.ival) if _propagates(ctx) else EMPTY
    node = _trace_node(ctx, "select", tuple(cond_exprs) + (et, ef))
    return Expr(picked.fx, picked.fl, ival, ctx, node)


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
    ea = as_expr(a)
    eb = as_expr(b)
    v = 1.0 if fn(ea.fx, eb.fx) else 0.0
    ctx = _ctx_of(ea, eb)
    node = _trace_node(ctx, opname, (ea, eb))
    return Expr(v, v, _BOOL_IVAL, ctx, node)


def gt(a, b):
    """Traced ``a > b`` (1.0 when true, else 0.0)."""
    return _compare("gt", a, b, lambda x, y: x > y)


def ge(a, b):
    """Traced ``a >= b``."""
    return _compare("ge", a, b, lambda x, y: x >= y)


def lt(a, b):
    """Traced ``a < b``."""
    return _compare("lt", a, b, lambda x, y: x < y)


def le(a, b):
    """Traced ``a <= b``."""
    return _compare("le", a, b, lambda x, y: x <= y)

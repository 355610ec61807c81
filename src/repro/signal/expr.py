"""Expression values produced by overloaded operators.

Per the paper, arithmetic between signals is carried out in floating
point; quantization happens only at assignment.  Every operation reads
its operands and produces an :class:`Expr` holding three parallel
results:

* ``fx`` — the operation applied to the operands' *fixed-point* values
  (represented exactly in a double),
* ``fl`` — the operation applied to the operands' *floating-point
  reference* values (the coupled dual simulation of Section 4.2),
* ``ival`` — the operation applied to the operands' value ranges
  (the quasi-analytical range propagation of Section 4.1), or the
  shared empty interval when the context does not propagate ranges
  (``DesignContext.propagate``, off in a statistics-only or output-only
  run).

An operand is anything satisfying the :class:`Operand` protocol: an
``Expr``, or a :class:`~repro.signal.signal.Sig` read directly (a
signal carries the same five attributes), so reading a signal costs no
allocation.  An exact ``float`` or ``int`` literal in ``x + v``,
``x * v`` or ``v * x`` (the forms a design's coefficient products,
offsets and stimulus samples take) and a float compared against are
taken inline, with no ``Expr``: the point interval is built only where
the context propagates ranges, and a recording interval tape takes the
bare float.  :func:`~repro.signal.ops.select` and the traced
comparisons (``gt``, ``ge``, ``lt``, ``le``) take exact float literals
inline as well.  Every other literal (``v +
x``, ``x - v``, ``v - x``, and ``bool``, NumPy scalars or ``Fraction``
anywhere) is wrapped by :func:`as_expr`.

Relational operators compare the fixed-point values only, so the fixed
and float simulations always take the same control decisions.
"""

from __future__ import annotations

import math
import numbers

from repro.core.interval import (EMPTY, Interval, fast_interval, iv_add,
                                 iv_mul, iv_neg, iv_sub)

__all__ = ["Expr", "as_expr", "Operand"]


class Operand:
    """Operand protocol and the overloaded operators built on it.

    An operand exposes five plain attributes:

    * ``fx`` and ``fl`` -- its fixed-point and float reference values,
    * ``ival`` -- the interval a consumer propagates from it,
    * ``ctx`` -- its :class:`~repro.signal.context.DesignContext`, or
      None for a literal,
    * ``node`` -- its provenance, read only while ``ctx`` has an
      interval tape (:mod:`repro.signal.interval_tape`): a ref on the
      tape, or None for a literal.

    :class:`Expr` stores them; a :class:`~repro.signal.signal.Sig`
    keeps its current values, its read interval and its provenance in
    the same slots, so an operation reads a signal operand directly.
    """

    __slots__ = ()

    # -- arithmetic -----------------------------------------------------------
    #
    # add/sub/mul/neg are the per-sample hot path of every monitored
    # simulation; they inline the interval arithmetic and build the
    # result Expr without re-validating floats; only a recording
    # interval tape costs them a call (one IntervalTape.binop for
    # add/sub/mul), and an exact float/int literal of __add__, __mul__
    # or __rmul__ costs no Expr (module docstring).  The other reflected
    # forms wrap the literal and reuse the forward operator.  Rarer
    # operations (div, shifts) keep the generic _binop/_unop route.  A
    # context that does not propagate ranges (a statistics-only or
    # output-only run) gets the shared EMPTY interval instead of any
    # interval arithmetic.

    def __add__(self, other):
        e = _new(Expr)
        if not isinstance(other, Operand):
            tx = type(other)
            if tx is float or tx is int:
                v = float(other)
                e.fx = self.fx + v
                e.fl = self.fl + v
                ctx = e.ctx = self.ctx
                e.ival = (iv_add(self.ival, _point(v))
                          if ctx is None or ctx.propagate else EMPTY)
                e.node = (None if ctx is None or ctx.tape is None
                          else ctx.tape.binop("add", self, v))
                return e
            other = as_expr(other)
        e.fx = self.fx + other.fx
        e.fl = self.fl + other.fl
        ctx = e.ctx = self.ctx if self.ctx is not None else other.ctx
        e.ival = (iv_add(self.ival, other.ival)
                  if ctx is None or ctx.propagate else EMPTY)
        e.node = (None if ctx is None or ctx.tape is None
                  else ctx.tape.binop("add", self, other))
        return e

    def __radd__(self, other):
        return as_expr(other) + self

    def __sub__(self, other):
        eb = other if isinstance(other, Operand) else as_expr(other)
        e = _new(Expr)
        e.fx = self.fx - eb.fx
        e.fl = self.fl - eb.fl
        ctx = e.ctx = self.ctx if self.ctx is not None else eb.ctx
        e.ival = (iv_sub(self.ival, eb.ival) if ctx is None or ctx.propagate
                  else EMPTY)
        e.node = (None if ctx is None or ctx.tape is None
                  else ctx.tape.binop("sub", self, eb))
        return e

    def __rsub__(self, other):
        return as_expr(other) - self

    def __mul__(self, other):
        e = _new(Expr)
        if not isinstance(other, Operand):
            tx = type(other)
            if tx is float or tx is int:
                v = float(other)
                e.fx = self.fx * v
                e.fl = self.fl * v
                ctx = e.ctx = self.ctx
                e.ival = (iv_mul(self.ival, _point(v))
                          if ctx is None or ctx.propagate else EMPTY)
                e.node = (None if ctx is None or ctx.tape is None
                          else ctx.tape.binop("mul", self, v))
                return e
            other = as_expr(other)
        e.fx = self.fx * other.fx
        e.fl = self.fl * other.fl
        ctx = e.ctx = self.ctx if self.ctx is not None else other.ctx
        e.ival = (iv_mul(self.ival, other.ival)
                  if ctx is None or ctx.propagate else EMPTY)
        e.node = (None if ctx is None or ctx.tape is None
                  else ctx.tape.binop("mul", self, other))
        return e

    def __rmul__(self, other):
        tx = type(other)
        if tx is not float and tx is not int:
            return as_expr(other) * self
        v = float(other)
        e = _new(Expr)
        e.fx = v * self.fx
        e.fl = v * self.fl
        ctx = e.ctx = self.ctx
        e.ival = (iv_mul(_point(v), self.ival)
                  if ctx is None or ctx.propagate else EMPTY)
        e.node = (None if ctx is None or ctx.tape is None
                  else ctx.tape.binop("mul", v, self))
        return e

    def __truediv__(self, other):
        return _binop("div", self, other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return _binop("div", other, self, lambda a, b: a / b)

    def __neg__(self):
        e = _new(Expr)
        e.fx = -self.fx
        e.fl = -self.fl
        ctx = e.ctx = self.ctx
        e.ival = iv_neg(self.ival) if ctx is None or ctx.propagate else EMPTY
        e.node = (None if ctx is None or ctx.tape is None
                  else ctx.tape.op("neg", (self,)))
        return e

    def __pos__(self):
        return self

    def __abs__(self):
        return _unop("abs", self, lambda a: abs(a))

    def __lshift__(self, k):
        k = int(k)
        return _unop("shl%d" % k, self, lambda a: a * (2.0 ** k),
                     ifn=lambda iv: iv.scale_pow2(k))

    def __rshift__(self, k):
        k = int(k)
        return _unop("shr%d" % k, self, lambda a: a * (2.0 ** -k),
                     ifn=lambda iv: iv.scale_pow2(-k))

    # -- relational (fixed-point values steer control) -----------------------

    def __lt__(self, other):
        return self.fx < _fx_of(other)

    def __le__(self, other):
        return self.fx <= _fx_of(other)

    def __gt__(self, other):
        return self.fx > _fx_of(other)

    def __ge__(self, other):
        return self.fx >= _fx_of(other)

    def eq(self, other):
        """Value equality on the fixed-point values.

        Named method instead of ``__eq__`` so signals stay hashable and
        usable as dict keys / registry entries.
        """
        return self.fx == _fx_of(other)

    # -- conversions ------------------------------------------------------------

    def __float__(self):
        return float(self.fx)

    def __bool__(self):
        """Truthiness of the fixed-point value (nonzero = true)."""
        return self.fx != 0.0


class Expr(Operand):
    """Result of an overloaded operation (see module docstring)."""

    __slots__ = ("fx", "fl", "ival", "ctx", "node")

    def __init__(self, fx, fl, ival=None, ctx=None, node=None):
        self.fx = float(fx)
        self.fl = float(fl)
        self.ival = Interval() if ival is None else ival
        self.ctx = ctx
        self.node = node

    @property
    def error(self):
        """Current difference error: float reference minus fixed value."""
        return self.fl - self.fx

    def __repr__(self):
        return "Expr(fx=%g, fl=%g, ival=%r)" % (self.fx, self.fl, self.ival)


#: Allocates an Expr without running ``__init__`` (the hot paths fill
#: in every slot themselves).
_new = object.__new__


def as_expr(x):
    """Coerce ``x`` to an operand: a numeric scalar becomes an
    :class:`Expr`, an :class:`Operand` (signal or expression) is
    returned unchanged."""
    tx = type(x)
    if tx is float or tx is int:
        # Exact-type fast path for the overwhelmingly common literal
        # operands (coefficients, 0.0 resets, comparison constants).
        v = float(x)
        e = _new(Expr)
        e.fx = v
        e.fl = v
        e.ival = _point(v)
        e.ctx = None
        e.node = None
        return e
    if isinstance(x, Operand):
        return x
    if isinstance(x, numbers.Real):
        v = float(x)
        if math.isnan(v):
            return Expr(v, v, Interval())
        return Expr(v, v, Interval.point(v))
    raise TypeError("cannot use %r in a signal expression" % (x,))


def _point(v):
    """Interval of the float literal ``v``: its point.  A NaN carries no
    range information and gets the empty interval, so the assignment
    guard, not the interval arithmetic, decides what happens to it."""
    return EMPTY if v != v else fast_interval(v, v)


def _fx_of(x):
    return x if type(x) is float else as_expr(x).fx


def _trace_node(ctx, opname, operands):
    """Provenance of an operation's result: its ref on the context's
    interval tape, or None."""
    if ctx is None or ctx.tape is None:
        return None
    return ctx.tape.op(opname, operands)


def _binop(opname, a, b, vfn):
    ea = as_expr(a)
    eb = as_expr(b)
    fx = vfn(ea.fx, eb.fx)
    fl = vfn(ea.fl, eb.fl)
    ctx = ea.ctx if ea.ctx is not None else eb.ctx
    if ctx is not None and not ctx.propagate:
        ival = EMPTY
    else:
        ival = vfn(ea.ival, eb.ival)
    node = _trace_node(ctx, opname, (ea, eb))
    return Expr(fx, fl, ival, ctx, node)


def _unop(opname, a, vfn, ifn=None):
    ea = as_expr(a)
    fx = vfn(ea.fx)
    fl = vfn(ea.fl)
    if ea.ctx is not None and not ea.ctx.propagate:
        ival = EMPTY
    else:
        ival = ifn(ea.ival) if ifn is not None else vfn(ea.ival)
    node = _trace_node(ea.ctx, opname, (ea,))
    return Expr(fx, fl, ival, ea.ctx, node)

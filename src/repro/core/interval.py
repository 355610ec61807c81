"""Interval arithmetic for quasi-analytical range propagation.

The paper's quasi-analytical MSB method propagates value ranges through
the overloaded arithmetic operators (Section 4.1).  :class:`Interval`
implements that propagation: each operator returns the tightest interval
containing every possible result of applying the operation to values from
the operand intervals.

Intervals may be *empty* (no value observed yet) or unbounded (``inf``
end-points); unbounded intervals are how MSB explosion on feedback
signals manifests before the refinement flow flags it.
"""

from __future__ import annotations

import math

from repro.core.errors import DesignError

__all__ = ["Interval", "EMPTY", "FULL", "fast_interval",
           "iv_add", "iv_sub", "iv_mul", "iv_neg", "eval_op"]


def _mul_end(a, b):
    """Multiply interval end-points, defining 0 * inf = 0.

    The convention is correct for interval products: a factor that is
    exactly zero annihilates the other regardless of its magnitude.
    """
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _div_end(a, b):
    """Divide interval end-points, defining inf / inf by its sign.

    Both operands infinite is the only NaN quotient (zero divisors are
    excluded by the caller).  Its sound value is the infinity carrying
    the quotient's sign: a numerator that outgrows its denominator
    drives the quotient to that extreme.
    """
    q = a / b
    if q != q:
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return q


def _ldexp_end(a, k):
    """``a * 2**k`` for an end-point, overflowing to a signed infinity."""
    try:
        return math.ldexp(a, k)
    except OverflowError:
        return math.copysign(math.inf, a)


def _pow_end(a, k):
    """``a ** k`` for an end-point, overflowing to a signed infinity."""
    try:
        return a ** k
    except OverflowError:
        return math.copysign(math.inf, a) if k % 2 else math.inf


class Interval:
    """A closed real interval ``[lo, hi]``, possibly empty or unbounded."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo=None, hi=None):
        if lo is None and hi is None:
            # Empty interval.
            self.lo = math.inf
            self.hi = -math.inf
            return
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bounds must not be NaN")
        if lo > hi:
            raise ValueError("invalid interval [%r, %r]" % (lo, hi))
        self.lo = lo
        self.hi = hi

    # -- constructors ----------------------------------------------------

    def copy(self):
        """Independent snapshot of this interval."""
        new = Interval.__new__(Interval)
        new.lo = self.lo
        new.hi = self.hi
        return new

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def full(cls):
        return cls(-math.inf, math.inf)

    @classmethod
    def point(cls, v):
        return cls(v, v)

    @classmethod
    def coerce(cls, other):
        """Interval from an Interval, scalar, or (lo, hi) tuple."""
        if isinstance(other, Interval):
            return other
        if isinstance(other, tuple):
            return cls(*other)
        return cls.point(other)

    # -- predicates -------------------------------------------------------

    @property
    def is_empty(self):
        return self.lo > self.hi

    @property
    def is_finite(self):
        return (not self.is_empty
                and math.isfinite(self.lo) and math.isfinite(self.hi))

    @property
    def width(self):
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    @property
    def max_abs(self):
        if self.is_empty:
            return 0.0
        return max(abs(self.lo), abs(self.hi))

    def contains(self, v):
        if isinstance(v, Interval):
            return v.is_empty or (self.lo <= v.lo and v.hi <= self.hi)
        return self.lo <= v <= self.hi

    def issubset(self, other):
        """True when every value of this interval lies in ``other``.

        The empty interval is a subset of everything.  Used by the static
        analyzer to compare propagated ranges against declared type
        ranges without simulation values.
        """
        return Interval.coerce(other).contains(self)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty and other.is_empty:
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        if self.is_empty:
            return hash("empty-interval")
        return hash((self.lo, self.hi))

    def __repr__(self):
        if self.is_empty:
            return "Interval()"
        return "Interval(%g, %g)" % (self.lo, self.hi)

    # -- lattice operations ------------------------------------------------

    def union(self, other):
        other = Interval.coerce(other)
        if self.is_empty:
            return Interval(other.lo, other.hi) if not other.is_empty else Interval()
        if other.is_empty:
            return Interval(self.lo, self.hi)
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    __or__ = union

    def intersect(self, other):
        other = Interval.coerce(other)
        if self.is_empty or other.is_empty:
            return Interval()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Interval()
        return Interval(lo, hi)

    __and__ = intersect

    def clip(self, other):
        """Clamp this interval into ``other`` (saturation in range domain).

        Unlike :meth:`intersect`, a disjoint interval collapses onto the
        nearest bound of ``other`` rather than becoming empty — exactly
        what a saturating quantizer does to out-of-range values.
        """
        other = Interval.coerce(other)
        if self.is_empty or other.is_empty:
            return Interval()
        lo = min(max(self.lo, other.lo), other.hi)
        hi = max(min(self.hi, other.hi), other.lo)
        return Interval(lo, hi)

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, fn):
        other = Interval.coerce(other)
        if self.is_empty or other.is_empty:
            return Interval()
        return fn(other)

    def __add__(self, other):
        return iv_add(self, Interval.coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return iv_sub(self, Interval.coerce(other))

    def __rsub__(self, other):
        return iv_sub(Interval.coerce(other), self)

    def __mul__(self, other):
        return iv_mul(self, Interval.coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        def div(o):
            if o.lo <= 0.0 <= o.hi:
                # Divisor range crosses (or touches) zero: unbounded result.
                return Interval.full()
            quotients = (_div_end(self.lo, o.lo), _div_end(self.lo, o.hi),
                         _div_end(self.hi, o.lo), _div_end(self.hi, o.hi))
            return Interval(min(quotients), max(quotients))
        return self._binary(other, div)

    def __rtruediv__(self, other):
        return Interval.coerce(other) / self

    def __neg__(self):
        return iv_neg(self)

    def __abs__(self):
        if self.is_empty:
            return Interval()
        if self.lo >= 0:
            return Interval(self.lo, self.hi)
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))

    def scale_pow2(self, k):
        """Multiply by ``2**k`` (arithmetic shift).

        A bound past the float range becomes the infinity of its sign; an
        infinite bound stays infinite however far it is shifted down.
        """
        if self.is_empty:
            return Interval()
        return Interval(_ldexp_end(self.lo, k), _ldexp_end(self.hi, k))

    def __lshift__(self, k):
        return self.scale_pow2(int(k))

    def __rshift__(self, k):
        return self.scale_pow2(-int(k))

    def power(self, k):
        """Raise to a non-negative integer power."""
        k = int(k)
        if k < 0:
            raise ValueError("negative powers are not supported")
        if self.is_empty:
            return Interval()
        if k == 0:
            return Interval.point(1.0)
        if k % 2 == 1:
            return Interval(_pow_end(self.lo, k), _pow_end(self.hi, k))
        mags = abs(self)
        return Interval(_pow_end(mags.lo, k), _pow_end(mags.hi, k))

    def minimum(self, other):
        return self._binary(other, lambda o: Interval(min(self.lo, o.lo),
                                                      min(self.hi, o.hi)))

    def maximum(self, other):
        return self._binary(other, lambda o: Interval(max(self.lo, o.lo),
                                                      max(self.hi, o.hi)))

    def widen_to(self, other):
        """Widening operator for fixpoint iteration: any bound that moved
        past the previous one jumps to infinity.

        Used by the analytical SFG propagation to force termination on
        feedback loops (the paper's MSB explosion then shows up as an
        unbounded interval).
        """
        other = Interval.coerce(other)
        if self.is_empty:
            return Interval(other.lo, other.hi) if not other.is_empty else Interval()
        if other.is_empty:
            return Interval(self.lo, self.hi)
        lo = self.lo if other.lo >= self.lo else -math.inf
        hi = self.hi if other.hi <= self.hi else math.inf
        return Interval(lo, hi)


#: Shared empty interval (immutable by convention).
EMPTY = Interval()

#: Shared unbounded interval.
FULL = Interval.full()


# -- hot-path helpers ---------------------------------------------------------
#
# The overloaded-operator simulation creates one interval per arithmetic
# operation per sample; these functions are the allocation-lean core the
# dunders (and repro.signal.expr directly) dispatch to.  They assume both
# operands are Interval instances — coercion stays in the dunders.

def fast_interval(lo, hi):
    """Interval from known-good float bounds, skipping validation.

    Internal fast path: callers guarantee ``lo <= hi`` (or the empty
    convention ``inf > -inf``) and non-NaN bounds.
    """
    new = Interval.__new__(Interval)
    new.lo = lo
    new.hi = hi
    return new


def iv_add(a, b):
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    if lo != lo or hi != hi:
        raise ValueError("interval bounds must not be NaN")
    return fast_interval(lo, hi)


def iv_sub(a, b):
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    lo = a.lo - b.hi
    hi = a.hi - b.lo
    if lo != lo or hi != hi:
        raise ValueError("interval bounds must not be NaN")
    return fast_interval(lo, hi)


def iv_mul(a, b):
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    p1 = _mul_end(a.lo, b.lo)
    p2 = _mul_end(a.lo, b.hi)
    p3 = _mul_end(a.hi, b.lo)
    p4 = _mul_end(a.hi, b.hi)
    lo = p1
    hi = p1
    if p2 < lo:
        lo = p2
    elif p2 > hi:
        hi = p2
    if p3 < lo:
        lo = p3
    elif p3 > hi:
        hi = p3
    if p4 < lo:
        lo = p4
    elif p4 > hi:
        hi = p4
    return fast_interval(lo, hi)


def iv_neg(a):
    if a.lo > a.hi:
        return EMPTY
    return fast_interval(-a.hi, -a.lo)


def eval_op(label, ins):
    """Interval semantics of one traced operation.

    ``label`` is the operation's trace label (``add``, ``select``,
    ``shr3``, ``cast<...>``, ...) and ``ins`` its operand intervals in
    position order.  The SFG range analysis evaluates every operation
    here and the interval-tape replay every one it has no fast path for.
    """
    if label == "add":
        return ins[0] + ins[1]
    if label == "sub":
        return ins[0] - ins[1]
    if label == "mul":
        return ins[0] * ins[1]
    if label == "div":
        return ins[0] / ins[1]
    if label == "neg":
        return -ins[0]
    if label == "abs":
        return abs(ins[0])
    if label == "min":
        return ins[0].minimum(ins[1])
    if label == "max":
        return ins[0].maximum(ins[1])
    if label in ("gt", "ge", "lt", "le"):
        return Interval(0.0, 1.0)
    if label == "select":
        # Operands are (cond?, if_true, if_false): value range is the
        # union of the two branches regardless of the condition.
        return ins[-2].union(ins[-1])
    if label.startswith("shl"):
        return ins[0].scale_pow2(int(label[3:]))
    if label.startswith("shr"):
        return ins[0].scale_pow2(-int(label[3:]))
    from repro.core.dtype import DType   # repro.core.dtype imports us
    dt = DType.from_cast_label(label)
    if dt is not None:
        if dt.msbspec == "saturate":
            return ins[0].clip(dt.range_interval())
        return ins[0]
    raise DesignError("unknown traced operation %r" % label)

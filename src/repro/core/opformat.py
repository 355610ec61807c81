"""The formats of a traced design's integer-code lowering.

The generated VHDL (:mod:`repro.hdl`), its cost model
(:mod:`repro.refine.cost`) and the bounded-model-checking encoder
(:mod:`repro.verify.encode`) lower a signal flow graph onto integer
codes under one rule: every operation computes its exact result, so
nothing is rounded inside an expression, and quantization happens only
where a signal is assigned.  This module states that rule once.

* :func:`derive_op_dtype` -- the format of every operation's exact
  result from its operands' formats: add and sub align to the finer
  LSB and grow one MSB bit, mul adds the fractional bits, a shift keeps
  the code and moves the binary point (``f`` may go negative);
* :func:`literal_code` / :func:`const_dtype` -- a literal is its exact
  dyadic code (every double is one);
* :func:`held_value` -- a signal with no recorded driver (a coefficient
  set in ``build()``) is driven by the value it holds, quantized
  through its type as an assignment would be;
* :func:`power_on_code` -- a register powers on at its initial value
  quantized through the saturating variant of its type (``set_init``).

>>> T = DType("T", 8, 5)
>>> derive_op_dtype("mul", [T, const_dtype(0.75)]).spec()
'<11,7,tc,wr,ro>'
>>> dt = derive_op_dtype("shl3", [DType("x", 8, 1)])
>>> (dt.n, dt.f)
(8, -2)
>>> literal_code(0.9)
(8106479329266893, 53)
"""

from __future__ import annotations

import math

from repro.core import word
from repro.core.dtype import DType
from repro.core.errors import DesignError

__all__ = ["UnsupportedOpError", "derive_op_dtype", "literal_code",
           "const_dtype", "held_value", "power_on_code"]


class UnsupportedOpError(DesignError):
    """The traced operation has no integer-code lowering (e.g. division)."""


def _fmt(label, msb, f):
    return DType(label, msb + f + 1, f, "tc", "wrap", "round")


def derive_op_dtype(label, operand_dtypes):
    """Exact (lossless) result format of one operation."""
    if label in ("add", "sub"):
        a, b = operand_dtypes
        return _fmt(label, max(a.msb, b.msb) + 1, max(a.f, b.f))
    if label == "mul":
        a, b = operand_dtypes
        return _fmt(label, a.msb + b.msb + 1, a.f + b.f)
    if label in ("neg", "abs"):
        (a,) = operand_dtypes
        return DType(label, a.n + 1, a.f, "tc", "wrap", "round")
    if label in ("min", "max"):
        a, b = operand_dtypes
        return _fmt(label, max(a.msb, b.msb), max(a.f, b.f))
    if label in ("gt", "ge", "lt", "le"):
        return DType(label, 2, 0, "tc", "wrap", "round")
    if label == "select":
        branches = operand_dtypes[-2:]
        return _fmt(label, max(d.msb for d in branches),
                    max(d.f for d in branches))
    if label[:3] in ("shl", "shr") and label[3:].lstrip("-").isdigit():
        (a,) = operand_dtypes
        k = int(label[3:])
        return DType(label, a.n, a.f - k if label[2] == "l" else a.f + k,
                     "tc", "wrap", "round")
    cast_dt = DType.from_cast_label(label)
    if cast_dt is not None:
        return cast_dt
    if label == "div":
        raise UnsupportedOpError(
            "division has no direct RTL mapping; restructure the design "
            "(reciprocal LUT / shift approximation) before HDL generation")
    raise UnsupportedOpError("no RTL mapping for traced op %r" % label)


def literal_code(value):
    """Exact dyadic ``(code, f)`` of a literal: ``value == code * 2**-f``
    with ``code`` odd (or zero), so ``f`` is negative for an even
    integer."""
    value = float(value)
    if value == 0.0:
        return 0, 0
    if not math.isfinite(value):
        raise DesignError("non-finite literal %r" % value)
    mant, e = math.frexp(abs(value))
    code = int(mant * (1 << 53))          # exact 53-bit mantissa
    tz = (code & -code).bit_length() - 1
    code >>= tz
    return (-code if value < 0.0 else code), 53 - e - tz


def const_dtype(value):
    """The narrowest format holding a literal's exact code."""
    code, f = literal_code(value)
    return DType("const", word.bit_length_signed(code), f, "tc", "wrap",
                 "round")


def held_value(sig):
    """The literal driving a signal with no recorded driver: the value
    the signal holds (0.0 for a graph node without its signal)."""
    return 0.0 if sig is None else float(sig.fx)


def power_on_code(dtype, value):
    """A register's power-on code: ``value`` quantized through the
    saturating variant of ``dtype``, as ``Reg.set_init`` does."""
    return dtype.saturating.quantize_code(*literal_code(value))[0]

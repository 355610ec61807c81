"""Value-domain quantization.

Maps real values onto the fixed-point grid defined by a wordlength ``n``
and fractional bit count ``f``, applying one of the paper's LSB rounding
modes (``round`` / ``floor``, plus the common extensions ``ceil`` and
``trunc``) followed by one of the MSB overflow modes (``wrap`` /
``saturate`` / ``error``).

Both a scalar path (used by the signal objects during simulation) and a
vectorized numpy path (used by block-level DSP reference models and the
throughput benchmarks) are provided; they produce bit-identical results.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core import word
from repro.core.errors import (DTypeError, FixedPointOverflowError,
                               NonFiniteError)
from repro.core.kernels import _CACHE as _kernel_cache
from repro.core.kernels import scalar_kernel as _scalar_kernel

__all__ = [
    "ROUNDING_MODES",
    "OVERFLOW_MODES",
    "QuantizeResult",
    "round_to_code",
    "quantize",
    "quantize_info",
    "quantize_array",
    "quantization_step",
    "value_min",
    "value_max",
]

#: LSB modes.  ``round`` is round-half-up (add half an LSB, floor) as used
#: by DSP hardware; ``floor`` truncates toward minus infinity; ``trunc``
#: truncates toward zero; ``ceil`` rounds toward plus infinity.
ROUNDING_MODES = ("round", "floor", "ceil", "trunc")

#: MSB modes, matching the paper's ``wr`` / ``st`` / ``er`` specifiers.
OVERFLOW_MODES = ("wrap", "saturate", "error")


class QuantizeResult(NamedTuple):
    """Outcome of a single quantization."""

    value: float  #: quantized real value
    code: int  #: integer code (value * 2**f)
    overflowed: bool  #: True when MSB handling modified the value
    error: float  #: quantized value minus the original value


def quantization_step(f):
    """Weight of one LSB: ``2**-f``."""
    return math.ldexp(1.0, -f)


def value_min(n, f, signed=True):
    """Smallest representable real value of the format."""
    return word.int_min(n, signed) * quantization_step(f)


def value_max(n, f, signed=True):
    """Largest representable real value of the format."""
    return word.int_max(n, signed) * quantization_step(f)


def round_to_code(value, f, rounding="round"):
    """Map a real value to an (unbounded) integer code at ``f`` fractional bits."""
    scaled = value * math.ldexp(1.0, f)
    if rounding == "round":
        return math.floor(scaled + 0.5)
    if rounding == "floor":
        return math.floor(scaled)
    if rounding == "ceil":
        return math.ceil(scaled)
    if rounding == "trunc":
        return math.trunc(scaled)
    raise DTypeError("unknown rounding mode %r (expected one of %s)"
                     % (rounding, ", ".join(ROUNDING_MODES)))


def quantize_info(value, n, f, signed=True, overflow="saturate",
                  rounding="round", name=None):
    """Quantize ``value`` and report what happened.

    Returns a :class:`QuantizeResult`.  In ``error`` overflow mode a
    :class:`FixedPointOverflowError` is raised when the rounded value does
    not fit — this is the paper's signal to the designer to widen the type
    or pick another MSB mode.
    """
    if overflow not in OVERFLOW_MODES:
        raise DTypeError("unknown overflow mode %r (expected one of %s)"
                         % (overflow, ", ".join(OVERFLOW_MODES)))
    if not math.isfinite(value):
        raise NonFiniteError(
            "cannot quantize non-finite value %r%s; enable a guard policy "
            "(DesignContext guard_action='record') to sanitize it"
            % (value, "" if name is None else " (signal %s)" % name),
            signal=name, value=value)
    code = round_to_code(value, f, rounding)
    overflowed = not word.fits(code, n, signed)
    if overflowed:
        if overflow == "error":
            raise FixedPointOverflowError(
                "value %r overflows <%d,%d,%s>%s"
                % (value, n, f, "tc" if signed else "us",
                   "" if name is None else " on signal %s" % name),
                signal=name, value=value)
        if overflow == "saturate":
            code = word.saturate_code(code, n, signed)
        else:  # wrap
            code = word.wrap_code(code, n, signed)
    qval = code * quantization_step(f)
    return QuantizeResult(qval, code, overflowed, qval - value)


def quantize(value, n, f, signed=True, overflow="saturate", rounding="round"):
    """Quantize ``value``; return only the quantized real value.

    Dispatches to a compiled per-format kernel (see
    :mod:`repro.core.kernels`); bit-identical to
    ``quantize_info(...).value``.
    """
    kernel = _kernel_cache.get((n, f, signed, overflow, rounding))
    if kernel is None:
        kernel = _scalar_kernel(n, f, signed, overflow, rounding)
    return kernel(value)[0]


class _VectorConsts:
    """Hoisted per-format constants of the vectorized path.

    ``np.ldexp``, the integer code bounds and the wrap span used to be
    recomputed on every :func:`quantize_array` call; one instance per
    ``(n, f, signed)`` format now carries them ready-made.
    """

    __slots__ = ("scale", "inv", "lo", "hi", "span", "offset")

    def __init__(self, n, f, signed):
        self.scale = float(np.ldexp(1.0, f))
        self.inv = float(np.ldexp(1.0, -f))
        self.lo = float(word.int_min(n, signed))
        self.hi = float(word.int_max(n, signed))
        self.span = float(1 << n)
        self.offset = float(1 << (n - 1)) if signed else 0.0


_VCONSTS = {}


def _vector_consts(n, f, signed):
    key = (n, f, signed)
    vc = _VCONSTS.get(key)
    if vc is None:
        vc = _VCONSTS[key] = _VectorConsts(n, f, signed)
    return vc


def _round_codes(scaled, rounding):
    """Round pre-scaled values to codes, in place."""
    if rounding == "round":
        scaled += 0.5
        return np.floor(scaled, out=scaled)
    if rounding == "floor":
        return np.floor(scaled, out=scaled)
    if rounding == "ceil":
        return np.ceil(scaled, out=scaled)
    if rounding == "trunc":
        return np.trunc(scaled, out=scaled)
    raise DTypeError("unknown rounding mode %r (expected one of %s)"
                     % (rounding, ", ".join(ROUNDING_MODES)))


def quantize_array(values, n, f, signed=True, overflow="saturate",
                   rounding="round", out_overflow=None, out=None):
    """Vectorized :func:`quantize` over a numpy array.

    Codes are kept in float64, which is exact for wordlengths up to 53
    bits — far beyond any practical DSP datapath.  When ``out_overflow``
    is a one-element list, the number of overflowed elements is appended
    to it (cheap way to get the count without a second pass).

    ``out`` may name a preallocated float64 buffer of the input's shape;
    the quantized values land there (and are returned) without any
    intermediate allocation beyond the working copy — the fast path for
    block reference models that quantize the same-sized frame each call.
    """
    if overflow not in OVERFLOW_MODES:
        raise DTypeError("unknown overflow mode %r (expected one of %s)"
                         % (overflow, ", ".join(OVERFLOW_MODES)))
    if n > 53:
        raise DTypeError("vectorized path supports wordlengths up to 53 bits")
    vc = _vector_consts(n, f, signed)
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        n_bad_vals = int(np.count_nonzero(~np.isfinite(arr)))
        raise NonFiniteError(
            "cannot quantize %d non-finite value(s); sanitize the array "
            "(np.nan_to_num) or fix the producer" % n_bad_vals)
    if out is not None:
        if (getattr(out, "shape", None) != arr.shape
                or getattr(out, "dtype", None) != np.float64):
            raise DTypeError("out buffer must be float64 with shape %r"
                             % (arr.shape,))
        codes = np.multiply(arr, vc.scale, out=out)
    else:
        codes = arr * vc.scale
    codes = _round_codes(codes, rounding)
    lo = vc.lo
    hi = vc.hi
    bad = (codes < lo) | (codes > hi)
    n_bad = int(np.count_nonzero(bad))
    if n_bad:
        if overflow == "error":
            raise FixedPointOverflowError(
                "%d values overflow <%d,%d,%s>"
                % (n_bad, n, f, "tc" if signed else "us"))
        if overflow == "saturate":
            np.clip(codes, lo, hi, out=codes)
        else:  # wrap
            # Reduce modulo the span, then fold the upper half down by
            # one span.  Both steps are exact in float64 for n <= 53:
            # fmod of a float is exact, and a remainder in
            # [2**(n-1), 2**n) minus 2**n lands in [-2**(n-1), 0).
            # Adding the signed offset to the remainder instead is not
            # exact at n = 53 (2**53 - 1 + 2**52 needs 54 bits).
            np.mod(codes, vc.span, out=codes)
            if signed:
                np.subtract(codes, vc.span, out=codes,
                            where=codes >= vc.offset)
    if out_overflow is not None:
        out_overflow.append(n_bad)
    codes *= vc.inv
    return codes

"""Compiled scalar quantizer kernels — the per-assignment fast path.

:func:`~repro.core.quantize.quantize_info` is the *reference*
implementation: readable, mode strings dispatched on every call, a
:class:`~repro.core.quantize.QuantizeResult` allocated per value.  That
is the right shape for reports and tests, but it is what every ``Sig``
assignment pays during a monitored simulation — and the paper's whole
argument is that simulation-based refinement stays close to
floating-point simulation speed.

This module compiles one specialized closure per fixed-point format
``(n, f, signed, overflow, rounding)``:

* the scale ``2**f``, inverse scale ``2**-f`` and integer code bounds
  are baked in as literals,
* rounding and overflow handling are selected once at build time, not
  per value,
* the kernel returns a plain ``(value, overflowed)`` tuple — no
  namedtuple, no string comparisons, no attribute lookups on the hot
  path.

Kernels are cached per format in a module-level table, so every
:class:`~repro.core.dtype.DType` (and every signal) with the same
characteristic shares one closure.  Bit-exactness against
``quantize_info`` is asserted by ``tests/test_property_kernels.py``
across all mode combinations.
"""

from __future__ import annotations

import math

from repro.core import word
from repro.core.errors import (DTypeError, FixedPointOverflowError,
                               NonFiniteError)

__all__ = ["scalar_kernel", "make_scalar_kernel", "kernel_cache_size"]

_ROUNDING = ("round", "floor", "ceil", "trunc")
_OVERFLOW = ("wrap", "saturate", "error")

#: (n, f, signed, overflow, rounding) -> compiled kernel closure.
_CACHE: dict = {}


def make_scalar_kernel(n, f, signed=True, overflow="saturate",
                       rounding="round"):
    """Build a specialized ``kernel(value) -> (qvalue, overflowed)``.

    The closure raises :class:`NonFiniteError` on NaN/inf input and, in
    ``error`` overflow mode, :class:`FixedPointOverflowError` on codes
    outside the word — the same contract as ``quantize_info``.  It tests
    finiteness only where the rounding fails: a finite value pays no
    ``isfinite`` call, so a ``Sig`` assignment, whose guard has already
    made its value finite, does not test it twice.
    """
    n = int(n)
    f = int(f)
    if n < 1:
        raise DTypeError("wordlength must be >= 1, got %d" % n)
    if rounding not in _ROUNDING:
        raise DTypeError("unknown rounding mode %r (expected one of %s)"
                         % (rounding, ", ".join(_ROUNDING)))
    if overflow not in _OVERFLOW:
        raise DTypeError("unknown overflow mode %r (expected one of %s)"
                         % (overflow, ", ".join(_OVERFLOW)))

    scale = math.ldexp(1.0, f)
    inv = math.ldexp(1.0, -f)
    lo = word.int_min(n, signed)
    hi = word.int_max(n, signed)
    lo_val = lo * inv
    hi_val = hi * inv
    # Two's-complement wrap as pure integer arithmetic:
    # ((code + off) & mask) - off  ==  word.wrap_code(code, n, signed).
    mask = (1 << n) - 1
    off = (1 << (n - 1)) if signed else 0
    isfinite = math.isfinite
    spec = "<%d,%d,%s>" % (n, f, "tc" if signed else "us")
    # code = rnd(value * scale + half) for every mode: round is
    # floor(x + 0.5); the other modes add 0.0, which changes x only when
    # it is -0.0, and -0.0 and +0.0 map to the same integer code.
    rnd = {"round": math.floor, "floor": math.floor, "ceil": math.ceil,
           "trunc": math.trunc}[rounding]
    half = 0.5 if rounding == "round" else 0.0

    def _non_finite(value):
        # Only a NaN or infinite product makes the rounding raise; a
        # finite value can still overflow there (a huge ``2**f``), and
        # that error is re-raised as it is.
        if isfinite(value):
            raise
        raise NonFiniteError(
            "cannot quantize non-finite value %r; enable a guard policy "
            "(DesignContext guard_action='record') to sanitize it"
            % (value,), value=value) from None

    if overflow == "saturate":
        def kernel(value):
            try:
                code = rnd(value * scale + half)
            except (ValueError, OverflowError):
                _non_finite(value)
            if code > hi:
                return hi_val, True
            if code < lo:
                return lo_val, True
            return code * inv, False
    elif overflow == "wrap":
        def kernel(value):
            try:
                code = rnd(value * scale + half)
            except (ValueError, OverflowError):
                _non_finite(value)
            if code > hi or code < lo:
                return (((code + off) & mask) - off) * inv, True
            return code * inv, False
    else:  # error
        def kernel(value):
            try:
                code = rnd(value * scale + half)
            except (ValueError, OverflowError):
                _non_finite(value)
            if code > hi or code < lo:
                raise FixedPointOverflowError(
                    "value %r overflows %s" % (value, spec), value=value)
            return code * inv, False

    return kernel


def scalar_kernel(n, f, signed=True, overflow="saturate", rounding="round"):
    """Cached :func:`make_scalar_kernel` (one closure per format)."""
    key = (n, f, signed, overflow, rounding)
    kernel = _CACHE.get(key)
    if kernel is None:
        kernel = _CACHE[key] = make_scalar_kernel(n, f, signed, overflow,
                                                  rounding)
    return kernel


def kernel_cache_size():
    """Number of distinct compiled kernels (diagnostics)."""
    return len(_CACHE)

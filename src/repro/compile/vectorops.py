"""Vectorized replicas of the scalar hot-path numerics.

Every helper here reproduces one piece of the interpreted engine's
per-assignment arithmetic (:meth:`repro.signal.signal.Sig._record`,
:mod:`repro.core.kernels`, :mod:`repro.core.stats`,
:mod:`repro.core.interval`) elementwise over a ``(B,)`` lane axis,
**bit-identically**: IEEE-754 float64 addition, multiplication and
division are deterministic, so applying the same operations in the same
order per lane yields the same doubles the scalar path produces.  Where
the scalar code uses strict comparisons with first-argument tie
preference (``min``/``max``, running min/max updates), the vector code
uses explicit strict-compare ``np.where``/``np.copyto`` masks rather
than ``np.minimum``, preserving even the sign-of-zero of the result.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import word
from repro.compile.tape import CompileFallback

__all__ = ["VStat", "VRange", "QuantGroup", "QuantPlan", "build_quant_plan",
           "vstat_update", "vrange_update", "IV_FNS", "iv_nan_check"]

_FRAC_CAP = 48  # RangeStat.FRAC_CAP


# -- Welford error statistics (ErrorStat) -------------------------------------


class VStat:
    """Vectorized :class:`repro.core.stats.ErrorStat` state."""

    __slots__ = ("count", "mean", "m2", "max_abs")

    def __init__(self, count, mean, m2, max_abs):
        self.count = count          # scalar int (structure-uniform)
        self.mean = mean            # (B,) float64
        self.m2 = m2
        self.max_abs = max_abs


def vstat_update(st, v, s1, s2):
    """One ``ErrorStat.update`` step per lane; ``s1``/``s2`` are scratch.

    ``v`` may be a scalar (constant assignment) or a ``(B,)`` array.
    Replicates: ``delta = v - mean; mean += delta / count;
    m2 += delta * (v - mean); max_abs = max(max_abs, abs(v))``.
    """
    st.count += 1
    np.subtract(v, st.mean, out=s1)             # delta
    np.divide(s1, float(st.count), out=s2)
    np.add(st.mean, s2, out=st.mean)
    np.subtract(v, st.mean, out=s2)             # v - updated mean
    np.multiply(s1, s2, out=s2)
    np.add(st.m2, s2, out=st.m2)
    if isinstance(v, np.ndarray):
        np.abs(v, out=s1)
    else:
        s1.fill(abs(v))
    # strict ``a > max_abs`` keeps the old value on ties, same as the
    # scalar code; both sides are >= +0.0 so np.maximum is identical.
    np.maximum(s1, st.max_abs, out=st.max_abs)


# -- Range statistics (RangeStat) ---------------------------------------------


class VRange:
    """Vectorized :class:`repro.core.stats.RangeStat` state."""

    __slots__ = ("count", "min", "max", "fb", "fb_open")

    def __init__(self, count, vmin, vmax, fb):
        self.count = count          # scalar int
        self.min = vmin             # (B,)
        self.max = vmax
        self.fb = fb                # (B,) int32 frac_bits
        self.fb_open = fb < _FRAC_CAP   # lanes still below the cap


def vrange_update(rs, v, s1, mb):
    """One ``RangeStat.update`` per lane (``s1`` float, ``mb`` bool scratch)."""
    rs.count += 1
    np.less(v, rs.min, out=mb)
    np.copyto(rs.min, v, where=mb)
    np.greater(v, rs.max, out=mb)
    np.copyto(rs.max, v, where=mb)
    if not rs.fb_open.any():
        return
    # Grid pre-check: a value already on the lane's 2^-fb grid cannot
    # raise frac_bits.  np.ldexp silently overflows to inf where
    # math.ldexp raises OverflowError; inf % 1.0 is nan != 0, so such
    # lanes land in the exact scalar replay below, which skips them as
    # ``RangeStat.update`` does (a value that large is an integer).
    np.ldexp(v, rs.fb, out=s1)
    np.mod(s1, 1.0, out=s1)
    np.not_equal(s1, 0.0, out=mb)
    np.logical_and(mb, rs.fb_open, out=mb)
    if mb.any():
        scalar = not isinstance(v, np.ndarray)
        for i in np.nonzero(mb)[0]:
            value = v if scalar else float(v[i])
            fb = int(rs.fb[i])
            try:
                scaled = math.ldexp(value, fb)
            except OverflowError:
                continue
            if scaled % 1.0 != 0.0:
                nfb = word.needed_frac_bits(value, cap=_FRAC_CAP)
                if nfb > fb:
                    rs.fb[i] = nfb
                    rs.fb_open[i] = nfb < _FRAC_CAP


# -- quantization plans -------------------------------------------------------


class QuantGroup:
    """One uniform (n, f, signed, overflow, rounding) lane subset."""

    __slots__ = ("idx", "scale", "inv", "lo", "hi", "span", "offset",
                 "mode", "rounding", "err_idx")

    def __init__(self, dtype, idx=None, err_idx=None):
        n, f, signed = dtype.n, dtype.f, dtype.vtype == "tc"
        self.idx = idx                  # lane indices (None = all lanes)
        self.scale = math.ldexp(1.0, f)
        self.inv = math.ldexp(1.0, -f)
        if signed:
            self.lo = float(-(1 << (n - 1)))
            self.hi = float((1 << (n - 1)) - 1)
            self.offset = float(1 << (n - 1))
        else:
            self.lo = 0.0
            self.hi = float((1 << n) - 1)
            self.offset = 0.0
        self.span = float(1 << n)
        # error-mode signals quantize through the *saturating* kernel
        # (Sig._bind_dtype) and raise separately on overflow.
        self.mode = "wrap" if dtype.msbspec == "wrap" else "saturate"
        if self.mode == "wrap" and n > 52:
            # The float wrap dance adds offset (2**(n-1)) to a code in
            # [0, 2**n); at n=53 that sum exceeds 2**53 and rounds,
            # while the scalar kernel's integer arithmetic is exact.
            raise CompileFallback(
                "wrap-mode dtype %s with n=%d > 52 cannot wrap exactly "
                "in float64" % (dtype.spec(), n))
        self.rounding = dtype.lsbspec
        self.err_idx = err_idx          # lanes that must raise on overflow

    def apply(self, v, out, codes, bad, b2):
        """Quantize ``v`` into ``out``, leaving the overflow mask in ``bad``.

        ``v`` scalar or an array shaped like ``out``; ``codes`` is a
        float64 scratch, ``bad``/``b2`` bool scratches.  Bit-identical
        to the scalar kernels: both compute the identical float64 code,
        and the wrap fmod dance equals the integer mask-and-offset at
        every magnitude (fmod by a power of two is exact).
        """
        if isinstance(v, np.ndarray):
            np.multiply(v, self.scale, out=codes)
        else:
            codes.fill(v)
            codes *= self.scale
        r = self.rounding
        if r == "round":
            np.add(codes, 0.5, out=codes)
            np.floor(codes, out=codes)
        elif r == "floor":
            np.floor(codes, out=codes)
        elif r == "ceil":
            np.ceil(codes, out=codes)
        elif r == "trunc":
            np.trunc(codes, out=codes)
        else:   # pragma: no cover - DType validates lsbspec
            raise CompileFallback("unknown rounding mode %r" % r)
        np.less(codes, self.lo, out=bad)
        np.greater(codes, self.hi, out=b2)
        np.logical_or(bad, b2, out=bad)
        if bad.any():
            if self.mode == "saturate":
                np.clip(codes, self.lo, self.hi, out=codes)
            else:       # wrap
                np.mod(codes, self.span, out=codes)
                np.add(codes, self.offset, out=codes)
                np.mod(codes, self.span, out=codes)
                np.subtract(codes, self.offset, out=codes)
        np.multiply(codes, self.inv, out=out)


class QuantPlan:
    """Per-signal quantization plan over the lane axis.

    ``groups`` is empty for an all-untyped signal (pass-through); one
    entry with ``idx=None`` when every lane shares a format (full-vector
    fast path); otherwise one gather/scatter group per distinct format
    plus an optional pass-through index set for untyped lanes.
    """

    __slots__ = ("groups", "passthrough_idx", "any_err")

    def __init__(self, groups, passthrough_idx, any_err):
        self.groups = groups
        self.passthrough_idx = passthrough_idx
        self.any_err = any_err


def _group_key(dt):
    return (dt.n, dt.f, dt.vtype,
            "wrap" if dt.msbspec == "wrap" else "saturate", dt.lsbspec)


def build_quant_plan(dtypes):
    """Build a :class:`QuantPlan` from one signal's per-lane dtypes.

    ``dtypes``: list of :class:`~repro.core.dtype.DType` or ``None`` per
    lane.  Raises :class:`CompileFallback` for formats the float64 code
    path cannot represent exactly (n > 53).
    """
    if all(dt is None for dt in dtypes):
        return QuantPlan((), None, False)
    by_key = {}
    untyped = []
    err_lanes = {}
    for lane, dt in enumerate(dtypes):
        if dt is None:
            untyped.append(lane)
            continue
        if dt.n > 53:
            raise CompileFallback(
                "dtype %s has n=%d > 53; codes are not exact in float64"
                % (dt.spec(), dt.n))
        key = _group_key(dt)
        by_key.setdefault(key, (dt, []))[1].append(lane)
        if dt.msbspec == "error":
            err_lanes.setdefault(key, []).append(lane)
    groups = []
    if not untyped and len(by_key) == 1:
        (dt, lanes), = by_key.values()
        key = _group_key(dt)
        err = err_lanes.get(key)
        groups.append(QuantGroup(
            dt, idx=None,
            err_idx=np.asarray(err, dtype=np.intp) if err else None))
        return QuantPlan(tuple(groups), None, bool(err))
    any_err = False
    for key in sorted(by_key):
        dt, lanes = by_key[key]
        err = err_lanes.get(key)
        if err:
            any_err = True
            # positions of the error lanes *within* this group's gather
            pos = {lane: p for p, lane in enumerate(lanes)}
            err_idx = np.asarray([pos[l] for l in err], dtype=np.intp)
        else:
            err_idx = None
        groups.append(QuantGroup(dt, idx=np.asarray(lanes, dtype=np.intp),
                                 err_idx=err_idx))
    pt = np.asarray(untyped, dtype=np.intp) if untyped else None
    return QuantPlan(tuple(groups), pt, any_err)


# -- interval arithmetic ------------------------------------------------------
#
# Bounds are (lo, hi) pairs, each a float or a (B,) array.  These run
# only when an operand's interval actually changed (version-gated in the
# executor), so clarity wins over out= buffers here.  Each formula is a
# transcription of the corresponding repro.core.interval code, with
# python min/max replaced by strict-compare np.where (first-argument tie
# preference preserved).


def iv_nan_check(lo, hi):
    """The scalar engine raises ValueError on NaN interval bounds."""
    bad = np.any(np.isnan(lo)) or np.any(np.isnan(hi))
    if bad:
        raise CompileFallback(
            "NaN interval bound (the interpreted engine raises here)")


def _vmin(a, b):
    return np.where(np.less(b, a), b, a)


def _vmax(a, b):
    return np.where(np.greater(b, a), b, a)


def iv_vadd(a, b):
    lo, hi = a[0] + b[0], a[1] + b[1]
    iv_nan_check(lo, hi)
    return lo, hi


def iv_vsub(a, b):
    lo, hi = a[0] - b[1], a[1] - b[0]
    iv_nan_check(lo, hi)
    return lo, hi


def _mul_end(x, y):
    # 0 * inf = 0, as interval endpoint products require (_mul_end).
    return np.where(np.logical_or(np.equal(x, 0.0), np.equal(y, 0.0)),
                    0.0, np.multiply(x, y))


def iv_vmul(a, b):
    p1 = _mul_end(a[0], b[0])
    p2 = _mul_end(a[0], b[1])
    p3 = _mul_end(a[1], b[0])
    p4 = _mul_end(a[1], b[1])
    # iv_mul's elif chain is equivalent to independent strict updates
    # because lo <= hi holds throughout.
    lo = hi = p1
    for p in (p2, p3, p4):
        lo = np.where(np.less(p, lo), p, lo)
        hi = np.where(np.greater(p, hi), p, hi)
    iv_nan_check(lo, hi)
    return lo, hi


def iv_vneg(a):
    return -a[1], -a[0]


def iv_vabs(a):
    lo, hi = a[0], a[1]
    nonneg = np.greater_equal(lo, 0.0)
    nonpos = np.less_equal(hi, 0.0)
    out_lo = np.where(nonneg, lo, np.where(nonpos, -hi, 0.0))
    # max(-lo, hi) with first-argument tie preference (-lo).
    mixed_hi = np.where(np.greater(hi, -lo), hi, -lo)
    out_hi = np.where(nonneg, hi, np.where(nonpos, -lo, mixed_hi))
    return out_lo, out_hi


def _div_end(x, y):
    # inf / inf takes the infinity of the quotient's sign (_div_end).
    q = np.divide(x, y)
    return np.where(np.isnan(q),
                    np.copysign(math.inf, x) * np.copysign(1.0, y), q)


def iv_vdiv(a, b):
    crossing = np.logical_and(np.less_equal(b[0], 0.0),
                              np.less_equal(0.0, b[1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qs = (_div_end(a[0], b[0]), _div_end(a[0], b[1]),
              _div_end(a[1], b[0]), _div_end(a[1], b[1]))
        lo = hi = qs[0]
        for q in qs[1:]:
            lo = np.where(np.less(q, lo), q, lo)
            hi = np.where(np.greater(q, hi), q, hi)
    lo = np.where(crossing, -math.inf, lo)
    hi = np.where(crossing, math.inf, hi)
    iv_nan_check(lo, hi)
    return lo, hi


def iv_vunion(a, b):
    return _vmin(a[0], b[0]), _vmax(a[1], b[1])


def iv_vminimum(a, b):
    return _vmin(a[0], b[0]), _vmin(a[1], b[1])


def iv_vmaximum(a, b):
    return _vmax(a[0], b[0]), _vmax(a[1], b[1])


def iv_vscale(a, factor):
    return a[0] * factor, a[1] * factor


def iv_vclip(a, clo, chi):
    # Interval.clip: lo = min(max(lo, clo), chi); hi = max(min(hi, chi), clo)
    lo = _vmin(_vmax(a[0], clo), chi)
    hi = _vmax(_vmin(a[1], chi), clo)
    return lo, hi


IV_FNS = {
    "add": iv_vadd, "sub": iv_vsub, "mul": iv_vmul, "div": iv_vdiv,
    "neg": iv_vneg, "abs": iv_vabs,
    "min": iv_vminimum, "max": iv_vmaximum,
}

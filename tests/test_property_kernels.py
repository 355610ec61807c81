"""Bit-exactness of the compiled fast paths vs the reference quantizer.

The compiled scalar kernels (:mod:`repro.core.kernels`) and the
vectorized path (:func:`repro.core.quantize.quantize_array`) exist
purely for speed — they must agree with :func:`quantize_info` (the
straight-line reference implementation) to the last bit, across every
rounding x overflow mode, signed and unsigned, for every representable
wordlength (the float-code paths are exact up to n = 53), and in
particular at the nasty spots: exact format boundaries and half-LSB
ties.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dtype import DType
from repro.core.errors import FixedPointOverflowError, NonFiniteError
from repro.core.kernels import kernel_cache_size, scalar_kernel
from repro.core.quantize import quantize, quantize_array, quantize_info

ROUNDINGS = ("round", "floor", "ceil", "trunc")
OVERFLOWS = ("wrap", "saturate", "error")

formats = st.tuples(
    st.integers(min_value=1, max_value=53),   # n
    st.integers(min_value=-8, max_value=40),  # f (negative = coarse grids)
    st.booleans(),                            # signed
)
values = st.floats(min_value=-1e9, max_value=1e9,
                   allow_nan=False, allow_infinity=False)
roundings = st.sampled_from(ROUNDINGS)
overflows = st.sampled_from(OVERFLOWS)


def _reference(v, n, f, signed, overflow, rounding):
    """quantize_info collapsed to (value, overflowed, raised)."""
    try:
        info = quantize_info(v, n, f, signed=signed, overflow=overflow,
                             rounding=rounding)
        return info.value, info.overflowed, None
    except FixedPointOverflowError:
        return None, None, FixedPointOverflowError


def _assert_kernel_matches(v, n, f, signed, overflow, rounding):
    ref_val, ref_ovf, ref_exc = _reference(v, n, f, signed, overflow,
                                           rounding)
    kernel = scalar_kernel(n, f, signed, overflow, rounding)
    if ref_exc is not None:
        with pytest.raises(FixedPointOverflowError):
            kernel(v)
        return
    qv, ovf = kernel(v)
    assert qv == ref_val, \
        "kernel<%d,%d,%s,%s,%s>(%r) = %r != reference %r" % (
            n, f, signed, overflow, rounding, v, qv, ref_val)
    assert ovf == ref_ovf
    # The signs must match too: 0.0 vs -0.0 both compare equal but
    # differ downstream (1/x, copysign).
    assert math.copysign(1.0, qv) == math.copysign(1.0, ref_val)


class TestScalarKernelBitExact:
    @given(values, formats, overflows, roundings)
    @settings(max_examples=400, deadline=None)
    def test_random_values(self, v, fmt, overflow, rounding):
        n, f, signed = fmt
        _assert_kernel_matches(v, n, f, signed, overflow, rounding)

    @given(formats, overflows, roundings,
           st.integers(min_value=-6, max_value=6))
    @settings(max_examples=400, deadline=None)
    def test_boundary_and_ties(self, fmt, overflow, rounding, k):
        """Exact code grid points, format boundaries, and half-LSB ties."""
        n, f, signed = fmt
        lsb = math.ldexp(1.0, -f)
        lo = -math.ldexp(1.0, n - 1) * lsb if signed else 0.0
        hi = (math.ldexp(1.0, n - 1) - 1) * lsb if signed \
            else (math.ldexp(1.0, n) - 1) * lsb
        probes = [
            lo + k * lsb, hi + k * lsb,            # around the boundaries
            k * lsb, k * lsb + 0.5 * lsb,          # grid points + ties
            lo - 0.5 * lsb, hi + 0.5 * lsb,        # ties at the edges
        ]
        for v in probes:
            if math.isfinite(v) and abs(v) < 1e300:
                _assert_kernel_matches(v, n, f, signed, overflow, rounding)

    @given(values, formats, overflows, roundings)
    @settings(max_examples=200, deadline=None)
    def test_quantize_dispatch_matches(self, v, fmt, overflow, rounding):
        """The public quantize() entry point uses the same kernels."""
        n, f, signed = fmt
        ref_val, _, ref_exc = _reference(v, n, f, signed, overflow, rounding)
        if ref_exc is not None:
            with pytest.raises(FixedPointOverflowError):
                quantize(v, n, f, signed=signed, overflow=overflow,
                         rounding=rounding)
        else:
            assert quantize(v, n, f, signed=signed, overflow=overflow,
                            rounding=rounding) == ref_val

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("overflow", OVERFLOWS)
    def test_signed_zeros_and_halfway_points(self, overflow, rounding):
        """The kernels compute every mode as ``rnd(v * 2**f + half)``
        with ``half`` 0.0 outside round-to-nearest; adding 0.0 turns a
        -0.0 product into +0.0, which must not change the code.  Probe
        both zeros, tiny values whose product underflows to -0.0 on a
        coarse grid, and exact half-LSB ties of both signs."""
        ties = [k + d for k in range(-4, 4) for d in (0.25, 0.5, 0.75)]
        tiny = [0.0, -0.0, math.ulp(0.0), -math.ulp(0.0)]
        for n, f in ((8, 0), (8, 4), (12, -3), (53, 40)):
            lsb = math.ldexp(1.0, -f)
            for signed in (True, False):
                for v in tiny + [t * lsb for t in ties]:
                    _assert_kernel_matches(v, n, f, signed, overflow,
                                           rounding)
        # Both zeros, and a product that underflows to -0.0 (f = -3),
        # quantize to +0.0 in every mode.
        for v, f in ((0.0, 4), (-0.0, 4), (-0.0, -3), (-math.ulp(0.0), -3)):
            assert v * math.ldexp(1.0, f) == 0.0
            qv, ovf = scalar_kernel(8, f, True, overflow, rounding)(v)
            assert (qv, math.copysign(1.0, qv), ovf) == (0.0, 1.0, False)
        # Exact ties at f = 4: round goes up, the other modes keep
        # their direction.
        kernel = scalar_kernel(8, 4, True, overflow, rounding)
        tie = {"round": (0.0625, 0.0), "floor": (0.0, -0.0625),
               "ceil": (0.0625, 0.0), "trunc": (0.0, 0.0)}[rounding]
        assert (kernel(0.03125)[0], kernel(-0.03125)[0]) == tie

    def test_non_finite_raises(self):
        kernel = scalar_kernel(8, 4)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteError):
                kernel(bad)

    def test_kernel_cache_reuse(self):
        before = kernel_cache_size()
        k1 = scalar_kernel(17, 11, True, "wrap", "ceil")
        k2 = scalar_kernel(17, 11, True, "wrap", "ceil")
        assert k1 is k2
        assert kernel_cache_size() >= before


class TestVectorPathBitExact:
    @given(st.lists(values, min_size=1, max_size=40),
           formats, st.sampled_from(("wrap", "saturate")), roundings)
    @settings(max_examples=200, deadline=None)
    def test_array_matches_reference(self, vals, fmt, overflow, rounding):
        n, f, signed = fmt
        refs = [quantize_info(v, n, f, signed=signed, overflow=overflow,
                              rounding=rounding).value for v in vals]
        got = quantize_array(np.array(vals), n, f, signed=signed,
                             overflow=overflow, rounding=rounding)
        np.testing.assert_array_equal(got, np.array(refs))

    @given(st.lists(values, min_size=1, max_size=40), formats, roundings)
    @settings(max_examples=100, deadline=None)
    def test_out_buffer_path_identical(self, vals, fmt, rounding):
        n, f, signed = fmt
        arr = np.array(vals)
        plain = quantize_array(arr, n, f, signed=signed, rounding=rounding)
        out = np.empty(arr.shape)
        reused = quantize_array(arr, n, f, signed=signed, rounding=rounding,
                                out=out)
        assert reused is out
        np.testing.assert_array_equal(plain, out)


class TestDTypeFastPaths:
    @given(values, st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=20), overflows, roundings)
    @settings(max_examples=200, deadline=None)
    def test_dtype_quantize_matches(self, v, n, f, overflow, rounding):
        dt = DType("T", n, f, "tc", overflow, rounding)
        ref_val, _, ref_exc = _reference(v, n, f, True, overflow, rounding)
        if ref_exc is not None:
            with pytest.raises(FixedPointOverflowError):
                dt.quantize(v)
        else:
            assert dt.quantize(v) == ref_val

    def test_saturating_variant_cached(self):
        dt = DType("T", 10, 6, "tc", "wrap", "round")
        assert dt.saturating is dt.saturating
        assert dt.saturating.msbspec == "saturate"
        sat = DType("S", 10, 6, "tc", "saturate", "round")
        assert sat.saturating is sat

    def test_pickle_roundtrip_drops_kernel_caches(self):
        import pickle
        dt = DType("T", 10, 6, "tc", "saturate", "round")
        dt.kernel  # force the caches to exist
        dt.saturating
        clone = pickle.loads(pickle.dumps(dt))
        assert (clone.name, clone.n, clone.f, clone.vtype, clone.msbspec,
                clone.lsbspec) == (dt.name, dt.n, dt.f, dt.vtype,
                                   dt.msbspec, dt.lsbspec)
        assert clone.quantize(0.3) == dt.quantize(0.3)


class TestAssignmentKernel:
    """A signal quantizes through its type's kernel, which tests
    finiteness only where the rounding fails: the assignment's guard
    has already made the value finite, so it is not tested twice."""

    @pytest.mark.parametrize("signed", [True, False], ids=["tc", "us"])
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("overflow", ("saturate", "wrap"))
    def test_assignment_matches_reference(self, overflow, rounding, signed):
        from repro.signal import DesignContext, Sig
        dt = DType("T", 9, 5, "tc" if signed else "us", overflow, rounding)
        rng = np.random.default_rng(7)
        lsb = math.ldexp(1.0, -5)
        probes = ([0.0, -0.0, 0.5 * lsb, -0.5 * lsb, 1e300, -1e300]
                  + [k * 0.5 * lsb for k in range(-40, 40)]
                  + rng.uniform(-40.0, 40.0, 300).tolist())
        with DesignContext("kern", overflow_action="record") as ctx:
            s = Sig("s", dt)
            assert s._kernel is dt.kernel
            for v in probes:
                info = quantize_info(v, 9, 5, signed=signed,
                                     overflow=overflow, rounding=rounding)
                ovf0 = s.overflow_count
                s.assign(v)
                assert (s.fx, math.copysign(1.0, s.fx)) == \
                    (info.value, math.copysign(1.0, info.value)), v
                assert s.overflow_count - ovf0 == info.overflowed, v
                ctx.tick()

    def test_error_mode_signal_binds_the_saturating_kernel(self):
        from repro.signal import DesignContext, Sig
        dt = DType("T", 8, 4, "tc", "error", "round")
        with DesignContext("kern"):
            assert Sig("s", dt)._kernel is dt.saturating.kernel

    @pytest.mark.parametrize("signed", [True, False], ids=["tc", "us"])
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("overflow", OVERFLOWS)
    def test_non_finite_raises_everywhere(self, overflow, rounding, signed):
        from repro.signal import DesignContext, as_expr
        from repro.signal.ops import cast
        dt = DType("T", 8, 4, "tc" if signed else "us", overflow, rounding)
        with DesignContext("kern"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(NonFiniteError):
                    dt.kernel(bad)
                with pytest.raises(NonFiniteError):
                    dt.quantize(bad)
                with pytest.raises(NonFiniteError):
                    dt.quantize_info(bad)
                with pytest.raises(NonFiniteError):
                    cast(as_expr(bad), dt)

    def test_finite_overflow_in_the_rounding_is_not_non_finite(self):
        # 1e300 * 2**100 is inf: the rounding fails on a finite value,
        # which stays the OverflowError it always was.
        kernel = scalar_kernel(53, 100, True, "saturate", "round")
        with pytest.raises(OverflowError) as exc:
            kernel(1e300)
        assert not isinstance(exc.value, NonFiniteError)

    def test_guard_raises_before_the_kernel(self):
        from repro.signal import DesignContext, Sig
        dt = DType("T", 8, 4, "tc", "saturate", "round")
        with DesignContext("kern", guard_action="raise") as ctx:
            s = Sig("s", dt)
            s.assign(0.5)
            ctx.tick()
            with pytest.raises(NonFiniteError) as exc:
                s.assign(math.nan)
        assert str(exc.value) == ("non-finite value reached signal 's' at "
                                  "cycle 1 (fx=nan, fl=nan)")
        assert s.range_stat.count == 1

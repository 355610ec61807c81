"""Unit tests for repro.core.stats (monitor accumulators)."""

import math

import numpy as np
import pytest

from repro.core.stats import ErrorStat, RangeStat


class TestRangeStat:
    def test_empty(self):
        rs = RangeStat()
        assert rs.is_empty
        assert rs.count == 0
        assert rs.max_abs == 0.0
        assert rs.required_msb() is None

    def test_update(self):
        rs = RangeStat()
        rs.update_many([0.5, -1.5, 1.0])
        assert rs.count == 3
        assert rs.min == -1.5
        assert rs.max == 1.0
        assert rs.max_abs == 1.5

    def test_required_msb(self):
        rs = RangeStat()
        rs.update_many([-1.5, 1.5])
        assert rs.required_msb() == 1

    def test_required_msb_zero_signal(self):
        rs = RangeStat()
        rs.update(0.0)
        assert rs.required_msb() is None

    def test_reset(self):
        rs = RangeStat()
        rs.update(1.0)
        rs.reset()
        assert rs.is_empty

    def test_as_dict(self):
        rs = RangeStat()
        rs.update(2.0)
        assert rs.as_dict() == {"count": 1, "min": 2.0, "max": 2.0,
                                "frac_bits": 0}

    def test_frac_bits_tracking(self):
        rs = RangeStat()
        rs.update(1.0)
        assert rs.frac_bits == 0
        rs.update(0.75)
        assert rs.frac_bits == 2
        rs.update(0.11)  # non-terminating in binary -> cap
        assert rs.frac_bits == RangeStat.FRAC_CAP

    def test_huge_value_is_on_every_grid(self):
        # ldexp(1e308, 2) overflows; a float that large is an integer, so
        # it neither raises nor moves frac_bits.
        rs = RangeStat()
        rs.update(0.75)
        rs.update(1e308)
        assert rs.frac_bits == 2
        assert rs.max == 1e308
        assert rs.count == 2


def _rs_state(rs):
    return repr((rs.count, rs.min, rs.max, rs.frac_bits))


def _es_state(es):
    return repr((es.count, es.mean, es._m2, es.max_abs))


#: Quantized values, float noise, signed zeros, repeats and extremes.
def _mixed_values(n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 3.0, n)
    xs[::7] = np.round(xs[::7] * 64.0) / 64.0
    xs[::11] = 0.0
    xs[5::11] = -0.0
    xs[3::13] = 1e308
    xs[4::17] = -2.0 ** 60
    return xs.tolist()


class TestUpdateMany:
    """``update_many`` equals repeated ``update`` bit for bit."""

    @pytest.mark.parametrize("chunks", [(1000,), (1, 999), (300, 700),
                                        (512, 488), (7,) * 142 + (6,)])
    def test_range_stat_chunked(self, chunks):
        xs = _mixed_values(1000, 1)
        ref = RangeStat()
        for v in xs:
            ref.update(v)
        bulk = RangeStat()
        i = 0
        for n in chunks:
            bulk.update_many(xs[i:i + n])
            i += n
        assert i == len(xs)
        assert _rs_state(bulk) == _rs_state(ref)

    @pytest.mark.parametrize("chunks", [(1000,), (1, 999), (300, 700),
                                        (512, 488), (7,) * 142 + (6,)])
    def test_error_stat_chunked(self, chunks):
        xs = _mixed_values(1000, 2)
        ref = ErrorStat()
        for v in xs:
            ref.update(v)
        bulk = ErrorStat()
        i = 0
        for n in chunks:
            bulk.update_many(np.array(xs[i:i + n]))
            i += n
        assert _es_state(bulk) == _es_state(ref)

    def test_not_merge(self):
        # Two chunks must continue one Welford recurrence, bit for bit;
        # Chan et al.'s parallel combination would only come close.
        xs = _mixed_values(1000, 3)
        ref = ErrorStat()
        for v in xs:
            ref.update(v)
        bulk = ErrorStat()
        bulk.update_many(xs[:333])
        bulk.update_many(xs[333:])
        assert _es_state(bulk) == _es_state(ref)

    def test_empty_chunk_is_noop(self):
        rs, es = RangeStat(), ErrorStat()
        rs.update_many([])
        es.update_many(np.empty(0))
        assert rs.is_empty and es.is_empty
        assert rs.min == math.inf and es.mean == 0.0

    @pytest.mark.parametrize("xs", [[0.0, -0.0], [-0.0, 0.0],
                                     [1.0, 0.0, -0.0, 2.0],
                                     [-1.0, -0.0, 0.0, -2.0]])
    def test_signed_zero_order(self, xs):
        ref = RangeStat()
        for v in xs:
            ref.update(v)
        bulk = RangeStat()
        bulk.update_many(xs)
        assert _rs_state(bulk) == _rs_state(ref)

    def test_signed_zero_first_one_stays(self):
        rs = RangeStat()
        rs.update_many([0.0, -0.0])
        assert rs.min == 0.0 and math.copysign(1.0, rs.min) == 1.0
        assert math.copysign(1.0, rs.max) == 1.0
        rs = RangeStat()
        rs.update_many([-0.0, 0.0])
        assert math.copysign(1.0, rs.min) == -1.0
        assert math.copysign(1.0, rs.max) == -1.0
        # The stored bound wins over an equal value of a later chunk.
        rs.update_many([0.0])
        assert math.copysign(1.0, rs.min) == -1.0

    def test_frac_bits_beyond_ldexp_range(self):
        # 1e308 * 2**2 overflows: an integer, on every grid.
        rs = RangeStat()
        rs.update_many([0.75, 1e308, -1.7e308])
        assert rs.frac_bits == 2
        assert rs.max == 1e308 and rs.min == -1.7e308
        rs = RangeStat()
        rs.update_many([1e308, 0.75])
        assert rs.frac_bits == 2

    def test_frac_bits_past_cap(self):
        # 2**-60 needs 60 fractional bits: saturates at FRAC_CAP, and a
        # capped accumulator stays capped.
        rs = RangeStat()
        rs.update_many([0.5, 2.0 ** -60, 0.25])
        assert rs.frac_bits == RangeStat.FRAC_CAP
        rs.update_many([0.1, 2.0 ** -70])
        assert rs.frac_bits == RangeStat.FRAC_CAP
        ref = RangeStat()
        for v in (0.5, 2.0 ** -60, 0.25, 0.1, 2.0 ** -70):
            ref.update(v)
        assert _rs_state(rs) == _rs_state(ref)

    def test_frac_bits_just_below_cap(self):
        ref = RangeStat()
        bulk = RangeStat()
        xs = [2.0 ** -47, 3 * 2.0 ** -48, 2.0 ** -49]
        for v in xs:
            ref.update(v)
        bulk.update_many(xs)
        assert bulk.frac_bits == ref.frac_bits == RangeStat.FRAC_CAP

    @pytest.mark.parametrize("xs", [[1.0, math.nan, -2.0],
                                    [math.nan, math.nan],
                                    [0.5, math.inf, -math.inf, 0.25]])
    def test_non_finite_follow_update(self, xs):
        # The monitors never see these (the assignment guard runs
        # first); the bulk path still does what update does, which for
        # the range monitor's grid test means raising.
        ref_e = ErrorStat()
        for v in xs:
            ref_e.update(v)
        bulk_e = ErrorStat()
        bulk_e.update_many(xs)
        assert _es_state(bulk_e) == _es_state(ref_e)
        with pytest.raises((ValueError, OverflowError)) as ref_exc:
            ref_r = RangeStat()
            for v in xs:
                ref_r.update(v)
        with pytest.raises(ref_exc.type):
            RangeStat().update_many(xs)


class TestErrorStat:
    def test_empty(self):
        es = ErrorStat()
        assert es.is_empty
        assert es.std == 0.0
        assert es.rms == 0.0

    def test_known_values(self):
        es = ErrorStat()
        es.update_many([1.0, 2.0, 3.0, 4.0])
        assert es.count == 4
        assert es.mean == pytest.approx(2.5)
        assert es.variance == pytest.approx(1.25)
        assert es.std == pytest.approx(math.sqrt(1.25))
        assert es.max_abs == 4.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(0.1, 2.0, size=10_000)
        es = ErrorStat()
        es.update_many(xs.tolist())
        assert es.mean == pytest.approx(np.mean(xs), rel=1e-9)
        assert es.std == pytest.approx(np.std(xs), rel=1e-9)
        assert es.max_abs == pytest.approx(np.max(np.abs(xs)))

    def test_rms_combines_bias_and_spread(self):
        es = ErrorStat()
        es.update_many([1.0, 1.0, 1.0])
        assert es.std == 0.0
        assert es.rms == pytest.approx(1.0)

    def test_numerical_stability_large_offset(self):
        # Welford must survive a huge common offset.
        es = ErrorStat()
        offset = 1e9
        es.update_many([offset + v for v in (-1.0, 0.0, 1.0)])
        assert es.std == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-6)

    def test_reset(self):
        es = ErrorStat()
        es.update(5.0)
        es.reset()
        assert es.is_empty
        assert es.max_abs == 0.0

    def test_as_dict_keys(self):
        es = ErrorStat()
        es.update(1.0)
        assert set(es.as_dict()) == {"count", "mean", "std", "max_abs"}

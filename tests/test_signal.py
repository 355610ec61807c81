"""Unit tests for the signal layer (Sig/Reg, monitors, annotations)."""

import math

import pytest

from repro.core.dtype import DType
from repro.core.errors import (DesignError, FixedPointOverflowError)
from repro.core.interval import Interval
from repro.signal import (DesignContext, Reg, Sig, as_expr, cast,
                          current_context, select)


@pytest.fixture
def ctx():
    with DesignContext("test", seed=0) as c:
        yield c


T85 = DType("T", 8, 5, "tc", "saturate", "round")


class TestBasicAssignment:
    def test_float_signal_passthrough(self, ctx):
        a = Sig("a")
        a.assign(0.123456)
        assert a.fx == 0.123456
        assert a.fl == 0.123456

    def test_fixed_signal_quantizes(self, ctx):
        a = Sig("a", T85)
        a.assign(0.40)
        assert a.fx == pytest.approx(13 / 32)
        assert a.fl == 0.40  # reference untouched

    def test_error_query(self, ctx):
        a = Sig("a", T85)
        a.assign(0.40)
        assert a.error() == pytest.approx(0.40 - 13 / 32)

    def test_ilshift_assign(self, ctx):
        a = Sig("a", T85)
        a <<= 0.5
        assert a.fx == 0.5

    def test_assign_expression(self, ctx):
        a = Sig("a", T85)
        b = Sig("b", T85)
        c = Sig("c", T85)
        a.assign(0.5)
        b.assign(0.25)
        c.assign(a * b + 1)
        assert c.fx == pytest.approx(1.125)

    def test_float_conversion(self, ctx):
        a = Sig("a", T85)
        a.assign(0.5)
        assert float(a) == 0.5

    def test_invalid_dtype_rejected(self, ctx):
        with pytest.raises(DesignError):
            Sig("a", dtype="not-a-dtype")

    def test_init_value(self, ctx):
        a = Sig("a", init=2.0)
        assert a.fx == 2.0


class TestDualSimulation:
    """The coupled float/fixed simulation of Section 4.2."""

    def test_fl_tracks_unquantized_math(self, ctx):
        a = Sig("a", T85)
        b = Sig("b")
        a.assign(0.40)          # fx = 13/32, fl = 0.40
        b.assign(a * 3.0)
        assert b.fx == pytest.approx(3 * 13 / 32)
        assert b.fl == pytest.approx(1.2)

    def test_consumed_vs_produced(self, ctx):
        a = Sig("a", T85)
        a.assign(0.40)
        b = Sig("b", DType("coarse", 6, 2))
        b.assign(a * 1.0)
        # consumed error: upstream quantization of a.
        assert b.err_consumed.max_abs == pytest.approx(abs(0.40 - 13 / 32))
        # produced error adds b's own (coarser) quantization.
        assert b.err_produced.max_abs >= b.err_consumed.max_abs

    def test_control_steered_by_fixed(self, ctx):
        # fx and fl fall on different sides of the threshold; both
        # simulations must follow the fixed-point decision.
        a = Sig("a", DType("t", 4, 1))
        a.assign(0.24)          # fx = 0.0, fl = 0.24
        out = select(a > 0.1, 1.0, -1.0)
        assert out.fx == -1.0
        assert out.fl == -1.0   # same branch, no spurious error

    def test_relationals_use_fx(self, ctx):
        a = Sig("a", DType("t", 4, 1))
        a.assign(0.24)
        assert not (a > 0.1)
        assert a < 0.1
        assert a <= 0.0
        assert a >= 0.0
        assert a.eq(0.0)


class TestRangeMonitoring:
    def test_stat_range_tracks_incoming(self, ctx):
        a = Sig("a", T85)
        a.assign(10.0)  # saturates, but the monitor sees the raw value
        assert a.range_stat.max == 10.0
        assert a.fx == T85.max_value

    def test_count(self, ctx):
        a = Sig("a")
        for _ in range(5):
            a.assign(1.0)
        assert a.range_stat.count == 5

    def test_prop_interval_union(self, ctx):
        a = Sig("a")
        b = Sig("b")
        a.range(-1.0, 1.0)
        b.assign(a * 2.0)
        b.assign(a + 0.5)
        assert b.prop_interval() == Interval(-2.0, 2.0)

    def test_typed_signal_reads_type_range(self, ctx):
        a = Sig("a", T85)
        a.assign(0.1)
        assert a.read_interval() == T85.range_interval()

    def test_forced_range_overrides_type(self, ctx):
        a = Sig("a", T85)
        a.range(-1.5, 1.5)
        assert a.read_interval() == Interval(-1.5, 1.5)

    def test_forced_range_freezes_propagation(self, ctx):
        a = Sig("a")
        a.range(-0.2, 0.2)
        a.assign(123.0)
        assert a.prop_interval() == Interval(-0.2, 0.2)

    def test_saturating_type_clips_propagation(self, ctx):
        a = Sig("a")
        b = Sig("b", T85)  # saturate mode
        a.range(-100.0, 100.0)
        b.assign(a * 1.0)
        assert b.prop_interval().contains(Interval(-4.0, 3.96875))
        assert b.prop_interval().hi <= T85.max_value

    def test_feedback_explosion_grows_interval(self, ctx):
        # acc = acc + x: the propagated range grows every assignment.
        acc = Sig("acc")
        x = Sig("x")
        x.range(-1.0, 1.0)
        acc.assign(0.0)
        widths = []
        for _ in range(5):
            acc.assign(acc + x)
            widths.append(acc.prop_interval().width)
        assert widths == sorted(widths)
        assert widths[-1] > widths[0]


class TestErrorMonitoring:
    def test_produced_error_of_quantizer(self, ctx):
        a = Sig("a", T85)
        a.assign(0.40)
        assert a.err_produced.max_abs == pytest.approx(abs(0.40 - 13 / 32))

    def test_error_free_signal(self, ctx):
        a = Sig("a", T85)
        a.assign(0.5)
        assert a.err_produced.max_abs == 0.0
        assert a.sqnr_db() == math.inf

    def test_sqnr_reasonable(self, ctx):
        import numpy as np
        rng = np.random.default_rng(1)
        a = Sig("a", T85)
        for v in rng.uniform(-1, 1, size=2000):
            a.assign(float(v))
        # Uniform signal in [-1,1], q = 2^-5: SQNR ~ 10log10(P/ (q^2/12)).
        expected = 10 * math.log10((1 / 3) / ((2.0 ** -10) / 12))
        assert a.sqnr_db() == pytest.approx(expected, abs=1.5)

    def test_sqnr_nan_without_data(self, ctx):
        a = Sig("a", T85)
        assert math.isnan(a.sqnr_db())

    def test_forced_error_decouples_reference(self, ctx):
        a = Sig("a")
        a.error(2.0 ** -6)
        for _ in range(200):
            a.assign(0.5)
        # fl is now fx + U(-q/2, q/2): bounded by half an LSB.
        assert 0 < a.err_produced.max_abs <= 2.0 ** -7
        sigma_expected = (2.0 ** -6) / math.sqrt(12)
        assert a.err_produced.std == pytest.approx(sigma_expected, rel=0.2)

    def test_forced_error_validates(self, ctx):
        a = Sig("a")
        with pytest.raises(DesignError):
            a.error(-1.0)

    def test_clear_annotations(self, ctx):
        a = Sig("a")
        a.range(-1, 1)
        a.error(0.1)
        a.clear_annotations()
        assert a.forced_range is None
        assert a.forced_error is None


class TestOverflowHandling:
    def test_saturate_counts(self, ctx):
        a = Sig("a", T85)
        a.assign(100.0)
        assert a.overflow_count == 1
        assert ctx.overflow_log == [(0, "a", 100.0)]

    def test_error_mode_records_by_default(self, ctx):
        t = T85.with_(msbspec="error")
        a = Sig("a", t)
        a.assign(100.0)  # no raise: context policy is 'record'
        assert a.overflow_count == 1
        assert a.fx == T85.max_value  # continued with saturated value

    def test_error_mode_raises_when_asked(self):
        with DesignContext("strict", overflow_action="raise"):
            a = Sig("a", T85.with_(msbspec="error"))
            with pytest.raises(FixedPointOverflowError):
                a.assign(100.0)

    def test_wrap_mode(self, ctx):
        a = Sig("a", T85.with_(msbspec="wrap"))
        a.assign(4.0)
        assert a.fx == -4.0
        assert a.overflow_count == 1


class TestRegisters:
    def test_assign_visible_after_tick(self, ctx):
        r = Reg("r")
        r.assign(1.0)
        assert r.fx == 0.0
        ctx.tick()
        assert r.fx == 1.0

    def test_holds_value_without_assign(self, ctx):
        r = Reg("r")
        r.assign(2.0)
        ctx.tick()
        ctx.tick()
        assert r.fx == 2.0

    def test_swap_semantics(self, ctx):
        # Classic register swap: both reads see pre-tick values.
        a = Reg("a", init=1.0)
        b = Reg("b", init=2.0)
        a.assign(b + 0)
        b.assign(a + 0)
        ctx.tick()
        assert a.fx == 2.0
        assert b.fx == 1.0

    def test_next_fx(self, ctx):
        r = Reg("r")
        assert r.next_fx is None
        r.assign(3.0)
        assert r.next_fx == 3.0

    def test_set_init_quantizes_fx(self, ctx):
        r = Reg("r", T85)
        r.set_init(0.4)
        assert r.fx == pytest.approx(13 / 32)
        assert r.fl == 0.4
        assert r.range_stat.is_empty  # init is not monitored


class TestResetStats:
    def test_reset_clears_monitors(self, ctx):
        a = Sig("a", T85)
        a.assign(100.0)
        a.reset_stats()
        assert a.range_stat.is_empty
        assert a.err_produced.is_empty
        assert a.overflow_count == 0
        assert a.prop_interval().is_empty

    def test_context_reset(self, ctx):
        a = Sig("a", T85)
        a.assign(100.0)
        ctx.reset_stats()
        assert a.range_stat.is_empty
        assert ctx.overflow_log == []

    def test_reset_keeps_the_held_value_readable(self, ctx):
        # Range propagation from a reset signal must cover the value it
        # still holds, not only its power-on value.
        c, y = Sig("c"), Sig("y")
        c.assign(1.2)
        ctx.reset_stats()
        y.assign(c * 1.0)
        assert y.fx == 1.2
        assert y.prop_interval() == Interval(0, 1.2)

    def test_untyping_keeps_the_committed_value_readable(self, ctx):
        r, y = Reg("r", T85), Sig("y")
        r.assign(-0.75)
        ctx.tick()
        r.assign(0.5)               # pending: not readable yet
        r.set_dtype(None)
        assert r.read_interval() == Interval(-0.75, 0)
        y.assign(r + 0.0)
        assert y.fx == -0.75
        assert y.prop_interval() == Interval(-0.75, 0)


class TestWatch:
    def test_history_records_pairs(self, ctx):
        a = Sig("a", T85).watch()
        a.assign(0.40)
        a.assign(0.5)
        assert len(a.history) == 2
        assert a.history[0] == (pytest.approx(13 / 32), 0.40)

    def test_maxlen(self, ctx):
        a = Sig("a").watch(maxlen=2)
        for i in range(5):
            a.assign(float(i))
        assert list(a.history) == [(3.0, 3.0), (4.0, 4.0)]


class TestCast:
    def test_cast_quantizes_fx_only(self, ctx):
        a = Sig("a")
        a.assign(0.40)
        e = cast(a * 1.0, T85)
        assert e.fx == pytest.approx(13 / 32)
        assert e.fl == 0.40

    def test_cast_clips_interval(self, ctx):
        a = Sig("a")
        a.range(-100, 100)
        e = cast(a + 0.0, T85)
        assert e.ival.hi <= T85.max_value

    def test_cast_requires_dtype(self, ctx):
        with pytest.raises(DesignError):
            cast(1.0, "T85")


class TestContext:
    def test_registry_order(self, ctx):
        Sig("a")
        Sig("b")
        assert ctx.signal_names() == ["a", "b"]

    def test_duplicate_name_rejected(self, ctx):
        Sig("a")
        with pytest.raises(DesignError):
            Sig("a")

    def test_get(self, ctx):
        a = Sig("a")
        assert ctx.get("a") is a
        with pytest.raises(DesignError):
            ctx.get("zz")

    def test_contains_len(self, ctx):
        Sig("a")
        assert "a" in ctx
        assert len(ctx) == 1

    def test_nesting(self, ctx):
        assert current_context() is ctx
        with DesignContext("inner") as inner:
            assert current_context() is inner
            s = Sig("x")
            assert s.ctx is inner
        assert current_context() is ctx

    def test_default_context_exists(self):
        # Outside any with-block a default context is created lazily.
        c = current_context()
        assert c.name in ("default", "test")

    def test_explicit_ctx_argument(self, ctx):
        other = DesignContext("other")
        s = Sig("foreign", ctx=other)
        assert s.ctx is other
        assert "foreign" not in ctx

"""Tests for the exception hierarchy and assorted small behaviours."""

import pytest

from repro.core import errors
from repro.core.dtype import DType
from repro.signal import DesignContext, Reg, Sig


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (errors.DTypeError, errors.FixedPointOverflowError,
                    errors.RangeExplosionError, errors.DivergenceError,
                    errors.SimulationError, errors.DesignError,
                    errors.RefinementError):
            assert issubclass(exc, errors.ReproError)

    def test_overflow_error_payload(self):
        e = errors.FixedPointOverflowError("boom", signal="x", value=9.0,
                                           dtype=DType("t", 8, 5))
        assert e.signal == "x"
        assert e.value == 9.0
        assert e.dtype.n == 8

    def test_explosion_error_signals(self):
        e = errors.RangeExplosionError("boom", signals=["a", "b"])
        assert e.signals == ("a", "b")

    def test_divergence_error_signals(self):
        e = errors.DivergenceError("boom", signals=["eta"])
        assert e.signals == ("eta",)


class TestContextMisc:
    def test_unbalanced_nesting_detected(self):
        a = DesignContext("a")
        b = DesignContext("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(errors.DesignError):
            a.__exit__(None, None, None)
        # Clean up the stack.
        b.__exit__(None, None, None)
        a.__exit__(None, None, None)

    def test_repr(self):
        ctx = DesignContext("x")
        with ctx:
            Sig("a")
        assert "x" in repr(ctx) and "1 signals" in repr(ctx)

    def test_cycle_counter(self):
        ctx = DesignContext("c")
        with ctx:
            ctx.tick()
            ctx.tick()
        assert ctx.cycle == 2

    def test_snapshot_error_stats_shape(self):
        ctx = DesignContext("s")
        with ctx:
            s = Sig("a")
            s.assign(1.0)
            snap = ctx.snapshot_error_stats()
        assert set(snap) == {"a"}
        count, mean, std, max_abs = snap["a"]
        assert count == 1


class TestSignalMisc:
    def test_repr_shows_spec(self):
        with DesignContext("r"):
            s = Sig("a", DType("t", 8, 5))
            assert "<8,5,tc,sa,ro>" in repr(s)
            f = Sig("b")
            assert "float" in repr(f)

    def test_reg_repr(self):
        with DesignContext("r2"):
            r = Reg("r")
            assert repr(r).startswith("Reg(")

    def test_role_attribute(self):
        with DesignContext("r3"):
            s = Sig("a")
            s.role = "input"
            assert s.role == "input"

    def test_set_dtype_resets_propagation(self):
        with DesignContext("r4"):
            s = Sig("a")
            s.assign(5.0)
            assert not s._prop_ival.is_empty
            s.set_dtype(DType("t", 8, 5))
            assert s._prop_ival.is_empty

    def test_ilshift_returns_signal(self):
        with DesignContext("r5"):
            s = Sig("a")
            s <<= 1.0
            assert isinstance(s, Sig)
            assert s.fx == 1.0

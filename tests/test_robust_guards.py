"""Tests for the guard layer: non-finite policies and watchdogs."""

import math
import time

import pytest

from repro.core.dtype import DType
from repro.core.errors import DesignError, NonFiniteError, WatchdogTimeout
from repro.core.quantize import quantize_array, quantize_info
from repro.robust.guards import GuardPolicy, Watchdog, guard_summary
from repro.signal import DesignContext, Sig

T8 = DType("T8", 8, 6, "tc", "saturate", "round")


class TestNonFiniteGuard:
    def test_raise_on_nan(self):
        with DesignContext("t", guard_action="raise"):
            s = Sig("s")
            s.assign(0.5)
            with pytest.raises(NonFiniteError):
                s.assign(float("nan"))

    def test_raise_on_inf(self):
        with DesignContext("t"):       # raise is the default
            s = Sig("s")
            with pytest.raises(NonFiniteError):
                s.assign(float("inf"))

    def test_raise_names_the_signal(self):
        with DesignContext("t"):
            s = Sig("badsig")
            with pytest.raises(NonFiniteError, match="badsig"):
                s.assign(float("nan"))

    def test_record_holds_last_value(self):
        with DesignContext("t", guard_action="record") as ctx:
            s = Sig("s", T8)
            s.assign(0.5)
            s.assign(float("nan"))
        assert s.fx == 0.5
        assert ctx.guard_trip_count == 1
        assert len(ctx.guard_log) == 1
        ev = ctx.guard_log[0]
        assert ev.signal == "s"
        assert math.isnan(ev.fx)
        assert ev.replacement_fx == 0.5

    def test_record_zero_replacement(self):
        with DesignContext("t", guard_action="record",
                           guard_replacement="zero") as ctx:
            s = Sig("s")
            s.assign(0.75)
            s.assign(float("inf"))
        assert s.fx == 0.0
        assert ctx.guard_log[0].replacement_fx == 0.0

    def test_hold_with_no_history_falls_back_to_zero(self):
        with DesignContext("t", guard_action="record") as ctx:
            s = Sig("s")
            s.assign(float("nan"))
        assert s.fx == 0.0
        assert ctx.guard_trip_count == 1

    def test_sanitize_counts_but_does_not_log(self):
        with DesignContext("t", guard_action="sanitize") as ctx:
            s = Sig("s")
            for _ in range(5):
                s.assign(float("nan"))
        assert ctx.guard_trip_count == 5
        assert ctx.guard_log == []

    def test_event_cap(self):
        with DesignContext("t", guard_action="record",
                           guard_max_events=3) as ctx:
            s = Sig("s")
            for _ in range(10):
                s.assign(float("nan"))
        assert ctx.guard_trip_count == 10
        assert len(ctx.guard_log) == 3

    def test_sanitized_value_still_quantized(self):
        # The held replacement flows through quantization normally.
        with DesignContext("t", guard_action="record"):
            s = Sig("s", T8)
            s.assign(0.3)
            q = s.fx
            s.assign(float("nan"))
        assert s.fx == q

    def test_reset_stats_clears_guard_state(self):
        with DesignContext("t", guard_action="record") as ctx:
            s = Sig("s")
            s.assign(float("nan"))
            ctx.reset_stats()
        assert ctx.guard_trip_count == 0
        assert ctx.guard_log == []

    def test_invalid_action_rejected(self):
        with pytest.raises(DesignError):
            DesignContext("t", guard_action="explode")

    def test_invalid_replacement_rejected(self):
        with pytest.raises(DesignError):
            DesignContext("t", guard_replacement="interpolate")

    def test_guard_summary_text(self):
        with DesignContext("t", guard_action="record") as ctx:
            s = Sig("s")
            s.assign(float("nan"))
        assert "s x1" in guard_summary(ctx)
        with DesignContext("t2") as clean:
            pass
        assert guard_summary(clean) == "no guard trips"


class TestGuardPolicy:
    def test_apply_to_context(self):
        with DesignContext("t") as ctx:
            GuardPolicy(action="record", replacement="zero",
                        max_events=7).apply_to(ctx)
        assert ctx.guard_action == "record"
        assert ctx.guard_replacement == "zero"
        assert ctx.guard_max_events == 7

    def test_applied_policy_governs_assignments(self):
        with DesignContext("t") as ctx:
            GuardPolicy(action="sanitize", replacement="zero").apply_to(ctx)
            s = Sig("s")
            s.assign(0.5)
            s.assign(float("inf"))
        assert s.fx == 0.0
        assert ctx.guard_trip_count == 1
        assert ctx.guard_log == []

    def test_context_kwargs_roundtrip(self):
        kw = GuardPolicy(action="sanitize").context_kwargs()
        with DesignContext("t", **kw) as ctx:
            pass
        assert ctx.guard_action == "sanitize"

    def test_validation(self):
        with pytest.raises(DesignError):
            GuardPolicy(action="bogus")
        with pytest.raises(DesignError):
            GuardPolicy(replacement="bogus")


class TestQuantizeNonFinite:
    def test_scalar_nan(self):
        with pytest.raises(NonFiniteError):
            quantize_info(float("nan"), 8, 6)

    def test_scalar_inf(self):
        with pytest.raises(NonFiniteError):
            quantize_info(float("-inf"), 8, 6)

    def test_array(self):
        with pytest.raises(NonFiniteError):
            quantize_array([0.0, 0.5, float("nan")], 8, 6)


class TestWatchdog:
    def test_needs_a_budget(self):
        with pytest.raises(DesignError):
            Watchdog()

    def test_rejects_nonpositive(self):
        with pytest.raises(DesignError):
            Watchdog(max_cycles=0)
        with pytest.raises(DesignError):
            Watchdog(max_seconds=-1.0)

    def test_cycle_budget(self):
        wd = Watchdog(max_cycles=10)
        for n in range(1, 10):
            wd.check(n)
        with pytest.raises(WatchdogTimeout) as exc:
            wd.check(10)
        assert exc.value.cycles == 10

    def test_wall_clock_budget(self):
        wd = Watchdog(max_seconds=0.001, clock_stride=1)
        wd.start()
        time.sleep(0.005)
        with pytest.raises(WatchdogTimeout):
            wd.check(1)

    def test_context_tick_integration(self):
        with pytest.raises(WatchdogTimeout):
            with DesignContext("t") as ctx:
                ctx.watchdog = Watchdog(max_cycles=25)
                for _ in range(100):
                    ctx.tick()
        assert ctx.cycle <= 26

    def test_restart_rearms(self):
        wd = Watchdog(max_cycles=5)
        with pytest.raises(WatchdogTimeout):
            wd.check(5)
        wd.start()
        wd.check(4)     # does not raise after re-arm

"""Tests for flow-level robustness: auto-range evidence, the baseline
regression, graceful degradation and guarded simulations."""

import math

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.core.errors import (NonFiniteError, RefinementError,
                               WatchdogTimeout)
from repro.refine import Annotations, Design, FlowConfig, RefinementFlow
from repro.refine.export import result_to_dict
from repro.refine.flow import _auto_range
from repro.refine.monitors import collect
from repro.robust.retry import EscalationPolicy
from repro.signal import DesignContext, Reg, Sig

T_IN = DType("T_in", 8, 6, "tc", "saturate", "round")


class ScaleDesign(Design):
    name = "scale"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        rng = np.random.default_rng(3)
        self._stim = iter(rng.uniform(-1, 1, size=100000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.y.assign(self.x * 0.5 + 0.25)
            ctx.tick()


class PureAccDesign(Design):
    """Adaptive feedback whose propagated range explodes (paper case)."""

    name = "acc"
    inputs = ("x",)
    output = "acc"

    def build(self, ctx):
        self.x = Sig("x")
        self.acc = Reg("acc")
        rng = np.random.default_rng(5)
        self._stim = iter(rng.uniform(0.5, 1.0, size=200000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            err = self.x - self.acc * self.x
            self.acc.assign(self.acc + err * 0.05)
            ctx.tick()


class WrapPhaseDesign(Design):
    """Modulo-1 phase accumulator: error statistics of ``phase`` diverge,
    so the LSB phase derives an error() annotation for it."""

    name = "wrapphase"
    inputs = ("x",)
    output = "phase"

    PHASE_T = DType("T_phase", 10, 10, "us", "wrap", "round")

    def build(self, ctx):
        self.x = Sig("x")
        self.phase = Reg("phase", self.PHASE_T)
        rng = np.random.default_rng(6)
        self._stim = iter(rng.uniform(0.20, 0.30, size=100000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.phase.assign(self.phase + self.x)
            ctx.tick()


class NanBurstDesign(Design):
    """Feeds a NaN into ``y`` on one sample mid-run."""

    name = "nanburst"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        rng = np.random.default_rng(8)
        self._stim = iter(rng.uniform(-1, 1, size=100000).tolist())
        self._i = 0

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            if self._i == 40:
                self.y.assign(float("nan"))
            else:
                self.y.assign(self.x * 0.5)
            self._i += 1
            ctx.tick()


def _flow(design, **kw):
    cfg = kw.pop("config", FlowConfig(n_samples=1000, seed=9))
    return RefinementFlow(design, input_types={"x": T_IN},
                          input_ranges={"x": (-1, 1)}, config=cfg, **kw)


class TestAutoRangeEvidence:
    def _record(self, assigns):
        with DesignContext("t") as ctx:
            s = Sig("s")
            for v in assigns:
                s.assign(v)
        return collect(ctx)["s"]

    def test_unobserved_returns_none(self):
        rec = self._record([])
        assert not rec.observed
        assert _auto_range(rec, 2.0) is None

    def test_zero_constant_keeps_historic_fallback(self):
        rec = self._record([0.0, 0.0, 0.0])
        assert _auto_range(rec, 2.0) == (-1.0, 1.0)

    def test_observed_range_scaled_by_margin(self):
        rec = self._record([0.25, -0.5, 0.1])
        assert _auto_range(rec, 2.0) == (-1.0, 1.0)
        assert _auto_range(rec, 4.0) == (-2.0, 2.0)


class TestBaselineSqnr:
    """baseline_sqnr must reflect an inputs-only simulation — not the
    LSB-phase records, which include derived error() annotations."""

    def test_matches_manual_inputs_only_sim(self):
        cfg = FlowConfig(n_samples=1000, seed=9)
        flow = _flow(ScaleDesign, config=cfg)
        res = flow.run()
        ctx = DesignContext("manual", seed=cfg.seed,
                            overflow_action="record")
        with ctx:
            d = ScaleDesign()
            d.build(ctx)
            Annotations(dtypes={"x": T_IN}).apply(ctx)
            d.run(ctx, cfg.n_samples)
        expected = collect(ctx)["y"].sqnr_db()
        assert res.baseline_sqnr_db == pytest.approx(expected)

    def test_excludes_flow_derived_error_annotations(self):
        # The LSB phase derives an error() for the divergent wrap-typed
        # phase register; the baseline must NOT include it.
        cfg = FlowConfig(n_samples=2000, seed=9, auto_error=True)
        flow = RefinementFlow(
            WrapPhaseDesign, input_types={"x": T_IN},
            input_ranges={"x": (0.20, 0.30)},
            preset_types={"phase": WrapPhaseDesign.PHASE_T}, config=cfg)
        res = flow.run()
        assert "phase" in res.lsb.annotations
        ctx = DesignContext("manual", seed=cfg.seed,
                            overflow_action="record")
        with ctx:
            d = WrapPhaseDesign()
            d.build(ctx)
            Annotations(dtypes={"x": T_IN,
                                "phase": WrapPhaseDesign.PHASE_T}).apply(ctx)
            d.run(ctx, cfg.n_samples)
        expected = collect(ctx)["phase"].sqnr_db()
        assert res.baseline_sqnr_db == pytest.approx(expected)

    def test_user_error_on_preset_signal_is_included(self):
        # A user error() on a preset-typed signal is part of the
        # a-priori partial type definition, so the baseline keeps it.
        cfg = FlowConfig(n_samples=1500, seed=9, auto_error=False)
        kw = dict(input_types={"x": T_IN}, input_ranges={"x": (0.20, 0.30)},
                  preset_types={"phase": WrapPhaseDesign.PHASE_T},
                  config=cfg)
        with_err = RefinementFlow(WrapPhaseDesign,
                                  user_errors={"phase": 2.0 ** -10}, **kw)
        without = RefinementFlow(WrapPhaseDesign, **kw)
        b_err = with_err.baseline_sqnr()
        b_raw = without.baseline_sqnr()
        # The decoupled reference turns the diverging error into a bounded
        # one: dramatically better SQNR than the raw wrap drift.
        assert b_err > b_raw + 20.0

    def test_no_output_yields_nan(self):
        class NoOut(ScaleDesign):
            output = None

        flow = _flow(NoOut)
        assert math.isnan(flow.baseline_sqnr())


class TestGracefulDegradation:
    def _unresolvable(self, **kw):
        cfg = FlowConfig(n_samples=600, seed=9, auto_range=False, **kw)
        return _flow(PureAccDesign, config=cfg)

    def test_strict_raises(self):
        with pytest.raises(RefinementError):
            self._unresolvable().run(strict=True)

    def test_graceful_returns_fallback_types(self):
        policy = EscalationPolicy(max_rounds=1, force_auto_range=False)
        res = self._unresolvable(escalation=policy).run(strict=False)
        assert "acc" in res.fallbacks
        dt = res.types["acc"]
        assert dt is res.fallbacks["acc"]
        assert dt.msbspec == "saturate"
        # Wide enough for everything the simulation observed (acc -> ~1).
        assert dt.max_value >= 1.0
        assert res.diagnostics is not None
        assert res.diagnostics.fallback_signals == ["acc"]
        assert any(e.category == "escalation"
                   for e in res.diagnostics.warnings)
        assert "LOW CONFIDENCE" in res.summary()

    def test_default_escalation_resolves_without_fallback(self):
        # The default ladder forces auto_range on retry; the explosion
        # resolves and no fallback type is needed.
        res = self._unresolvable().run(strict=False)
        assert res.fallbacks == {}
        assert res.msb.resolved
        assert res.diagnostics.by_category("escalation")
        assert "acc" in res.types

    def test_graceful_noop_on_clean_design(self):
        res = _flow(ScaleDesign).run(strict=False)
        assert res.fallbacks == {}
        assert not res.diagnostics.by_category("escalation")
        assert res.verification.output_sqnr_db > 30.0

    def test_graceful_is_deterministic(self):
        policy = EscalationPolicy(max_rounds=1, force_auto_range=False)
        r1 = self._unresolvable(escalation=policy).run(strict=False)
        r2 = self._unresolvable(escalation=policy).run(strict=False)
        assert {k: t.spec() for k, t in r1.types.items()} == \
               {k: t.spec() for k, t in r2.types.items()}

    def test_export_carries_diagnostics_and_fallbacks(self):
        policy = EscalationPolicy(max_rounds=1, force_auto_range=False)
        res = self._unresolvable(escalation=policy).run(strict=False)
        d = result_to_dict(res)
        assert "acc" in d["fallbacks"]
        assert d["diagnostics"]["events"]
        clean = _flow(ScaleDesign).run()
        assert "fallbacks" not in result_to_dict(clean)


class TestGuardedFlow:
    def test_default_guard_raises_on_nan(self):
        with pytest.raises(NonFiniteError):
            _flow(NanBurstDesign).run()

    def test_record_guard_completes_with_diagnostics(self):
        cfg = FlowConfig(n_samples=1000, seed=9, guard_action="record")
        res = _flow(NanBurstDesign, config=cfg).run()
        guard_events = res.diagnostics.by_category("guard")
        assert guard_events
        assert all(e.signal == "y" for e in guard_events)
        # One trip per simulation (baseline, msb, lsb, verify at least).
        assert res.diagnostics.guard_trips >= 4
        assert np.isfinite(res.verification.output_sqnr_db)

    def test_cache_served_stage_reports_its_own_guards(self):
        # NanBurst's MSB phase resolves in one iteration, so lsb-iter-1
        # repeats msb-iter-1's job and is served from the run's cache;
        # its guard trips must still be reported under its own label.
        cfg = FlowConfig(n_samples=1000, seed=9, guard_action="record")
        res = _flow(NanBurstDesign, config=cfg).run()
        phases = [e.data["phase"]
                  for e in res.diagnostics.by_category("guard")]
        assert phases == ["baseline", "msb-iter-1", "lsb-iter-1", "verify"]

    def test_watchdog_bounds_flow_simulation(self):
        cfg = FlowConfig(n_samples=5000, seed=9, max_watchdog_cycles=200)
        with pytest.raises(WatchdogTimeout):
            _flow(ScaleDesign, config=cfg).run()

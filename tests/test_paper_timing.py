"""Integration test: the paper's complex example (Fig. 5, Section 6.1).

Paper claims encoded here:

* the system has ~61 signals subject to refinement (ours: 63/64),
* MSB refinement needs 2 iterations; the explosion set contains the
  feedback accumulators (loop filter integrator) and resolves after
  range annotations,
* a handful of signals end in saturation mode, the majority stay
  non-saturated with a sub-bit average MSB overhead versus the purely
  statistic-based result (paper: 0.22 bits/signal),
* with the hardware-style wrap-typed NCO phase, exactly that "D signal
  inside the NCO" has divergent (unstable) error statistics; one
  ``error()`` annotation fixes it and one further iteration settles all
  other LSB weights (2 LSB iterations total),
* the refined loop still locks and decides symbols correctly.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.dsp.timing_recovery import (TimingRecoveryDesign,
                                       aligned_symbol_errors)
from repro.refine import FlowConfig, RefinementFlow
from repro.refine import flow as flow_module

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
PHASE_T = DType("T_eta", 12, 12, "us", "wrap", "round")

N_SAMPLES = 6000


def make_flow():
    return RefinementFlow(
        design_factory=lambda: TimingRecoveryDesign(
            noise_std=0.05, nco_phase_dtype=PHASE_T),
        input_types={"in": T_IN},
        input_ranges={"in": (-2.0, 2.0)},
        preset_types={"nco.eta": PHASE_T},
        user_errors={"nco.eta": 2.0 ** -12},
        config=FlowConfig(n_samples=N_SAMPLES, auto_range=True,
                          auto_error=False, seed=21),
    )


@pytest.fixture(scope="module")
def run():
    """The flow's result and the job of every simulation it ran through
    the runner (a replayed MSB iteration runs none), by label."""
    jobs = {}
    real = flow_module.run_simulations

    def spy(design_factory, configs, **kwargs):
        for cfg in configs:
            jobs[cfg.label] = cfg
        return real(design_factory, configs, **kwargs)

    with mock.patch.object(flow_module, "run_simulations", spy):
        res = make_flow().run()
    return res, jobs


@pytest.fixture(scope="module")
def result(run):
    return run[0]


class TestSystemShape:
    def test_signal_count_near_61(self, result):
        n = len(result.lsb.final.records)
        assert 55 <= n <= 70  # paper: 61

    def test_design_locks_in_float(self):
        d = TimingRecoveryDesign(noise_std=0.05)
        from repro.signal import DesignContext
        ctx = DesignContext("lock", seed=0)
        with ctx:
            d.build(ctx)
            d.run(ctx, N_SAMPLES)
        rate, lag = aligned_symbol_errors(d.tx_symbols, d.decisions,
                                          skip=800)
        assert rate < 0.01


class TestMsbPhase:
    def test_two_iterations(self, result):
        assert result.msb.n_iterations == 2
        assert result.msb.resolved

    def test_loop_integrator_explodes(self, result):
        assert "lf.i" in result.msb.iterations[0].exploded

    def test_saturated_minority(self, result):
        final = result.msb.final.decisions
        saturated = [n for n, d in final.items() if d.mode == "saturate"]
        nonsat = [n for n, d in final.items() if d.mode != "saturate"]
        # Paper: 7 of 61 saturated.  Ours: the annotated feedback set.
        assert 2 <= len(saturated) <= 20
        assert len(nonsat) > len(saturated)

    def test_average_msb_overhead_below_one_bit(self, result):
        final = result.msb.final.decisions
        overheads = [d.overhead_bits() for d in final.values()
                     if d.mode != "saturate" and d.msb is not None
                     and d.stat_msb is not None]
        assert overheads, "no non-saturated decided signals"
        avg = sum(overheads) / len(overheads)
        # Paper: 0.22 bits/signal overhead vs statistic-based.
        assert 0.0 <= avg < 1.0


class TestLsbPhase:
    def test_two_iterations(self, result):
        assert result.lsb.n_iterations == 2
        assert result.lsb.resolved

    def test_eta_is_divergent_in_iteration_one(self, result):
        assert "nco.eta" in result.lsb.iterations[0].divergent

    def test_only_eta_needs_annotation(self, result):
        assert list(result.lsb.annotations) == ["nco.eta"]
        assert result.lsb.annotations["nco.eta"] == 2.0 ** -12

    def test_iteration_two_settles_everything(self, result):
        assert result.lsb.iterations[1].divergent == {}
        final = result.lsb.final.decisions
        undecided = [n for n, d in final.items()
                     if d.lsb is None and d.count > 0]
        assert undecided == []

    def test_slicer_error_free(self, result):
        assert result.lsb.final.decisions["y"].lsb == 0

    def test_error_annotated_iteration_is_statistics_only(self, run):
        # lsb-iter-2 carries the eta error() annotation and nothing reads
        # its intervals; lsb-iter-1 repeats the last MSB job (a cache hit).
        result, jobs = run
        assert jobs["lsb-iter-2"].errors == {"nco.eta": 2.0 ** -12}
        assert {label: cfg.monitors for label, cfg in jobs.items()} == {
            "baseline": "all", "msb-iter-1": "all", "lsb-iter-1": "all",
            "lsb-iter-2": "stats", "verify": "stats"}
        assert all(rec.prop.is_empty
                   for rec in result.lsb.final.records.values())
        assert not all(rec.prop.is_empty
                       for rec in result.lsb.iterations[0].records.values())


class TestVerification:
    def test_no_genuine_overflows(self, result):
        assert result.verification.total_overflows == 0

    def test_phase_wraps_counted_separately(self, result):
        assert result.verification.wrap_events.get("nco.eta", 0) > 0

    def test_output_sqnr_reasonable(self, result):
        v = result.verification.output_sqnr_db
        assert 30.0 < v < 80.0
        # Cost of refinement bounded.
        assert result.baseline_sqnr_db - v < 8.0

    def test_refined_loop_still_locks(self, result):
        from repro.refine import Annotations
        from repro.signal import DesignContext
        all_types = dict(result.types)
        all_types["in"] = T_IN
        ctx = DesignContext("verify-lock", seed=3)
        with ctx:
            d = TimingRecoveryDesign(noise_std=0.05,
                                     nco_phase_dtype=PHASE_T)
            d.build(ctx)
            Annotations(dtypes=all_types).apply(ctx)
            d.run(ctx, N_SAMPLES)
        rate, lag = aligned_symbol_errors(d.tx_symbols, d.decisions,
                                          skip=800)
        assert rate < 0.02

"""Refinement-flow simulations as ordinary runner jobs.

Every ``RefinementFlow`` simulation is a one-job ``run_simulations``
batch with the mid-run error snapshot requested, through an outcome
store (a path-less ``Journal``) scoped to the ``run()`` call.  On the
paper's LMS flow (E8) the first MSB iteration repeats the baseline's
job (both apply only the input types and ranges) and the first LSB
iteration repeats the last MSB iteration's job; both are served from
that store.  The second MSB
iteration differs from the first only in ``b.range(-0.2, 0.2)``, so it
is replayed from the interval tape the baseline job recorded.
"""

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.core.errors import DesignError
from repro.dsp.lms import LmsEqualizerDesign
from repro.obs import trace as obs_trace
from repro.parallel import SimConfig, fingerprint, run_simulations
from repro.refine import Design, FlowConfig, RefinementFlow
from repro.signal import Sig

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")
T_IN = DType("T_in", 8, 6, "tc", "saturate", "round")


class RecordingFlow(RefinementFlow):
    """Keeps every simulation outcome, keyed by stage label, and the
    cache the last run routed them through."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.outcomes = {}
        self.run_cache = None

    def _simulate(self, annotations, label, config=None):
        outcome = super()._simulate(annotations, label, config=config)
        self.outcomes[label] = outcome
        self.run_cache = self._replay.store
        return outcome


def e8_flow():
    return RecordingFlow(
        design_factory=LmsEqualizerDesign,
        input_types={"x": T_INPUT},
        input_ranges={"x": (-1.5, 1.5)},
        user_ranges={"b": (-0.2, 0.2)},
        config=FlowConfig(n_samples=4000, auto_range=False, seed=1234))


def _same(a, b):
    """Bit-level equality of record/snapshot maps (NaN-safe)."""
    return repr(a) == repr(b)


@pytest.fixture(scope="module")
def e8():
    """One traced E8 run."""
    flow = e8_flow()
    rec = obs_trace.enable()
    try:
        res = flow.run()
    finally:
        obs_trace.disable()
    return {"flow": flow, "res": res, "events": rec.events,
            "stats": flow.run_cache.stats()}


class TestE8Flow:
    def test_two_executions_one_replay_two_cache_hits(self, e8):
        stats = e8["stats"]
        assert stats["misses"] == 2
        assert stats["hits"] == 2
        executed = [e["label"] for e in e8["events"]
                    if e["kind"] == "span_start"
                    and e["name"] == "parallel.job"]
        assert executed == ["baseline", "verify"]

    def test_simulate_span_marks_the_cached_stage(self, e8):
        spans = {e["label"]: (e["cached"], e.get("replayed", False))
                 for e in e8["events"]
                 if e["kind"] == "span_end"
                 and e["name"] == "refine.simulate"}
        assert spans == {"baseline": (False, False),
                         "msb-iter-1": (True, False),
                         "msb-iter-2": (False, True),
                         "lsb-iter-1": (True, False),
                         "verify": (False, False)}

    def test_replay_executes_a_handful_of_ticks(self, e8):
        # Machine-independent perf guard: the LMS loop has one tick
        # shape, and the replay memo skips every tick whose constants
        # repeat once the interval state has stopped growing.
        span, = [e for e in e8["events"] if e["kind"] == "span_end"
                 and e["name"] == "refine.simulate" and e.get("replayed")]
        assert span["label"] == "msb-iter-2"
        assert span["tape_shapes"] == 1
        assert span["tape_ticks"] == 4000
        assert 1 <= span["replay_ticks"] <= 10

    def test_replayed_stage_equals_a_fresh_execution(self, e8):
        served = e8["flow"].outcomes["msb-iter-2"]
        assert served.label == "msb-iter-2"
        job = SimConfig(label="msb-iter-2", dtypes={"x": T_INPUT},
                        ranges={"x": (-1.5, 1.5), "b": (-0.2, 0.2)},
                        n_samples=4000, seed=1234, snapshot_errors=True)
        fresh, = run_simulations(LmsEqualizerDesign, [job], workers=1)
        assert _same(served, fresh)
        assert not e8["res"].diagnostics.by_category("range-replay")

    def test_flow_requests_five_simulations(self, e8):
        assert list(e8["flow"].outcomes) == [
            "baseline", "msb-iter-1", "msb-iter-2", "lsb-iter-1", "verify"]
        res = e8["res"]
        assert (res.msb.n_iterations, res.lsb.n_iterations) == (2, 1)
        assert round(res.verification.output_sqnr_db, 3) == 39.398

    def test_baseline_shares_msb_iter_1s_job(self, e8):
        outcomes = e8["flow"].outcomes
        assert _same(outcomes["baseline"].records,
                     outcomes["msb-iter-1"].records)
        # Bit-identical to the baseline run without the input ranges.
        assert repr(e8["res"].baseline_sqnr_db) == "40.82264299647023"

    def test_cached_lsb_stage_equals_a_fresh_execution(self, e8):
        served = e8["flow"].outcomes["lsb-iter-1"]
        assert served.label == "lsb-iter-1"
        job = SimConfig(label="lsb-iter-1", dtypes={"x": T_INPUT},
                        ranges={"x": (-1.5, 1.5), "b": (-0.2, 0.2)},
                        n_samples=4000, seed=1234, snapshot_errors=True)
        fresh, = run_simulations(LmsEqualizerDesign, [job], workers=1)
        assert fresh.error_snapshot
        assert _same(served.records, fresh.records)
        assert _same(served.error_snapshot, fresh.error_snapshot)

    def test_runs_do_not_share_a_cache(self):
        flow = RecordingFlow(
            ScaleDesign, input_types={"x": T_IN},
            input_ranges={"x": (-1, 1)},
            config=FlowConfig(n_samples=200, seed=9, lint_design=False))
        rec = obs_trace.enable()
        try:
            flow.run()
            flow.run()
        finally:
            obs_trace.disable()
        cached = [e["cached"] for e in rec.events
                  if e["kind"] == "span_end"
                  and e["name"] == "refine.simulate"]
        # baseline, msb-iter-1 (cached), lsb-iter-1 (cached), verify —
        # per run.
        assert cached == [False, True, True, False] * 2
        assert flow._replay is None


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


class TestBaselineJob:
    def test_user_error_on_an_input_keeps_the_baseline_separate(self):
        # The baseline applies the user's error() on x, msb-iter-1 does
        # not: the jobs differ and both execute.
        flow = RecordingFlow(
            ScaleDesign, input_types={"x": T_IN},
            input_ranges={"x": (-1, 1)}, user_errors={"x": 2.0 ** -6},
            config=FlowConfig(n_samples=200, seed=9, lint_design=False))
        res = flow.run()
        assert flow.run_cache.stats()["misses"] == 3
        assert flow.run_cache.stats()["hits"] == 1
        assert not _same(flow.outcomes["baseline"].records,
                         flow.outcomes["msb-iter-1"].records)
        # Same value as the baseline run without the input ranges.
        assert repr(res.baseline_sqnr_db) == "44.55329740661305"


class TestWatchdogBudgets:
    def test_zero_cycle_budget_is_rejected_not_ignored(self):
        cfg = FlowConfig(n_samples=200, seed=9, max_watchdog_cycles=0,
                         lint_design=False)
        flow = RefinementFlow(ScaleDesign, input_types={"x": T_IN},
                              input_ranges={"x": (-1, 1)}, config=cfg)
        with pytest.raises(DesignError):
            flow.run()

    def test_zero_second_budget_is_rejected_by_the_runner(self):
        job = SimConfig(n_samples=50, max_wall_seconds=0)
        with pytest.raises(DesignError):
            run_simulations(ScaleDesign, [job], workers=1)

    def test_budgets_stay_out_of_the_key(self):
        base = SimConfig(n_samples=50)
        budgeted = SimConfig(n_samples=50, max_watchdog_cycles=60,
                             max_wall_seconds=5.0)
        assert fingerprint(ScaleDesign, base) == \
            fingerprint(ScaleDesign, budgeted)


def _pinned():
    pass


_pinned.fingerprint = "pinned-factory"


class TestFingerprintPins:
    def test_default_config_digest_is_unchanged(self):
        # Digest of an all-default SimConfig before the snapshot,
        # guard_replacement and watchdog fields existed: journals
        # written then must keep replaying.
        assert fingerprint(_pinned, SimConfig()) == (
            "e4ee9e555074fc447feb0252643671c9"
            "b952080a69a8c25e6b18e7ebcf6d7639")

    def test_non_default_fields_change_the_key(self):
        base = fingerprint(_pinned, SimConfig())
        snap = fingerprint(_pinned, SimConfig(snapshot_errors=True))
        zero = fingerprint(_pinned, SimConfig(guard_replacement="zero"))
        assert len({base, snap, zero}) == 3

    def test_float_range_and_error_keys_are_unchanged(self):
        # Digest from before ranges and errors were normalized to floats.
        cfg = SimConfig(ranges={"x": (-1.5, 1.5), "b": (-0.2, 0.2)},
                        errors={"y": 0.25})
        assert fingerprint(_pinned, cfg) == (
            "81ef58bff56814ef569297badac185e6"
            "91d639e6b375853ad713087e93f87df0")

    def test_equal_range_spellings_share_a_key(self):
        spellings = [(-1, 1), [-1, 1], (-1.0, 1.0),
                     (np.float64(-1), np.float64(1))]
        keys = {fingerprint(_pinned, SimConfig(ranges={"x": r}))
                for r in spellings}
        assert len(keys) == 1
        other = fingerprint(_pinned, SimConfig(ranges={"x": (-1, 2)}))
        assert other not in keys

    def test_equal_error_spellings_share_a_key(self):
        keys = {fingerprint(_pinned, SimConfig(errors={"y": q}))
                for q in (1, 1.0, np.float64(1))}
        assert len(keys) == 1

    def test_float_preset_type_is_fingerprinted(self):
        # preset_types={"y": None} keeps y floating point; the flow's
        # jobs are fingerprinted, so a None dtype must key cleanly.
        flow = RefinementFlow(
            ScaleDesign, input_types={"x": T_IN},
            input_ranges={"x": (-1, 1)}, preset_types={"y": None},
            config=FlowConfig(n_samples=200, seed=9, lint_design=False))
        res = flow.run()
        assert res.types == {}
        assert np.isfinite(res.verification.output_sqnr_db)


class TestRunnerFields:
    def _job(self, **kw):
        return SimConfig(label="j", dtypes={"x": T_IN}, n_samples=101,
                         seed=3, **kw)

    def test_snapshot_only_when_requested(self):
        plain, snap = run_simulations(
            ScaleDesign, [self._job(), self._job(snapshot_errors=True)],
            workers=1)
        assert plain.error_snapshot is None
        # x is quantized, so its produced-error count grows with the run:
        # the snapshot is taken at max(1, 101 // 2) = 50 samples.
        assert snap.error_snapshot["x"][0] == 50
        assert snap.records["x"].err_produced.count == 101

    def test_serial_batch_leaves_the_pool_slot_alone(self):
        # A pool batch running in another thread keeps its factory in
        # the module slot; an in-process batch (every flow simulation)
        # must neither read it nor clear it.
        from repro.parallel import runner
        saved = dict(runner._WORKER_STATE)
        runner._WORKER_STATE["factory"] = _pinned
        try:
            out, = run_simulations(ScaleDesign, [self._job()], workers=1)
            assert runner._WORKER_STATE["factory"] is _pinned
        finally:
            runner._WORKER_STATE.update(saved)
        assert out.output == "y" and out.records

    def test_guard_events_travel_in_the_outcome(self):
        class NanOnce(ScaleDesign):
            def run(self, ctx, n):
                for i in range(n):
                    self.x.assign(next(self._stim))
                    self.y.assign(float("nan") if i == 7 else self.x)
                    ctx.tick()

        out, = run_simulations(
            NanOnce, [self._job(guard_action="record",
                                guard_replacement="zero")], workers=1)
        assert out.guard_trips == 1
        ev, = out.guard_events
        assert (ev.signal, ev.cycle, ev.replacement_fx) == ("y", 7, 0.0)

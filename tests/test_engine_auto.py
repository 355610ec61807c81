"""``engine="auto"``: lower a compiled group only at or above the lane
crossover, run smaller groups interpreted, and stay bit-identical to
the interpreted reference either way.
"""

import pytest

import repro.compile as rc
from repro.core.dtype import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.gallery.matrix import run_matrix
from repro.obs import counters, trace as obs_trace
from repro.obs.events import Recorder
from repro.parallel.runner import (SimConfig, _fork_available, fingerprint,
                                   run_simulations)
from repro.sim.engine import (ENGINE_CHOICES, default_engine, resolve_engine,
                              set_default_engine)
from tests.test_property_compile import assert_records_equal


def lanes(n_lanes, n_samples=40):
    """One compiled group: same stimulus, a different dtype per lane."""
    return [SimConfig(label="lane%d" % i, n_samples=n_samples, seed=3,
                      dtypes={"x": DType("T", 6 + i % 5, 5)})
            for i in range(n_lanes)]


def assert_same_outcomes(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.label == b.label
        assert a.output == b.output
        assert a.error == b.error
        assert a.guard_trips == b.guard_trips
        assert_records_equal(a.records, b.records)


def batch_span_attrs(fn):
    """Attributes of the one ``parallel.batch`` span ``fn`` records."""
    rec = obs_trace.enable(Recorder())
    try:
        fn()
    finally:
        obs_trace.disable()
    [end] = [e for e in rec.events if e["kind"] == "span_end"
             and e["name"] == "parallel.batch"]
    return end


class TestEngineChoice:
    def test_auto_accepted_everywhere(self, monkeypatch):
        assert "auto" in ENGINE_CHOICES
        assert resolve_engine("auto") == "auto"
        prev = set_default_engine("auto")
        try:
            assert default_engine() == "auto"
            assert resolve_engine(None) == "auto"
        finally:
            set_default_engine(prev)
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        assert default_engine() == "auto"

    def test_fingerprint_shares_compiled_key(self):
        cfg = SimConfig(label="a", n_samples=50)
        auto = fingerprint(LmsEqualizerDesign, cfg, engine="auto")
        assert auto == fingerprint(LmsEqualizerDesign, cfg,
                                   engine="compiled")
        assert auto != fingerprint(LmsEqualizerDesign, cfg,
                                   engine="interpreted")


class TestCrossover:
    def test_below_threshold_runs_interpreted(self):
        cfgs = lanes(rc.COMPILE_MIN_LANES - 1)
        counters.reset()
        got = run_simulations(LmsEqualizerDesign, cfgs, workers=0,
                              engine="auto")
        assert counters.get("compile.batches") == 0
        assert counters.get("compile.small_groups") == len(cfgs)
        assert counters.get("compile.ineligible") == 0
        ref = run_simulations(LmsEqualizerDesign, cfgs, workers=0,
                              engine="interpreted")
        assert_same_outcomes(got, ref)

    def test_at_threshold_compiles(self):
        cfgs = lanes(rc.COMPILE_MIN_LANES)
        counters.reset()
        got = run_simulations(LmsEqualizerDesign, cfgs, workers=0,
                              engine="auto")
        assert counters.get("compile.batches") == 1
        assert counters.get("compile.lanes") == len(cfgs)
        assert counters.get("compile.small_groups") == 0
        ref = run_simulations(LmsEqualizerDesign, cfgs, workers=0,
                              engine="interpreted")
        assert_same_outcomes(got, ref)

    def test_groups_decide_independently(self):
        # One wide group compiles, a one-lane group and an ineligible
        # job run interpreted, all in one batch.
        wide = lanes(rc.COMPILE_MIN_LANES)
        narrow = [SimConfig(label="other-seed", n_samples=40, seed=4)]
        timed = [SimConfig(label="deadline", n_samples=40, seed=3,
                           deadline_seconds=60.0)]
        cfgs = narrow + wide + timed
        counters.reset()
        attrs = batch_span_attrs(lambda: run_simulations(
            LmsEqualizerDesign, cfgs, workers=0, engine="auto"))
        assert attrs["compiled_groups"] == 1
        assert attrs["small_groups"] == 1
        assert counters.get("compile.small_groups") == 1
        assert counters.get("compile.ineligible") == 1

    @pytest.mark.skipif(not _fork_available(), reason="needs fork")
    def test_threshold_scales_with_pool_width(self):
        # At the serial threshold but below it times two workers: the
        # group goes to the pool, not the compiler.
        cfgs = lanes(rc.COMPILE_MIN_LANES)
        counters.reset()
        attrs = batch_span_attrs(lambda: run_simulations(
            LmsEqualizerDesign, cfgs, workers=2, engine="auto"))
        assert counters.get("compile.batches") == 0
        assert counters.get("compile.small_groups") == len(cfgs)
        assert attrs["mode"].startswith("pool")
        assert attrs["workers"] == 2


class TestReplay:
    def test_compiled_journal_replays_under_auto(self, tmp_path):
        path = tmp_path / "compiled.journal"
        cfgs = lanes(2)
        first = run_simulations(LmsEqualizerDesign, cfgs, workers=0,
                                journal=path, engine="compiled")
        counters.reset()
        second = run_simulations(LmsEqualizerDesign, cfgs, workers=0,
                                 journal=path, engine="auto")
        assert counters.get("journal.replays") == len(cfgs)
        assert counters.get("compile.batches") == 0
        assert counters.get("compile.small_groups") == 0
        assert_same_outcomes(second, first)


class TestGallery:
    GRID = dict(designs=("kalman", "iir-lattice"), channels=("clean",),
                campaigns=("clean", "bitflip-lsb"), seeds=(101, 202),
                n_samples=192, analyze=False, workers=0)

    def test_matrix_runs_no_compiled_batches(self):
        counters.reset()
        result = run_matrix(**self.GRID)
        # Output-only cells never reach the compiled engine, and the
        # matrix no longer asks for it.
        assert counters.get("compile.batches") == 0
        assert counters.get("compile.small_groups") == 0
        assert {c["engine"] for c in result.cells} == {"interpreted"}

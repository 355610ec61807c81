"""Tests for the fault-injection campaign machinery on toy designs."""

import math

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.refine import Design, FlowConfig, RefinementFlow
from repro.robust.faults import (BitFlip, FaultCampaign, InputScale,
                                 NanInject, SeedPerturb, StuckAt,
                                 standard_faults)
from repro.signal import Sig

T_IN = DType("T_in", 8, 6, "tc", "saturate", "round")


class SeededScale(Design):
    """y = 0.5*x + 0.25 with a controllable stimulus seed."""

    name = "scale"
    inputs = ("x",)
    output = "y"

    def __init__(self, seed=3):
        self.seed = seed

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        rng = np.random.default_rng(self.seed)
        self._stim = iter(rng.uniform(-1, 1, size=100000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.y.assign(self.x * 0.5 + 0.25)
            ctx.tick()


@pytest.fixture(scope="module")
def refined():
    cfg = FlowConfig(n_samples=1500, seed=9)
    flow = RefinementFlow(SeededScale, input_types={"x": T_IN},
                          input_ranges={"x": (-1, 1)}, config=cfg)
    return flow.run()


@pytest.fixture(scope="module")
def campaign(refined):
    return FaultCampaign(SeededScale, refined.types,
                         errors=refined.lsb.annotations, output="y",
                         n_samples=1500,
                         seeded_factory=lambda s: SeededScale(seed=s))


class TestCampaignBasics:
    def test_outcomes_align_with_faults(self, campaign):
        faults = [BitFlip("y", bit=0, at=100), StuckAt("y", 0.0)]
        out = campaign.run(faults)
        assert [o.kind for o in out.outcomes] == ["bit-flip", "stuck-at"]
        assert math.isfinite(out.baseline_sqnr_db)
        assert out.baseline_sqnr_db > 30.0

    def test_severity_ordering(self, campaign, refined):
        n_bits = refined.types["y"].n
        out = campaign.run([BitFlip("y", bit=0, at=100),
                            BitFlip("y", bit=n_bits - 1, at=100),
                            StuckAt("y", 0.0)])
        lsb_flip, msb_flip, stuck = out.outcomes
        assert lsb_flip.degradation_db < msb_flip.degradation_db
        assert msb_flip.degradation_db < stuck.degradation_db

    def test_transient_lsb_flip_is_mild(self, campaign):
        out = campaign.run([BitFlip("y", bit=0, at=100)])
        assert out.outcomes[0].completed
        assert out.outcomes[0].degradation_db < 3.0

    def test_input_scale_causes_overflows(self, campaign):
        # x in (-1, 1) scaled x4 exceeds T_in's [-2, 2) and y's headroom.
        out = campaign.run([InputScale("x", 4.0)])
        assert out.outcomes[0].overflows > 0

    def test_nan_inject_recorded_by_guard(self, campaign):
        out = campaign.run([NanInject("x", at=50)])
        o = out.outcomes[0]
        assert o.completed
        assert o.guard_trips >= 1

    def test_nan_inject_aborts_under_raise_guard(self, refined):
        strict = FaultCampaign(SeededScale, refined.types, output="y",
                               n_samples=500, guard_action="raise")
        out = strict.run([NanInject("x", at=50)])
        o = out.outcomes[0]
        assert not o.completed
        assert "non-finite" in o.error

    def test_seed_perturb_uses_seeded_factory(self, campaign):
        out = campaign.run([SeedPerturb(777), SeedPerturb(778)])
        for o in out.outcomes:
            assert o.completed
            # A different stimulus changes the SQNR, but within noise.
            assert abs(o.degradation_db) < 3.0
        assert out.outcomes[0].sqnr_db != out.outcomes[1].sqnr_db

    def test_abort_on_bad_fault_is_an_outcome(self, campaign):
        # install() raises on a signal the design does not have.
        out = campaign.run([StuckAt("no_such_signal", 0.0)])
        o = out.outcomes[0]
        assert not o.completed
        assert "no signal named 'no_such_signal'" in o.error

    def test_bitflip_validates_bit_position(self, campaign):
        out = campaign.run([BitFlip("y", bit=99, at=0)])
        assert not out.outcomes[0].completed

    def test_never_fired_fault_is_flagged(self, campaign):
        # at= beyond the run length: the hook never fires, and the
        # clean-looking outcome must not certify the margin silently.
        out = campaign.run([BitFlip("y", bit=0, at=10 ** 6)])
        o = out.outcomes[0]
        assert o.completed
        assert not o.triggered
        assert o.degradation_db == pytest.approx(0.0)
        assert "IDLE" in out.table()
        assert "never fired" in out.summary()
        assert out.certified(1.0)
        assert not out.certified(1.0, require_triggered=True)
        assert out.to_dict()["outcomes"][0]["triggered"] is False

    def test_triggered_faults_report_true(self, campaign):
        out = campaign.run([BitFlip("y", bit=0, at=100),
                            SeedPerturb(777)])
        assert all(o.triggered for o in out.outcomes)
        assert out.certified(60.0, require_triggered=True)


class TestCampaignResult:
    @pytest.fixture(scope="class")
    def result(self, campaign):
        return campaign.run([BitFlip("y", bit=0, at=100),
                             StuckAt("y", 0.0),
                             SeedPerturb(777)])

    def test_worst_degradation(self, result):
        stuck = result.outcomes[1]
        assert result.worst_degradation_db() == pytest.approx(
            stuck.degradation_db)

    def test_certified_margins(self, result):
        worst = result.worst_degradation_db()
        assert result.certified(60.0, kinds=("bit-flip", "seed-perturb"))
        assert not result.certified(0.5, kinds=("stuck-at",))
        assert not result.certified(worst - 1.0)
        assert result.certified(worst + 1.0)

    def test_table_and_summary(self, result):
        text = result.table()
        assert "bit-flip" in text and "stuck-at" in text
        assert "baseline" in text
        assert "worst SQNR degradation" in result.summary()

    def test_to_dict(self, result):
        d = result.to_dict()
        assert d["output"] == "y"
        assert len(d["outcomes"]) == 3
        assert all("degradation_db" in o for o in d["outcomes"])


class TestStandardFaults:
    def test_composition(self, refined):
        faults = standard_faults(refined.types, inputs=("x",), n_seeds=2)
        kinds = [f.kind for f in faults]
        assert kinds.count("seed-perturb") == 2
        assert kinds.count("input-scale") == 1
        assert kinds.count("nan-inject") == 1
        assert kinds.count("bit-flip") >= 2   # lsb + msb per typed signal

    def test_bitflip_cap(self, refined):
        faults = standard_faults(refined.types, max_bitflip_signals=1)
        assert sum(1 for f in faults if f.kind == "bit-flip") <= 2

    def test_runs_end_to_end(self, campaign, refined):
        faults = standard_faults(refined.types, inputs=("x",), n_seeds=1)
        out = campaign.run(faults)
        assert len(out.outcomes) == len(faults)
        assert all(o.completed for o in out.outcomes)

"""Tests for the RefinementResult.diagnostics stream.

Covers the satellite contract of the observability PR: events arrive in
a stable order, severity filtering works, and every diagnostic carries a
stable machine-readable code — ``DG...`` for flow-level categories and
the ``FX...`` rule id for lint findings — so downstream tooling can
filter without parsing messages.
"""

import math

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.core.errors import WatchdogTimeout
from repro.refine import Design, FlowConfig, RefinementFlow
from repro.robust.diagnostics import (CATEGORY_CODES, DiagEvent,
                                      Diagnostics)
from repro.robust.retry import EscalationPolicy, escalate_msb
from repro.signal import Reg, Sig

T_IN = DType("T_in", 8, 6, "tc", "saturate", "round")


class LeakyDesign(Design):
    """acc = 0.9*acc + x — has an untyped register, so lint fires."""

    name = "leaky"
    inputs = ("x",)
    output = "acc"

    def build(self, ctx):
        self.x = Sig("x")
        self.acc = Reg("acc")
        rng = np.random.default_rng(4)
        self._stim = iter(rng.uniform(-1, 1, size=200000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.acc.assign(self.acc * 0.9 + self.x)
            ctx.tick()


class NanDesign(Design):
    """Injects one NaN so the guard layer produces diagnostics."""

    name = "nanny"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        rng = np.random.default_rng(7)
        self._stim = iter(rng.uniform(-1, 1, size=200000).tolist())
        self._n = 0

    def run(self, ctx, n):
        for _ in range(n):
            self._n += 1
            v = math.nan if self._n == 37 else next(self._stim)
            self.x.assign(v)
            self.y.assign(self.x * 0.5)
            ctx.tick()


def _flow(design, n_samples=800, **cfg_kw):
    cfg = FlowConfig(n_samples=n_samples, seed=11, **cfg_kw)
    return RefinementFlow(design, input_types={"x": T_IN},
                          input_ranges={"x": (-1, 1)}, config=cfg)


class TestStableCodes:
    def test_category_codes_frozen(self):
        # The code table is a public contract: these exact pairs must
        # never change (appending new categories is fine).
        assert CATEGORY_CODES == {
            "guard": "DG001",
            "watchdog": "DG002",
            "auto-range": "DG101",
            "escalation": "DG102",
            "fallback": "DG103",
            "baseline": "DG104",
            "verification": "DG105",
            "deadline": "DG201",
            "quarantine": "DG202",
            "journal": "DG203",
            "retry": "DG204",
            "journal-degraded": "DG205",
            "chaos": "DG207",
            "journal-compact": "DG208",
            "verify-proved": "DG210",
            "verify-counterexample": "DG211",
            "verify-unknown": "DG212",
            "range-replay": "DG219",
        }

    def test_retired_codes_stay_unused(self):
        # DG206, DG209 and DG213-DG218 named the events of removed
        # subsystems (the in-memory cache's checksum, the compiled
        # engine, the refinement service); reusing one would give old
        # logs a new meaning.
        retired = {"DG206", "DG209"} | {"DG%d" % n for n in range(213, 219)}
        assert not retired & set(CATEGORY_CODES.values())

    @pytest.mark.parametrize("category,code", sorted(CATEGORY_CODES.items()))
    def test_event_code_from_category(self, category, code):
        assert DiagEvent(category, "info", None, "m").code == code

    def test_lint_rule_id_wins(self):
        ev = DiagEvent("lint", "warning", "acc", "untyped",
                       {"rule": "FX004"})
        assert ev.code == "FX004"

    def test_unknown_category_gets_generic_code(self):
        assert DiagEvent("novel", "info", None, "m").code == "DG000"

    def test_describe_and_to_dict_carry_code(self):
        d = Diagnostics()
        d.add("guard", "warning", "acc", "sanitized", count=3)
        ev = d.events[0]
        assert "DG001" in ev.describe()
        assert d.to_dict()["events"][0]["code"] == "DG001"


class TestOrderingAndFiltering:
    def test_insertion_order_preserved(self):
        d = Diagnostics()
        d.add("baseline", "info", None, "first")
        d.add("guard", "warning", "x", "second")
        d.add("fallback", "error", "y", "third")
        assert [e.message for e in d] == ["first", "second", "third"]

    def test_severity_filtering(self):
        d = Diagnostics()
        d.add("baseline", "info", None, "a")
        d.add("guard", "warning", "x", "b")
        d.add("guard", "warning", "y", "c")
        d.add("fallback", "error", "z", "d")
        assert [e.message for e in d.warnings] == ["b", "c"]
        assert [e.message for e in d.errors] == ["d"]
        assert len(d.by_severity("info")) == 1

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostics().add("guard", "fatal", None, "boom")

    def test_lint_precedes_phase_events_in_run(self):
        # lint runs before the baseline simulation, so its diagnostics
        # must come first in the stream of a full run.
        res = _flow(NanDesign, guard_action="record").run(strict=False)
        cats = [e.category for e in res.diagnostics]
        assert "lint" in cats and "guard" in cats
        assert cats.index("lint") < cats.index("guard")

    def test_guard_events_surface_with_code(self):
        res = _flow(NanDesign, guard_action="record").run(strict=False)
        guards = res.diagnostics.by_category("guard")
        assert guards, "NaN injection must produce guard diagnostics"
        assert all(e.code == "DG001" for e in guards)
        assert any(e.signal == "x" for e in guards)
        assert res.diagnostics.guard_trips >= 1

    def test_lint_events_carry_rule_codes(self):
        res = _flow(LeakyDesign).run(strict=False)
        lint = res.diagnostics.by_category("lint")
        assert lint, "untyped register must produce lint findings"
        assert all(e.code.startswith("FX") for e in lint)


class TestWatchdogDiagnostics:
    def test_strict_run_still_raises(self):
        # The strict flow keeps the historical contract: a blown
        # watchdog budget aborts the run.
        flow = _flow(LeakyDesign, n_samples=800, max_watchdog_cycles=100)
        with pytest.raises(WatchdogTimeout):
            flow.run_msb_phase()

    def test_graceful_escalation_halves_samples(self):
        # 800 samples against a 250-cycle budget: two halvings land at
        # 200 samples, which fits — the phase must complete and the
        # stream must carry DG002 watchdog diagnostics for each retry.
        flow = _flow(LeakyDesign, n_samples=800, max_watchdog_cycles=250)
        diag = Diagnostics()
        phase = escalate_msb(flow, diag, EscalationPolicy(max_rounds=2))
        assert phase.resolved
        wd = diag.by_category("watchdog")
        assert len(wd) == 2
        assert all(e.code == "DG002" for e in wd)
        assert all(e.severity == "warning" for e in wd)
        assert [e.data["n_samples"] for e in wd] == [400, 200]

    def test_graceful_gives_up_after_max_rounds(self):
        # A 1-cycle budget can never fit: after max_rounds halvings the
        # escalation re-raises and records an error-severity DG002.
        flow = _flow(LeakyDesign, n_samples=800, max_watchdog_cycles=1)
        diag = Diagnostics()
        with pytest.raises(WatchdogTimeout):
            escalate_msb(flow, diag, EscalationPolicy(max_rounds=1))
        wd = diag.by_category("watchdog")
        assert wd[-1].severity == "error"
        assert wd[-1].code == "DG002"

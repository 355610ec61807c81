"""Tests for the RefinementResult.diagnostics stream.

Events arrive in a stable order, severity filtering works, and every
diagnostic carries a stable machine-readable code — ``DG...`` for
flow-level categories and the ``FX...`` rule id for lint findings — so
downstream tooling can filter without parsing messages.  Each
occurrence is reported once: to every open collector, as one ``diag``
trace event, and to its counter.
"""

import math

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.core.errors import WatchdogTimeout
from repro.obs import counters, render_html, render_text
from repro.obs import trace as obs_trace
from repro.parallel import PoolPolicy, SimConfig, run_simulations
from repro.refine import Design, FlowConfig, RefinementFlow
from repro.refine.msbrules import MsbPolicy
from repro.robust.diagnostics import (CATEGORY_CODES, DiagEvent,
                                      Diagnostics, report)
from repro.robust.faults import WorkerCrash
from repro.robust.retry import BackoffPolicy, EscalationPolicy, escalate_msb
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
            "verify-proved": "DG210",
            "verify-counterexample": "DG211",
            "verify-unknown": "DG212",
            "range-replay": "DG219",
        }

    def test_retired_codes_stay_unused(self):
        # DG206, DG208, DG209 and DG213-DG218 named the events of
        # removed subsystems (the in-memory cache's checksum, journal
        # compaction, the compiled engine, the refinement service);
        # reusing one would give old logs a new meaning.
        retired = {"DG206", "DG208", "DG209"} | {"DG%d" % n
                                                 for n in range(213, 219)}
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
        with Diagnostics() as d:
            report("guard", "warning", "sanitized", signal="acc", count=3)
        ev = d.events[0]
        assert "DG001" in ev.describe()
        assert d.to_dict()["events"][0]["code"] == "DG001"


class TestOrderingAndFiltering:
    def test_insertion_order_preserved(self):
        with Diagnostics() as d:
            report("baseline", "info", "first")
            report("guard", "warning", "second", signal="x")
            report("fallback", "error", "third", signal="y")
        assert [e.message for e in d] == ["first", "second", "third"]

    def test_severity_filtering(self):
        with Diagnostics() as d:
            report("baseline", "info", "a")
            report("guard", "warning", "b", signal="x")
            report("guard", "warning", "c", signal="y")
            report("fallback", "error", "d", signal="z")
        assert [e.message for e in d.warnings] == ["b", "c"]
        assert [e.message for e in d.errors] == ["d"]
        assert len(d.by_severity("info")) == 1

    def test_invalid_severity_rejected(self):
        with Diagnostics() as d, pytest.raises(ValueError):
            report("guard", "fatal", "boom")
        assert not d.events

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
        with Diagnostics() as diag:
            phase = escalate_msb(flow, EscalationPolicy(max_rounds=2))
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
        with Diagnostics() as diag, pytest.raises(WatchdogTimeout):
            escalate_msb(flow, EscalationPolicy(max_rounds=1))
        wd = diag.by_category("watchdog")
        assert wd[-1].severity == "error"
        assert wd[-1].code == "DG002"


def leaky_factory():
    return LeakyDesign()


leaky_factory.fingerprint = "test-diagnostics-stream-leaky"


@pytest.fixture
def traced():
    rec = obs_trace.enable()
    yield rec
    obs_trace.disable()


def _diag_events(rec):
    return [e for e in rec.events if e["kind"] == "diag"]


class TestOneEventPerOccurrence:
    def test_traced_run_carries_every_diagnostic(self, traced):
        # An MSB phase that stays unresolved on its one iteration takes
        # the escalation ladder and ends in a fallback type, so the run
        # reports lint (FX) and flow (DG1xx) diagnostics alike.
        res = _flow(LeakyDesign, auto_range=False, max_msb_iterations=1,
                    msb_policy=MsbPolicy(tradeoff_margin=0,
                                         explosion_margin=1)
                    ).run(strict=False)
        codes = [e.code for e in res.diagnostics]
        assert any(c.startswith("FX") for c in codes)
        assert any(c.startswith("DG1") for c in codes)
        diags = _diag_events(traced)
        assert [e["code"] for e in diags] == codes
        assert [e["message"] for e in diags] == \
            [e.message for e in res.diagnostics]
        # Each one sits under the run's refine.run span.
        parents = {e["span"]: e["parent"] for e in traced.events
                   if e["kind"] == "span_start"}
        run_id, = [e["span"] for e in traced.events
                   if e["kind"] == "span_start" and e["name"] == "refine.run"]
        for ev in diags:
            sid = ev["span"]
            while sid is not None and sid != run_id:
                sid = parents.get(sid)
            assert sid == run_id, ev
        # Both renderers name a diagnostic by its code.
        text = render_text(traced.events, max_events_per_span=50)
        page = render_html(traced.events)
        for ev in diags:
            assert "%s %s" % (ev["code"], ev["name"]) in text
            assert "%s %s" % (ev["code"], ev["name"]) in page

    def test_default_render_shows_every_diagnostic(self, traced):
        # Five diagnostics under refine.run (FX001, DG102 x3, DG103): the
        # per-span cap of the text render must not hide the fallback.
        res = _flow(LeakyDesign, auto_range=False, max_msb_iterations=1,
                    msb_policy=MsbPolicy(tradeoff_margin=0,
                                         explosion_margin=1)
                    ).run(strict=False)
        assert len(res.diagnostics) > 4
        assert "DG103" in [e.code for e in res.diagnostics]
        text = render_text(traced.events)
        for ev in _diag_events(traced):
            assert "%s %s" % (ev["code"], ev["name"]) in text
        assert "more event(s)" not in text

    def test_render_caps_only_plain_events(self, traced):
        with obs_trace.span("outer"):
            for i in range(6):
                obs_trace.event("tick%d" % i)
                report("baseline", "info", "note %d" % i)
        text = render_text(traced.events, max_events_per_span=4)
        assert text.count("DG104 baseline") == 6
        assert "tick3" in text and "tick4" not in text
        assert "… 2 more event(s)" in text

    def test_quarantine_reported_once(self, traced):
        counters.reset()
        job = SimConfig(label="boom", dtypes={"x": T_IN}, n_samples=60,
                        seed=3, faults=(WorkerCrash("acc", at=10),),
                        catch_errors=True)
        ok = SimConfig(label="ok", dtypes={"x": T_IN}, n_samples=60, seed=4)
        policy = PoolPolicy(max_retries=0,
                            backoff=BackoffPolicy(base=0.01, jitter=0.0))
        with Diagnostics() as diag:
            out = run_simulations(leaky_factory, [ok, job], workers=2,
                                  pool_policy=policy)
        assert out[0].completed and out[1].error_kind == "crash"
        assert [e.code for e in diag] == ["DG202"]
        assert [e["code"] for e in _diag_events(traced)] == ["DG202"]
        assert not [e for e in traced.events if e["kind"] == "event"
                    and "quarantine" in e["name"]]
        assert counters.get("parallel.quarantined") == 1

    def test_nested_collectors_both_receive(self):
        with Diagnostics() as outer:
            report("baseline", "info", "before")
            with Diagnostics() as inner:
                ev = report("fallback", "warning", "inside", signal="y")
            report("baseline", "info", "after")
        assert inner.events == [ev]
        assert [e.message for e in outer] == ["before", "inside", "after"]
        assert outer.events[1] is ev

    def test_report_without_collector_counts_and_traces(self, traced):
        counters.reset()
        with obs_trace.span("outer") as sp:
            ev = report("quarantine", "warning", "lonely",
                        counter="parallel.quarantined", label="j")
        assert ev.code == "DG202"
        assert counters.get("parallel.quarantined") == 1
        diag, = _diag_events(traced)
        assert diag["name"] == "quarantine" and diag["code"] == "DG202"
        assert diag["span"] == sp.span_id and diag["label"] == "j"
        assert diag["severity"] == "warning" and diag["signal"] is None

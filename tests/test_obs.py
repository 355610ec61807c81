"""Tests for repro.obs — tracing, metrics, profiling, export, CLI."""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.core.dtype import DType
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import Recorder, new_span_id, read_jsonl, write_jsonl
from repro.obs.trace import _NULL
from repro.parallel.runner import SimConfig, run_simulations
from repro.refine import Design, FlowConfig, RefinementFlow
from repro.signal import (DesignContext, RegArray, Sig, SigArray,
                          as_expr)

T8 = DType("T8", 8, 6, "tc", "saturate", "round")


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability fully disabled."""
    obs_trace.disable()
    obs_metrics.disable()
    yield
    obs_trace.disable()
    obs_metrics.disable()


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


def _scale_factory():
    return ScaleDesign()


# -- trace -------------------------------------------------------------------

class TestTrace:
    def test_disabled_span_is_shared_noop(self):
        assert obs_trace.span("a") is obs_trace.span("b") is _NULL
        with obs_trace.span("a", x=1) as sp:
            sp.set(y=2).event("nothing")   # all no-ops, no recorder

    def test_span_nesting_and_attrs(self):
        rec = obs_trace.enable()
        with obs_trace.span("outer", a=1) as outer:
            with obs_trace.span("inner") as inner:
                inner.set(b=2)
                obs_trace.event("ping", c=3)
        events = rec.events
        assert [e["kind"] for e in events] == [
            "span_start", "span_start", "event", "span_end", "span_end"]
        start_outer, start_inner, ping, end_inner, end_outer = events
        assert start_inner["parent"] == start_outer["span"]
        assert ping["span"] == start_inner["span"]
        assert end_inner["b"] == 2
        assert end_outer["a"] == 1
        assert end_outer["status"] == "ok"
        assert end_outer["dur"] >= end_inner["dur"] >= 0.0

    def test_span_error_status(self):
        rec = obs_trace.enable()
        with pytest.raises(ValueError):
            with obs_trace.span("boom"):
                raise ValueError("nope")
        end = rec.events[-1]
        assert end["status"] == "error"
        assert "ValueError: nope" == end["exc"]

    def test_enable_is_idempotent_disable_returns_recorder(self):
        rec = obs_trace.enable()
        assert obs_trace.enable() is rec
        assert obs_trace.disable() is rec
        assert obs_trace.disable() is None
        assert not obs_trace.enabled()

    def test_span_ids_unique(self):
        ids = {new_span_id() for _ in range(100)}
        assert len(ids) == 100

    def test_recorder_capacity_drops_and_counts(self):
        rec = Recorder(capacity=3)
        for i in range(5):
            rec.record({"i": i})
        assert len(rec.events) == 3
        assert rec.dropped == 2


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        rec = obs_trace.enable()
        with obs_trace.span("s", n=1):
            obs_trace.event("e", msg="hello")
        path = tmp_path / "t.jsonl"
        rec.to_jsonl(str(path))
        meta, events = read_jsonl(str(path))
        assert meta.get("kind") == "meta"
        assert len(events) == len(rec.events)
        assert events[0]["name"] == "s"

    def test_write_unserializable_falls_back_to_repr(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl([{"ts": 0, "kind": "event", "obj": object()}],
                    str(path))
        _meta, events = read_jsonl(str(path))
        assert "object object" in events[0]["obj"]


# -- metrics -----------------------------------------------------------------

class TestMetrics:
    def test_default_record_untouched_when_disabled(self):
        from repro.signal.signal import Sig as SigCls
        before = SigCls.assign
        obs_metrics.enable()
        assert SigCls.assign is not before
        obs_metrics.disable()
        assert SigCls.assign is before

    def test_counters(self):
        obs_metrics.enable()
        ctx = DesignContext("m", overflow_action="record")
        with ctx:
            s = Sig("s", T8)
            for v in (0.3, 9.0, -9.0, 0.1):   # two saturations
                s.assign(v)
                ctx.tick()
        obs_metrics.disable()
        snap = obs_metrics.snapshot(ctx)
        m = snap["s"]
        assert m.n == 4
        assert m.saturate == 2
        assert m.overflow == 0 and m.wrap == 0
        assert m.out_of_range == 2
        assert m.round_err_max >= m.round_err_mean > 0.0

    def test_simulation_unchanged_by_metrics(self):
        def run():
            ctx = DesignContext("m", seed=5, overflow_action="record")
            with ctx:
                s = Sig("s", T8)
                vals = np.random.default_rng(5).uniform(-3, 3, 200)
                for v in vals:
                    s.assign(float(v))
                    ctx.tick()
            return s.fx, s.overflow_count, s.range_stat.min

        plain = run()
        obs_metrics.enable()
        metered = run()
        obs_metrics.disable()
        assert plain == metered

    def test_metered_run_leaves_monitors_unflushed(self):
        vals = [0.5, -0.25, 0.75, 0.5, -1.0, -0.0, 1.5, 0.25]
        obs_metrics.enable()
        try:
            ctx = DesignContext("m", overflow_action="record")
            with ctx:
                s = Sig("s", T8)
                for v in vals:
                    s.assign(v)
                    ctx.tick()
            # Churn was counted without reducing the recorded values.
            assert len(s._cols) == 4 * len(vals)
            assert s._range_stat.is_empty
        finally:
            obs_metrics.disable()
        m = obs_metrics.snapshot(ctx)["s"]
        assert (m.min_churn, m.max_churn) == (3, 3)
        assert s.range_stat.count == len(vals)
        assert not s._cols
        assert (s.range_stat.min, s.range_stat.max) == (-1.0, 1.5)

    def test_emit_records_metric_events(self):
        rec = obs_trace.enable()
        obs_metrics.enable()
        ctx = DesignContext("m", overflow_action="record")
        with ctx:
            s = Sig("s", T8)
            s.assign(0.5)
            ctx.tick()
        obs_metrics.emit(ctx, label="unit")
        obs_metrics.disable()
        metric = [e for e in rec.events if e["kind"] == "metric"]
        assert len(metric) == 1
        assert metric[0]["signal"] == "s"
        assert metric[0]["label"] == "unit"
        assert metric[0]["n"] == 1

    def test_float_assignment_counts_like_an_expr(self):
        """A float reaches ``Sig.assign`` with no Expr; the counters
        must read as they do for the wrapped literal."""
        vals = [0.3, 9.0, -0.0, -9.0, 0.1, float("nan"), 0.7]

        def run(wrap):
            ctx = DesignContext("m", overflow_action="record",
                                guard_action="sanitize")
            with ctx:
                s = Sig("s", T8)
                for v in vals:
                    s.assign(as_expr(v) if wrap else v)
                    ctx.tick()
            return obs_metrics.snapshot(ctx)["s"].to_dict()

        obs_metrics.enable()
        try:
            plain, wrapped = run(False), run(True)
        finally:
            obs_metrics.disable()
        assert plain == wrapped
        assert plain["n"] == len(vals) and plain["saturate"] == 2

    def test_collecting_context_manager(self):
        with obs_metrics.collecting():
            ctx = DesignContext("m", overflow_action="record")
            with ctx:
                s = Sig("s", T8)
                s.assign(0.25)
                ctx.tick()
        assert not obs_metrics.enabled()
        assert obs_metrics.snapshot(ctx)["s"].n == 1


# -- profile -----------------------------------------------------------------

class TestProfile:
    def test_buckets_and_restore(self):
        from repro.signal.signal import Sig as SigCls
        before = SigCls.assign
        before_flush = SigCls._flush
        with obs.profile() as prof:
            ctx = DesignContext("p", overflow_action="record")
            with ctx:
                a = Sig("a", T8)
                b = Sig("b", T8)
                for i in range(50):
                    a.assign(0.01 * i)
                    b.assign(a + a)
                    ctx.tick()
                assert a.range_stat.count == 50   # flushes, timed
        assert SigCls.assign is before
        assert SigCls._flush is before_flush
        rep = prof.report
        assert rep.n_assign == 100
        assert rep.n_kernel > 0
        assert rep.wall_s > 0.0
        assert set(rep.buckets()) == {"quantize_kernel", "monitor_record",
                                      "interval_propagation",
                                      "python_overhead"}
        assert "quantize_kernel" in rep.table()
        # kernels restored: no timing wrapper left on the signals
        assert not hasattr(a._kernel, "_obs_prof")
        assert rep.flush_s > 0.0

    def test_counts_float_and_expr_assignments(self):
        with obs.profile() as prof:
            ctx = DesignContext("p", overflow_action="record")
            with ctx:
                a = Sig("a", T8)
                a.assign(0.3)
                a.assign(as_expr(0.3))
                a <<= 0.25
                ctx.tick()
        assert prof.report.n_assign == 3
        assert a.range_stat.count == 3

    def test_sessions_do_not_nest(self):
        with obs.profile():
            with pytest.raises(RuntimeError):
                with obs.profile():
                    pass

    def test_output_only_run_counts_monitored_assignments(self):
        with obs.profile() as prof:
            ctx = DesignContext("p", overflow_action="record")
            with ctx:
                a = Sig("a", T8)
                y = Sig("y", T8)
                ctx.monitor_only("y")
                for i in range(40):
                    a.assign(0.01 * i)
                    if i % 2:
                        y.assign(a * 0.5)
                    ctx.tick()
        rep = prof.report
        assert rep.n_assign == 60
        assert rep.n_monitored == y.range_stat.count == 20
        assert rep.to_dict()["n_monitored"] == 20
        assert sum(rep.buckets().values()) == pytest.approx(rep.wall_s)


# -- the one assignment entry point -----------------------------------------

#: Every spelling of an assignment to element ``s`` of ``parts``:
#: ``fn(parts, value) -> the assigned signal``.
SPELLINGS = {
    "assign": lambda p, v: p["s"].assign(v),
    "ilshift": lambda p, v: _ilshift(p["s"], v),
    "sigarray": lambda p, v: _store(p["sigarray"], v),
    "regarray": lambda p, v: _store(p["regarray"], v),
}

VALUES = {
    "float": lambda p: 0.25,
    "int": lambda p: 1,
    "expr": lambda p: p["u"] + 0.5,
    "sig": lambda p: p["u"],
    "np.float64": lambda p: np.float64(-0.5),
}


def _ilshift(s, v):
    t = s
    t <<= v
    assert t is s
    return s


def _store(arr, v):
    arr[1] = v
    return arr[1]


def _entry_parts():
    """``(ctx, parts)``: a context with a target and a source signal and
    one array of each kind."""
    ctx = DesignContext("entry", overflow_action="record")
    with ctx:
        parts = {"s": Sig("s", T8), "u": Sig("u", T8, init=0.125),
                 "sigarray": SigArray("sa", 3, T8),
                 "regarray": RegArray("ra", 3, T8)}
    return ctx, parts


class TestEntryPoint:
    @pytest.mark.parametrize("value", sorted(VALUES))
    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_every_spelling_reaches_assign_once(self, spelling, value):
        # Metered: the counters of exactly one assignment, on the target.
        ctx, parts = _entry_parts()
        with obs_metrics.collecting():
            target = SPELLINGS[spelling](parts, VALUES[value](parts))
        counts = {n: m.n for n, m in obs_metrics.snapshot(ctx).items()}
        assert counts == {target.name: 1}
        # Profiled: one timed assignment.
        ctx, parts = _entry_parts()
        with obs.profile() as prof:
            target = SPELLINGS[spelling](parts, VALUES[value](parts))
        assert prof.report.n_assign == prof.report.n_monitored == 1
        assert target.range_stat.count == 1

    @pytest.mark.parametrize("wrap", ["metrics", "profile"])
    def test_wrappers_return_the_signal(self, wrap):
        _, parts = _entry_parts()
        s, u = parts["s"], parts["u"]
        with obs_metrics.collecting() if wrap == "metrics" else obs.profile():
            out = [s.assign(0.5), s.assign(u * 2.0)]
        assert out == [s, s]

    @pytest.mark.parametrize("spelling,frames", [
        ("assign", ["assign"]),
        ("ilshift", ["__ilshift__", "assign"]),
        ("sigarray", ["__setitem__", "assign"]),
        ("regarray", ["__setitem__", "assign"]),
    ])
    def test_frames_per_assignment(self, spelling, frames):
        """An assignment runs ``Sig.assign`` once and nothing of the
        signal package beneath it (the kernel is a closure of
        ``repro.core.kernels``)."""
        _, parts = _entry_parts()
        s, u, arr = parts["s"], parts["u"], parts.get(spelling)

        def do(v):
            if spelling == "assign":
                s.assign(v)
            elif spelling == "ilshift":
                t = s
                t <<= v
            else:
                arr[1] = v

        calls = []

        def prof(frame, event, arg):
            if event == "call" and "repro/signal/" in \
                    frame.f_code.co_filename.replace(os.sep, "/"):
                calls.append(frame.f_code.co_name)

        sys.setprofile(prof)
        try:
            do(0.25)
            do(u)
        finally:
            sys.setprofile(None)
        assert calls == frames + frames


# -- flow + parallel integration --------------------------------------------

class TestFlowIntegration:
    def _flow(self):
        cfg = FlowConfig(n_samples=400, seed=9)
        return RefinementFlow(ScaleDesign, input_types={"x": T8},
                              input_ranges={"x": (-1, 1)}, config=cfg)

    def test_traced_run_produces_span_tree(self):
        rec = obs_trace.enable()
        obs_metrics.enable()
        self._flow().run()
        obs_metrics.disable()
        obs_trace.disable()
        names = {e["name"] for e in rec.events
                 if e["kind"] == "span_start"}
        for expected in ("refine.run", "refine.baseline",
                         "refine.msb_phase", "refine.msb.iteration",
                         "refine.lsb_phase", "refine.lsb.iteration",
                         "refine.simulate", "refine.verify", "lint.run",
                         "lint.rule"):
            assert expected in names, expected
        progress = [e for e in rec.events if e["name"] == "refine.progress"]
        assert {p["phase"] for p in progress} == {"msb", "lsb"}
        assert any("sqnr_db" in p for p in progress)
        # metrics emitted per simulation, per signal
        assert any(e["kind"] == "metric" for e in rec.events)
        # span stack fully unwound
        assert obs_trace.current_span_id() is None

    def test_untraced_run_identical_result(self):
        r1 = self._flow().run()
        obs_trace.enable()
        obs_metrics.enable()
        r2 = self._flow().run()
        obs_metrics.disable()
        obs_trace.disable()
        assert r1.verification.output_sqnr_db == \
            r2.verification.output_sqnr_db
        assert {k: v.spec() for k, v in r1.types.items()} == \
            {k: v.spec() for k, v in r2.types.items()}


class TestParallelShipping:
    def _configs(self, n):
        return [SimConfig(label="job-%d" % i, dtypes={"x": T8, "y": T8},
                          n_samples=200, seed=100 + i) for i in range(n)]

    def test_serial_jobs_record_directly(self):
        rec = obs_trace.enable()
        outcomes = run_simulations(_scale_factory, self._configs(2),
                                   workers=1)
        obs_trace.disable()
        assert all(o.completed for o in outcomes)
        assert all(o.obs_events == () for o in outcomes)
        jobs = [e for e in rec.events if e["kind"] == "span_start"
                and e["name"] == "parallel.job"]
        assert len(jobs) == 2

    @pytest.mark.skipif(os.environ.get("REPRO_PARALLEL") == "0",
                        reason="parallel disabled in environment")
    def test_pool_ships_worker_events_home(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        rec = obs_trace.enable()
        with obs_trace.span("batch-parent"):
            outcomes = run_simulations(_scale_factory, self._configs(3),
                                       workers=2)
        obs_trace.disable()
        assert all(o.completed for o in outcomes)
        starts = [e for e in rec.events if e["kind"] == "span_start"]
        batch = [e for e in starts if e["name"] == "parallel.batch"]
        jobs = [e for e in starts if e["name"] == "parallel.job"]
        assert len(batch) == 1 and len(jobs) == 3
        # all worker spans chain to the parent-side batch span
        assert all(j["parent"] == batch[0]["span"] for j in jobs)
        # worker-minted span ids embed the worker pid, not the parent's
        parent_pid = "%x" % os.getpid()
        assert all(not j["span"].startswith(parent_pid + ".")
                   for j in jobs)
        # every shipped span also closed
        ends = {e["span"] for e in rec.events if e["kind"] == "span_end"}
        assert all(j["span"] in ends for j in jobs)

    def test_pool_without_tracing_ships_nothing(self):
        outcomes = run_simulations(_scale_factory, self._configs(2),
                                   workers=2)
        assert all(o.obs_events == () for o in outcomes)


# -- export + CLI ------------------------------------------------------------

def _capture_trace():
    rec = obs_trace.enable()
    with obs_trace.span("root", design="unit"):
        with obs_trace.span("child") as sp:
            sp.event("tick", n=1)
    obs_trace.disable()
    return rec


class TestExport:
    def test_build_spans_tree(self):
        rec = _capture_trace()
        roots, orphans = obs.build_spans(rec.events)
        assert len(roots) == 1 and not orphans
        root = roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child"]
        assert root.dur is not None

    def test_summarize(self):
        rec = _capture_trace()
        s = obs.summarize(rec.events)
        assert s["spans"] == 2
        assert s["root_spans"] == 1
        assert s["error_spans"] == 0
        assert s["events"] == len(rec.events)

    def test_render_text(self):
        rec = _capture_trace()
        text = obs.render_text(rec.events)
        assert "root" in text and "child" in text and "tick" in text

    def test_render_html_self_contained(self):
        rec = _capture_trace()
        html = obs.render_html(rec.events, title="Unit")
        assert html.startswith("<!doctype html>")
        assert "Unit" in html and "root" in html
        # self-contained: no external scripts, styles or fetches
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_orphan_spans_still_rendered(self):
        # span_end without a start (e.g. truncated capture) must not
        # crash the renderers.
        events = [{"ts": 1.0, "kind": "span_end", "name": "lost",
                   "span": "1.1", "parent": None, "dur": 0.5,
                   "status": "ok"}]
        assert "lost" in obs.render_text(events)
        assert "lost" in obs.render_html(events)


class TestCli:
    def _write_trace(self, tmp_path):
        rec = _capture_trace()
        path = tmp_path / "trace.jsonl"
        rec.to_jsonl(str(path))
        return path

    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), "src")
        return subprocess.run([sys.executable, "-m", "repro.obs",
                               *args], capture_output=True, text=True,
                              env=env)

    def test_report_text(self, tmp_path):
        path = self._write_trace(tmp_path)
        out = self._run("report", str(path))
        assert out.returncode == 0, out.stderr
        assert "root" in out.stdout

    def test_report_html(self, tmp_path):
        path = self._write_trace(tmp_path)
        html = tmp_path / "out.html"
        out = self._run("report", str(path), "--format", "html",
                        "--out", str(html))
        assert out.returncode == 0, out.stderr
        assert html.read_text().startswith("<!doctype html>")

    def test_summary_json(self, tmp_path):
        path = self._write_trace(tmp_path)
        out = self._run("summary", str(path))
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        assert data["spans"] == 2

    def test_missing_trace_exits_2(self, tmp_path):
        out = self._run("report", str(tmp_path / "nope.jsonl"))
        assert out.returncode == 2

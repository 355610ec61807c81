"""Range-only MSB re-iterations replayed from an interval tape.

Inside ``RefinementFlow.run()`` the first MSB-phase job records an
interval tape and a later MSB iteration, which differs from it only in
its ``range()`` annotations, is replayed from that tape.  Whenever the
tape cannot be trusted the iteration is simulated in full and a
``range-replay`` diagnostic (DG219) says why; either way its outcome is
bit-identical to a full simulation.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.core.errors import RefinementError
from repro.core.interval import Interval
from repro.gallery.registry import factory, get_design
from repro.parallel import SimConfig, fingerprint, run_simulations
from repro.parallel.runner import _pool_width
from repro.refine import Design, FlowConfig
from repro.refine import flow as flow_module
from repro.signal import DesignContext, Expr, Reg, Sig, cast
from repro.signal.interval_tape import IntervalTape
from tests.test_flow_runner import RecordingFlow

T_IN = DType("T_in", 8, 6, "tc", "saturate", "round")


class AccDesign(Design):
    """Adaptive feedback whose propagated range explodes, so the MSB
    phase needs ``acc.range()`` and a second iteration.  Subclasses
    misbehave in :meth:`extra` on the first sample of the run."""

    name = "acc"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.acc = Reg("acc")
        self.y = Sig("y")
        rng = np.random.default_rng(5)
        self._stim = iter(rng.uniform(0.5, 1.0, size=200000).tolist())
        self._first = True

    def extra(self, ctx):
        pass

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            if self._first:
                self._first = False
                self.extra(ctx)
            err = self.x - self.acc * self.x
            self.acc.assign(self.acc + err * 0.05)
            self.y.assign(self.acc * 0.5)
            ctx.tick()


def _flow(design, **cfg):
    return RecordingFlow(
        design, input_types={"x": T_IN}, input_ranges={"x": (0.5, 1.0)},
        user_ranges={"acc": (-2.0, 2.0)},
        config=FlowConfig(n_samples=200, seed=9, lint_design=False,
                          auto_range=False, **cfg))


def _full_msb_iter_2(design):
    """msb-iter-2's outcome from a full simulation."""
    job = SimConfig(label="msb-iter-2", dtypes={"x": T_IN},
                    ranges={"x": (0.5, 1.0), "acc": (-2.0, 2.0)},
                    n_samples=200, seed=9, snapshot_errors=True)
    out, = run_simulations(design, [job], workers=1)
    return out


def _replay_events(res):
    return res.diagnostics.by_category("range-replay")


def _check(design, reason):
    """Run the flow; msb-iter-2 must fall back with ``reason`` and still
    equal a full simulation bit for bit."""
    flow = _flow(design)
    res = flow.run()
    assert res.msb.n_iterations == 2
    ev, = _replay_events(res)
    assert ev.code == "DG219"
    assert ev.data["label"] == "msb-iter-2"
    assert reason in ev.data["reason"]
    assert repr(flow.outcomes["msb-iter-2"]) == \
        repr(_full_msb_iter_2(design))
    return res


class TestReplay:
    def test_second_msb_iteration_is_replayed(self):
        flow = _flow(AccDesign)
        res = flow.run()
        assert res.msb.n_iterations == 2
        assert not _replay_events(res)
        assert repr(flow.outcomes["msb-iter-2"]) == \
            repr(_full_msb_iter_2(AccDesign))

    def test_no_tape_without_a_possible_second_iteration(self, monkeypatch):
        starts = _count_starts(monkeypatch)
        flow = RecordingFlow(
            AccDesign, input_types={"x": T_IN},
            input_ranges={"x": (0.5, 1.0)},
            config=FlowConfig(n_samples=200, seed=9, lint_design=False,
                              auto_range=False))
        with pytest.raises(RefinementError):
            flow.run()          # the explosion stays unresolved
        assert starts == []
        _flow(AccDesign).run()
        assert starts == [1]


    def test_lint_pre_flight_gates_auto_range_recording(self, monkeypatch):
        # No user ranges: only auto-ranging can add a second MSB
        # iteration, and the lint pre-flight predicts whether it will.
        starts = _count_starts(monkeypatch)
        cfg = FlowConfig(n_samples=200, seed=9)
        res = RecordingFlow(AccDesign, input_types={"x": T_IN},
                            input_ranges={"x": (0.5, 1.0)},
                            config=cfg).run()
        assert "FX001" in {e.data.get("rule")
                           for e in res.diagnostics.by_category("lint")}
        assert res.msb.n_iterations == 2
        assert starts == [1]
        res = RecordingFlow(FeedForward, input_types={"x": T_IN},
                            input_ranges={"x": (0.5, 1.0)},
                            config=cfg).run()
        assert "FX001" not in {e.data.get("rule")
                               for e in res.diagnostics.by_category("lint")}
        assert res.msb.n_iterations == 1
        assert starts == [1]
        # Without the pre-flight there is no evidence either way.
        RecordingFlow(FeedForward, input_types={"x": T_IN},
                      input_ranges={"x": (0.5, 1.0)},
                      config=replace(cfg, lint_design=False)).run()
        assert starts == [1, 1]


def _count_starts(monkeypatch):
    starts = []
    real = IntervalTape.start
    monkeypatch.setattr(IntervalTape, "start",
                        lambda self, ctx: starts.append(1)
                        or real(self, ctx))
    return starts


class FeedForward(Design):
    """``y = 0.5 x + 0.25``: no feedback, one MSB iteration."""

    name = "feed-forward"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        rng = np.random.default_rng(5)
        self._stim = iter(rng.uniform(0.5, 1.0, size=200000).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.y.assign(self.x * 0.5 + 0.25)
            ctx.tick()


class LateSignal(AccDesign):
    def extra(self, ctx):
        # Never assigned, so it stays floating-point and verification
        # (which types every exercised signal) still applies.
        self.late = Sig("late")


class RangeInRun(AccDesign):
    def extra(self, ctx):
        self.y.range(-1.0, 1.0)


class DtypeInRun(AccDesign):
    def extra(self, ctx):
        self.y.set_dtype(None)


class ErrorSpecInRun(AccDesign):
    def extra(self, ctx):
        self.y.error_spec(2.0 ** -10)


class OpaqueOperand(AccDesign):
    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.acc.assign(self.acc + (self.x - self.acc * self.x) * 0.05)
            # An interval that is not the point of its value, with no
            # operation or signal behind it.
            self.y.assign(self.acc * 0.5
                          + Expr(0.0, 0.0, Interval(-0.1, 0.1)))
            ctx.tick()


class CarriedExpr(AccDesign):
    def run(self, ctx, n):
        prev = None
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.acc.assign(self.acc + (self.x - self.acc * self.x) * 0.05)
            self.y.assign(self.acc * 0.5 if prev is None else prev)
            prev = self.acc * 0.5        # consumed after the tick
            ctx.tick()


class CastLiteral(AccDesign):
    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.acc.assign(self.acc + (self.x - self.acc * self.x) * 0.05)
            # The cast rounds 0.3 to 0.3125: an operation over a literal,
            # not an operand whose interval misses its value.
            self.y.assign(self.acc * 0.5
                          + cast(0.3, DType("T", 8, 4, "tc", "saturate",
                                            "round")))
            ctx.tick()


def test_cast_of_a_literal_is_replayed():
    flow = _flow(CastLiteral)
    res = flow.run()
    assert res.msb.n_iterations == 2
    assert not _replay_events(res)
    assert repr(flow.outcomes["msb-iter-2"]) == \
        repr(_full_msb_iter_2(CastLiteral))


class TestFallbacks:
    def test_signal_created_inside_run(self):
        _check(LateSignal, "signal 'late' was created inside run()")

    def test_range_inside_run(self):
        _check(RangeInRun, "range() was called on 'y' inside run()")

    def test_set_dtype_inside_run(self):
        _check(DtypeInRun, "set_dtype() was called on 'y' inside run()")

    def test_error_spec_inside_run(self):
        _check(ErrorSpecInRun, "error_spec() was called on 'y' inside run()")

    def test_operand_without_provenance(self):
        _check(OpaqueOperand, "no provenance")

    def test_expression_carried_across_a_tick(self):
        _check(CarriedExpr, "carried across ctx.tick()")

    def test_job_ran_on_no_interpreted_engine(self, monkeypatch):
        # A pool worker records into a copy of the tape: the flow's own
        # tape stays empty.
        real = flow_module.run_simulations

        def elsewhere(factory, configs, **kw):
            return real(factory,
                        [replace(c, tape=pickle.loads(pickle.dumps(c.tape)))
                         for c in configs], **kw)

        monkeypatch.setattr(flow_module, "run_simulations", elsewhere)
        _check(AccDesign, "ran on no interpreted engine")

    def test_replay_that_raises(self, monkeypatch):
        def boom(self, forced):
            raise RuntimeError("boom")

        monkeypatch.setattr(IntervalTape, "replay", boom)
        _check(AccDesign, "the interval replay raised RuntimeError: boom")


class TestTapeRecording:
    def test_pool_and_compiled_runs_record_nothing_home(self):
        job = SimConfig(n_samples=50, dtypes={"x": T_IN})
        tapes = [IntervalTape(), IntervalTape()]
        run_simulations(AccDesign, [replace(job, tape=tapes[0]),
                                    replace(job, seed=2, tape=tapes[1])],
                        workers=2)
        serial = IntervalTape()
        run_simulations(AccDesign, [replace(job, tape=serial)], workers=1)
        assert serial.recorded and serial.reason is None
        if _pool_width(2, 2) >= 2:      # the pair ran in a fork pool
            assert not any(t.recorded for t in tapes)

    @pytest.mark.parametrize("consume", ["operation", "assignment"])
    def test_expression_consumed_first_after_a_tick(self, consume):
        # ctx.tick() closes the tick, so even an expression that the next
        # tick consumes before recording anything else is caught.
        with DesignContext("carry") as ctx:
            x, y = Sig("x"), Sig("y")
            tape = IntervalTape()
            tape.start(ctx)
            x.assign(0.5)
            carried = x * 2.0
            ctx.tick()
            y.assign(carried + x if consume == "operation" else carried)
            ctx.tick()
            tape.finish()
        assert tape.reason == "an expression was carried across ctx.tick()"

    def test_every_tick_is_closed(self):
        # Empty ticks count, and trailing work after the last tick is one
        # more tick.
        with DesignContext("ticks") as ctx:
            x = Sig("x")
            tape = IntervalTape()
            tape.start(ctx)
            for v in (0.25, None, None, 0.5):
                if v is not None:
                    x.assign(v)
                ctx.tick()
            x.assign(0.75)
            tape.finish()
        assert tape.reason is None
        assert tape.n_ticks == 5
        assert tape.n_shapes == 2

    def test_tape_stays_out_of_the_cache_key(self):
        job = SimConfig(n_samples=50)
        assert fingerprint(AccDesign, job) == \
            fingerprint(AccDesign, replace(job, tape=IntervalTape()))


@pytest.mark.parametrize("bounds", [(-2.0, 2.0), (0.0, 0.0), (-1e300, 1e300)])
def test_replay_of_a_forced_accumulator(bounds):
    tape = IntervalTape()
    job = SimConfig(n_samples=120, dtypes={"x": T_IN})
    taped, = run_simulations(AccDesign, [replace(job, tape=tape)],
                             workers=1)
    ranged = replace(job, ranges={"acc": bounds})
    full, = run_simulations(AccDesign, [ranged], workers=1)
    assert repr(flow_module._replayed(taped, tape, ranged)) == repr(full)


def test_replay_of_a_multi_rate_design():
    # The DDC's comb runs every 4th tick: two tick shapes.
    entry = get_design("ddc")
    design = factory(entry)
    tape = IntervalTape()
    job = SimConfig(dtypes=entry.dtypes, errors=entry.errors, n_samples=256)
    taped, = run_simulations(design, [replace(job, tape=tape)], workers=1)
    assert tape.reason is None
    assert (tape.n_ticks, tape.n_shapes) == (256, 2)
    ranged = replace(job, ranges=entry.ranges)
    full, = run_simulations(design, [ranged], workers=1)
    assert repr(flow_module._replayed(taped, tape, ranged)) == repr(full)


class DeadChain(AccDesign):
    """``z`` is forced in the replayed job, so the chain feeding it is
    dead on the interval side; the full simulation still evaluates it."""

    def build(self, ctx):
        super().build(ctx)
        self.w = Sig("w")
        self.z = Sig("z")

    def extra(self, ctx):
        pass

    def run(self, ctx, n):
        for _ in range(n):
            self.w.assign(self.x * 1.0)
            self.z.assign(self.w * self.w - self.w * self.w)
            super().run(ctx, 1)


def test_replay_raises_where_a_dead_chain_raises():
    # w forced to a huge point: w * w is [inf, inf] and inf - inf is NaN,
    # which the interval arithmetic refuses -- also in the chain that
    # only feeds the forced z.
    tape = IntervalTape()
    job = SimConfig(n_samples=20, dtypes={"x": T_IN})
    taped, = run_simulations(DeadChain, [replace(job, tape=tape)],
                             workers=1)
    ranged = replace(job, ranges={"w": (1e300, 1e300), "z": (-1.0, 1.0)})
    with pytest.raises(ValueError, match="NaN"):
        run_simulations(DeadChain, [ranged], workers=1)
    with pytest.raises(ValueError, match="NaN"):
        flow_module._replayed(taped, tape, ranged)


class QuietThenGrow(Design):
    """Tick keys A A B A A A: the second A changes nothing, B grows
    ``x``, the next A carries that growth into ``t``; the last A repeats
    a quiet one and is skipped."""

    name = "quiet-then-grow"
    inputs = ()
    output = "t"
    PLAN = ((0.0, 1.0), (0.0, 1.0), (5.0, 0.0),
            (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

    def build(self, ctx):
        self.x = Sig("x")
        self.t = Sig("t")
        self.y = Sig("y")

    def run(self, ctx, n):
        for i in range(n):
            k1, k2 = self.PLAN[i % len(self.PLAN)]
            self.x.assign(k1)
            self.t.assign(self.x * k2)
            self.y.assign(self.t + 0.0)
            ctx.tick()


def test_memo_reexecutes_a_quiet_tick_once_the_state_grew():
    tape = IntervalTape()
    job = SimConfig(n_samples=6)
    taped, = run_simulations(QuietThenGrow, [replace(job, tape=tape)],
                             workers=1)
    ranged = replace(job, ranges={"y": (-1.0, 1.0)})
    full, = run_simulations(QuietThenGrow, [ranged], workers=1)
    served = flow_module._replayed(taped, tape, ranged)
    assert repr(full.records["t"].prop) == "Interval(0, 5)"
    assert repr(served) == repr(full)
    assert tape.executed_ticks == 5

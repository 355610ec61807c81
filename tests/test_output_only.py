"""Output-only jobs: the output's record of a full job, at a lower cost.

A ``SimConfig(monitors="output")`` job runs the full job's value side
(guard, fault hooks, quantization, overflow counting and raising,
``error()`` draws, registers) but monitors only ``design.output`` and
propagates no ranges.  Hypothesis checks that its single record equals
the full job's output record with ``prop`` emptied, and that both jobs
fail alike on value-side errors, and that it reports the full job's
overflow total.  A machine-independent guard shows the work really is
skipped, and the sweeps and the gallery matrix build such jobs.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.signal.expr as expr_module
from repro.core.dtype import DType
from repro.core.errors import (DesignError, FixedPointOverflowError,
                               NonFiniteError)
from repro.core.interval import Interval
from repro.dsp.lms import LmsEqualizerDesign
from repro.dsp.timing_recovery import TimingRecoveryDesign
from repro.gallery import matrix
from repro.gallery.matrix import SMOKE_AXES, _cell_record, run_matrix
from repro.gallery.registry import factory, gallery
from repro.parallel import runner
from repro.parallel.runner import SimCache, SimConfig, fingerprint
from repro.refine import optimizer, sensitivity
from repro.refine.optimizer import optimize_wordlengths
from repro.refine.sensitivity import analyze_sensitivity
from repro.robust.faults import BitFlip
from repro.signal.interval_tape import IntervalTape

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")
T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
PHASE_T = DType("T_eta", 12, 12, "us", "wrap", "round")

LMS_SIGNALS = ("x", "y", "w", "b", "s", "v[0]", "v[1]", "v[2]", "v[3]",
               "c[0]", "c[1]", "c[2]", "d[0]", "d[1]", "d[2]")

#: errors that come from the value side, which both kinds of job run.
VALUE_ERRORS = (NonFiniteError, FixedPointOverflowError)


def _timing_recovery():
    return TimingRecoveryDesign(noise_std=0.05, nco_phase_dtype=PHASE_T)


def _design_cases():
    """``id -> (factory, dtypes, errors, n_samples, bit_flip)``."""
    cases = {"lms": (LmsEqualizerDesign, {"x": T_INPUT}, {}, 160, None),
             "timing-recovery": (_timing_recovery,
                                 {"in": T_IN, "nco.eta": PHASE_T},
                                 {"nco.eta": 2.0 ** -12}, 160, None)}
    for name, entry in gallery().items():
        for campaign in ("clean", "bitflip-lsb"):
            flip = entry.output if campaign == "bitflip-lsb" else None
            cases["%s/%s" % (name, campaign)] = (
                factory(entry), entry.dtypes, entry.errors, 128, flip)
    return cases


DESIGN_CASES = _design_cases()


def _run(design_factory, cfg):
    """``(outcome, None)`` of one in-process job, or ``(None, exc)``."""
    try:
        out, = runner.run_simulations(design_factory, [cfg], workers=0)
    except Exception as exc:  # interval-side ValueErrors included
        return None, exc
    return out, None


def _assert_output_only_matches(design_factory, cfg):
    full, full_exc = _run(design_factory, cfg)
    lean, lean_exc = _run(design_factory, replace(cfg, monitors="output"))
    if full_exc is not None:
        if isinstance(full_exc, VALUE_ERRORS):
            assert type(lean_exc) is type(full_exc)
            assert str(lean_exc) == str(full_exc)
        # Any other failure is interval arithmetic the output-only job
        # never runs (the documented difference): it may complete.
        return
    assert lean_exc is None, lean_exc
    assert list(lean.records) == [full.output]
    assert lean.output == full.output
    expected = replace(full.records[full.output], prop=Interval())
    # repr compares every field, NaN statistics and -0.0 included.
    assert repr(lean.records[lean.output]) == repr(expected)
    assert lean.guard_trips == full.guard_trips
    assert lean.fault_fired == full.fault_fired
    assert repr(lean.guard_events) == repr(full.guard_events)
    assert lean.error == full.error
    assert lean.overflows == full.overflows == _records_overflows(full)


def _records_overflows(out):
    return sum(r.overflow_count for r in out.records.values())


def _dtype_st():
    return st.builds(
        lambda n, df, vtype, msb, lsb: DType("T", n, min(df, n - 1),
                                             vtype=vtype, msbspec=msb,
                                             lsbspec=lsb),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=0, max_value=22),
        st.sampled_from(["tc", "us"]),
        st.sampled_from(["saturate", "wrap", "error"]),
        st.sampled_from(["round", "floor", "ceil", "trunc"]))


#: formats that drive ``b`` to -inf at cycle 118: the guard trips.
DIVERGING = {"y": DType("T", 9, 0, "us", "wrap", "round"),
             "x": DType("T", 2, 0, "tc", "saturate", "round")}


@settings(max_examples=30, deadline=None)
@given(dtypes=st.dictionaries(st.sampled_from(LMS_SIGNALS), _dtype_st(),
                              max_size=6),
       seed=st.integers(min_value=0, max_value=2**31),
       overflow_action=st.sampled_from(["record", "raise"]),
       guard_action=st.sampled_from(["raise", "record", "sanitize"]))
@example(dtypes=DIVERGING, seed=0, overflow_action="record",
         guard_action="raise")
@example(dtypes=DIVERGING, seed=0, overflow_action="record",
         guard_action="record")
def test_lms_output_only_matches_full(dtypes, seed, overflow_action,
                                      guard_action):
    cfg = SimConfig(label="lms", dtypes={"x": T_INPUT, **dtypes},
                    n_samples=160, seed=seed,
                    overflow_action=overflow_action,
                    guard_action=guard_action)
    _assert_output_only_matches(LmsEqualizerDesign, cfg)


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       overflow_action=st.sampled_from(["record", "raise"]),
       guard_action=st.sampled_from(["raise", "record"]))
def test_design_output_only_matches_full(case, seed, overflow_action,
                                         guard_action):
    design_factory, dtypes, errors, n, flip = DESIGN_CASES[case]
    faults = () if flip is None else (BitFlip(flip, bit=0, at=n // 2),)
    cfg = SimConfig(label=case, dtypes=dtypes, errors=errors, n_samples=n,
                    seed=seed, faults=faults,
                    overflow_action=overflow_action,
                    guard_action=guard_action)
    _assert_output_only_matches(design_factory, cfg)


# -- machine-independent guard ------------------------------------------------


class _KeptLms(LmsEqualizerDesign):
    """LMS design that keeps the context it was built in."""

    kept = []

    def build(self, ctx):
        super().build(ctx)
        _KeptLms.kept.append(ctx)


def _raise(*args, **kwargs):
    raise AssertionError("interval arithmetic ran in an output-only job")


@pytest.fixture
def no_interval_arithmetic(monkeypatch):
    """Make every interval operation an operator can reach raise."""
    for name in ("iv_add", "iv_sub", "iv_mul", "iv_neg"):
        monkeypatch.setattr(expr_module, name, _raise)
    for name in ("__add__", "__sub__", "__rsub__", "__mul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__abs__",
                 "union", "clip", "minimum", "maximum", "scale_pow2"):
        monkeypatch.setattr(Interval, name, _raise)


def test_output_only_job_skips_monitors_and_propagation():
    _KeptLms.kept.clear()
    cfg = SimConfig(dtypes={"x": T_INPUT}, n_samples=200, seed=3,
                    monitors="output")
    out, = runner.run_simulations(_KeptLms, [cfg], workers=0)
    ctx, = _KeptLms.kept
    assert not ctx.propagate
    for sig in ctx.signals():
        if sig.name == out.output:
            assert sig.range_stat.count == 200
            assert sig.err_produced.count == 200
        else:
            assert sig.range_stat.count == 0, sig.name
            assert sig.err_produced.count == 0, sig.name
            assert sig.val_stat.is_empty, sig.name
    assert ctx.get(out.output).prop_interval().is_empty


@pytest.mark.parametrize("case", sorted(c for c in DESIGN_CASES
                                         if "bitflip" not in c))
def test_output_only_job_runs_no_interval_arithmetic(
        case, no_interval_arithmetic):
    design_factory, dtypes, errors, n, _flip = DESIGN_CASES[case]
    cfg = SimConfig(dtypes=dtypes, errors=errors, n_samples=n, seed=1)
    lean, = runner.run_simulations(design_factory,
                                   [replace(cfg, monitors="output")],
                                   workers=0)
    assert lean.completed
    # The patch is live: the full job reaches the patched arithmetic.
    with pytest.raises(AssertionError, match="interval arithmetic"):
        runner.run_simulations(design_factory, [cfg], workers=0)


# -- configuration -------------------------------------------------------------


def test_invalid_monitor_combinations_raise():
    with pytest.raises(ValueError, match="monitors must be one of"):
        SimConfig(monitors="none")
    with pytest.raises(ValueError, match="tape or snapshot_errors"):
        SimConfig(monitors="output", tape=IntervalTape())
    with pytest.raises(ValueError, match="tape or snapshot_errors"):
        SimConfig(monitors="output", snapshot_errors=True)
    with pytest.raises(ValueError, match="tape or snapshot_errors"):
        replace(SimConfig(monitors="output"), snapshot_errors=True)


def test_negative_sample_count_raises():
    # A negative count would run nothing and still report completed=True.
    with pytest.raises(ValueError, match="n_samples must be >= 0"):
        SimConfig(n_samples=-5)
    with pytest.raises(ValueError, match="n_samples must be >= 0"):
        replace(SimConfig(), n_samples=-1)
    assert SimConfig(n_samples=0).n_samples == 0


def test_design_without_output_is_an_error():
    def no_output():
        design = LmsEqualizerDesign()
        design.output = None
        return design

    cfg = SimConfig(n_samples=10, monitors="output", catch_errors=True)
    out, = runner.run_simulations(no_output, [cfg], workers=0)
    assert out.error_kind == "error"
    with pytest.raises(DesignError):
        runner.run_simulations(no_output, [replace(cfg, catch_errors=False)],
                               workers=0)


def test_fingerprint_keeps_full_keys_and_separates_output_only():
    def pinned():
        return LmsEqualizerDesign()
    pinned.fingerprint = "pinned-factory"

    full = SimConfig(label="a", dtypes={"x": T_INPUT},
                     ranges={"b": (-0.2, 0.2)}, n_samples=100, seed=1)
    lean = replace(full, monitors="output")
    # The key from before the monitors field existed: journals survive.
    assert fingerprint(pinned, full) == (
        "28456a6afdef6c654805a19a673ab8bd3ef3a0130957a2ea6cd069b644e2b867")
    assert fingerprint(pinned, full) != fingerprint(pinned, lean)
    cache = SimCache()
    runner.run_simulations(pinned, [lean], workers=0, cache=cache)
    out, = runner.run_simulations(pinned, [full], workers=0, cache=cache)
    assert cache.hits == 0
    assert len(out.records) > 1


# -- the sweeps and the gallery matrix build output-only jobs -------------------


def _capture_batches(monkeypatch, module):
    """Spy on ``module.run_simulations``: ``[(factory, configs, kwargs)]``."""
    batches = []
    real = module.run_simulations

    def spy(design_factory, configs, **kwargs):
        configs = list(configs)
        batches.append((design_factory, configs, kwargs))
        return real(design_factory, configs, **kwargs)

    monkeypatch.setattr(module, "run_simulations", spy)
    return batches


def _configs(batches):
    return [cfg for _, configs, _ in batches for cfg in configs]


SWEEP_TYPES = {"y": DType("T_y", 10, 7, "tc", "saturate", "round"),
               "w": DType("T_w", 10, 9, "tc", "saturate", "round")}


def test_sensitivity_probes_are_output_only(monkeypatch):
    batches = _capture_batches(monkeypatch, sensitivity)
    report = analyze_sensitivity(LmsEqualizerDesign, SWEEP_TYPES,
                                 {"x": T_INPUT}, n_samples=80, seed=2,
                                 workers=0)
    seen = _configs(batches)
    assert len(seen) == 1 + 2 * len(SWEEP_TYPES)
    assert {cfg.monitors for cfg in seen} == {"output"}
    assert len(report.entries) == len(SWEEP_TYPES)


def test_optimizer_probes_are_output_only(monkeypatch):
    batches = _capture_batches(monkeypatch, optimizer)
    result = optimize_wordlengths(LmsEqualizerDesign, SWEEP_TYPES,
                                  {"x": T_INPUT}, target_db=0.0,
                                  n_samples=80, seed=2, max_moves=2,
                                  workers=0)
    seen = _configs(batches)
    assert len(seen) == result.n_simulations
    assert {cfg.monitors for cfg in seen} == {"output"}


@pytest.mark.parametrize("sweep,extra", [
    (analyze_sensitivity, {}),
    (optimize_wordlengths, {"target_db": 0.0, "max_moves": 0})])
def test_sweeps_accept_only_the_interpreted_engine(sweep, extra):
    args = (LmsEqualizerDesign, SWEEP_TYPES, {"x": T_INPUT})
    kw = dict(extra, n_samples=20, workers=0)
    for engine in ("compiled", "auto"):
        with pytest.raises(ValueError, match="engine must be None or"):
            sweep(*args, engine=engine, **kw)
    sweep(*args, engine="interpreted", **kw)


#: the smoke grid at one stimulus seed: 7 designs x 2 channels x 2
#: campaigns.
GALLERY_GRID = dict(channels=SMOKE_AXES["channels"],
                    campaigns=SMOKE_AXES["campaigns"],
                    seeds=SMOKE_AXES["seeds"][:1],
                    n_samples=SMOKE_AXES["n_samples"], analyze=False,
                    workers=0)


@pytest.fixture(scope="module")
def gallery_cells():
    """``label -> (config, output-only outcome, full outcome)``.

    The output-only outcomes are the ones :func:`run_matrix` produced;
    each full outcome re-runs the same config with every monitor on.
    """
    with pytest.MonkeyPatch.context() as mp:
        batches = _capture_batches(mp, matrix)
        result = run_matrix(**GALLERY_GRID)
    lean = iter(result.outcomes)
    cells = {}
    for design_factory, configs, kwargs in batches:
        full = runner.run_simulations(
            design_factory, [replace(c, monitors="all") for c in configs],
            **kwargs)
        for cfg, out in zip(configs, full):
            cells[cfg.label] = (cfg, next(lean), out)
    assert len(cells) == 7 * 2 * 2
    return cells


def test_matrix_cells_are_output_only(gallery_cells):
    for cfg, _lean, _full in gallery_cells.values():
        assert cfg.monitors == "output"


def test_gallery_cell_overflows_match_full(gallery_cells):
    reg = gallery()
    for label, (cfg, lean, full) in gallery_cells.items():
        assert lean.completed and full.completed, label
        assert full.overflows == _records_overflows(full), label
        assert lean.overflows == full.overflows, label
        name, ch_name, camp, seed = label.split("|")
        args = (reg[name], ch_name, camp, int(seed), cfg.n_samples)
        assert (_cell_record(*args, lean)
                == _cell_record(*args, full)), label


def test_ddc_overflows_come_from_wrapping_integrators(gallery_cells):
    """The output never overflows; the CIC integrators wrap."""
    _cfg, lean, full = gallery_cells["ddc|clean|clean|101"]
    assert lean.records[lean.output].overflow_count == 0
    assert _records_overflows(lean) == 0
    assert lean.overflows > 0
    assert lean.overflows == full.overflows
    assert full.records["ddc.ii2"].overflow_count > 0
    assert full.records["ddc.ci1"].overflow_count > 0

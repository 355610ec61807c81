"""Columnar monitors equal one accumulator update per assignment.

A monitored assignment appends its raw values to the signal's columns
and :meth:`Sig._flush` reduces them in bulk, on read and every 512
cycles.  The reference below instead feeds every assignment straight
into the four accumulators with their one-value ``update``, as the
monitors did before they became columnar.  Every job is run both ways
and the records, the mid-run error snapshot and the outcome must be
equal exactly: ``repr`` compares -0.0 and NaN statistics too.
"""

import pytest

from repro.core.dtype import DType
from repro.core.errors import FixedPointOverflowError
from repro.dsp.lms import LmsEqualizerDesign
from repro.dsp.timing_recovery import TimingRecoveryDesign
from repro.gallery.registry import factory, gallery
from repro.parallel import runner
from repro.parallel.runner import SimConfig
from repro.signal.context import DesignContext
from repro.signal.signal import Sig

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")
T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
PHASE_T = DType("T_eta", 12, 12, "us", "wrap", "round")

#: Longer than two 512-cycle flush intervals; the snapshot at half
#: falls between the first and the second flush.
LONG = 1300


def _reference_assign(orig, calls):
    """``Sig.assign`` feeding each monitored assignment straight into
    the accumulators; counts its calls in ``calls``."""
    def assign(self, value):
        orig(self, value)
        calls.append(self)
        if self._monitored:
            cols = self._cols
            in_fx, in_fl, qfx, fl = cols[-4:]
            del cols[-4:]
            self._range_stat.update(in_fx)
            self._err_consumed.update(in_fl - in_fx)
            self._err_produced.update(fl - qfx)
            self._val_stat.update(fl)
        return self
    return assign


def _run(design_factory, cfg):
    out, = runner.run_simulations(design_factory, [cfg], workers=0)
    return out


def _assert_columnar_matches(monkeypatch, design_factory, cfg):
    columnar = _run(design_factory, cfg)
    calls = []
    with monkeypatch.context() as m:
        m.setattr(Sig, "assign", _reference_assign(Sig.assign, calls))
        reference = _run(design_factory, cfg)
    # Every assignment reached the reference, so the comparison below
    # is not the columnar monitors against themselves.
    assert len(calls) >= cfg.n_samples
    assert columnar.error is None, columnar.error
    assert list(columnar.records) == list(reference.records)
    for name, rec in reference.records.items():
        assert repr(columnar.records[name]) == repr(rec), name
    assert repr(columnar.error_snapshot) == repr(reference.error_snapshot)
    assert columnar.overflows == reference.overflows
    assert columnar.guard_trips == reference.guard_trips


def _timing_recovery():
    return TimingRecoveryDesign(noise_std=0.05, nco_phase_dtype=PHASE_T)


@pytest.mark.parametrize("monitors", ["all", "stats", "output"])
def test_lms(monkeypatch, monitors):
    cfg = SimConfig(label="lms", dtypes={"x": T_INPUT}, n_samples=LONG,
                    seed=7, monitors=monitors,
                    snapshot_errors=monitors != "output")
    _assert_columnar_matches(monkeypatch, LmsEqualizerDesign, cfg)


@pytest.mark.parametrize("monitors", ["all", "stats", "output"])
def test_timing_recovery(monkeypatch, monitors):
    cfg = SimConfig(label="tr", dtypes={"in": T_IN, "nco.eta": PHASE_T},
                    errors={"nco.eta": 2.0 ** -12}, n_samples=LONG, seed=3,
                    monitors=monitors,
                    snapshot_errors=monitors != "output")
    _assert_columnar_matches(monkeypatch, _timing_recovery, cfg)


@pytest.mark.parametrize("name", sorted(gallery()))
@pytest.mark.parametrize("monitors", ["all", "output"])
def test_gallery_design(monkeypatch, name, monitors):
    entry = gallery()[name]
    cfg = SimConfig(label=name, dtypes=entry.dtypes, errors=entry.errors,
                    n_samples=600, seed=11, monitors=monitors,
                    snapshot_errors=monitors == "all")
    _assert_columnar_matches(monkeypatch, factory(entry), cfg)


def test_untyped_lms_reaches_frac_cap(monkeypatch):
    # Float signals: every value off-grid, frac_bits saturates at the cap.
    cfg = SimConfig(label="float", n_samples=LONG, seed=2,
                    snapshot_errors=True)
    _assert_columnar_matches(monkeypatch, LmsEqualizerDesign, cfg)


def test_tick_bounds_pending_columns():
    ctx = DesignContext("flush")
    with ctx:
        s = Sig("s", T_INPUT)
        for i in range(1030):
            s.assign(0.001 * i)
            ctx.tick()
            assert len(s._cols) <= 4 * 512
    # Flushed at cycles 512 and 1024; six assignments still pending.
    assert len(s._cols) == 4 * 6
    assert s._range_stat.count == 1024
    assert s.range_stat.count == 1030
    assert not s._cols


def test_overflow_raise_reaches_incoming_monitors():
    # The raising assignment was seen before quantization: it counts in
    # the range and consumed-error monitors, not in the produced ones.
    ctx = DesignContext("ovf", overflow_action="raise")
    with ctx:
        s = Sig("s", DType("T", 6, 4, "tc", "error", "round"))
        with pytest.raises(FixedPointOverflowError):
            for v in (0.5, -0.25, 0.3, 9.0):
                s.assign(v)
                ctx.tick()
    assert (s.range_stat.count, s.range_stat.max) == (4, 9.0)
    assert s.err_consumed.count == 4
    assert s.err_produced.count == s.val_stat.count == 3

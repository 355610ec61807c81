"""Property: ``range()`` annotations never change the value side.

A range annotation only seeds or freezes quasi-analytical interval
propagation; control flow and both value tracks (fixed-point and float
reference) follow the values.  So a job with extra ``ranges`` must
return, to the last bit, the same statistic-based ranges, error and
value statistics, overflow counts, mid-run error snapshot, guard log and
output as the same job without them.  Only ``prop`` and
``forced_range`` may differ.  ``RefinementFlow.baseline_sqnr`` relies on
this: it applies the input ranges, so its job is the first MSB
iteration's, and its SQNR is the inputs-only one all the same.

The refinement flow's range-only MSB re-iterations rely on it too: they
replay an interval tape recorded on an earlier job instead of
simulating.  Recording a tape must change nothing, and the replay must
reproduce a full simulation's outcome bit for bit.
"""

import dataclasses
import functools
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.dtype import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.dsp.timing_recovery import TimingRecoveryDesign
from repro.gallery.registry import factory, gallery
from repro.parallel.runner import SimConfig, run_simulations
from repro.refine.flow import _replayed
from repro.refine.monitors import SignalRecord
from repro.signal.interval_tape import IntervalTape

#: record fields that depend on range annotations.
RANGE_FIELDS = ("prop", "forced_range")
VALUE_FIELDS = tuple(f.name for f in dataclasses.fields(SignalRecord)
                     if f.name not in RANGE_FIELDS)

T_INPUT = DType("T_input", 7, 5, "tc", "saturate", "round")
T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
PHASE_T = DType("T_eta", 12, 12, "us", "wrap", "round")


def _timing_recovery():
    return TimingRecoveryDesign(noise_std=0.05, nco_phase_dtype=PHASE_T)


def _cases():
    """``(id, factory, dtypes, errors, n_samples)`` per covered design."""
    cases = [
        ("lms", LmsEqualizerDesign, {"x": T_INPUT}, {}, 160),
        ("timing-recovery", _timing_recovery,
         {"in": T_IN, "nco.eta": PHASE_T}, {"nco.eta": 2.0 ** -12}, 160),
    ]
    for name, entry in gallery().items():
        cases.append((name, factory(entry), entry.dtypes, entry.errors, 128))
    return cases


CASES = {case[0]: case[1:] for case in _cases()}


def _job(case, ranges):
    design, dtypes, errors, n = CASES[case]
    return SimConfig(label=case, dtypes=dtypes, errors=errors, ranges=ranges,
                     n_samples=n, seed=5, snapshot_errors=True,
                     guard_action="record")


@functools.lru_cache(maxsize=None)
def _targets(case):
    """Signal names of ``case`` plus the bases of its arrays."""
    out, = run_simulations(CASES[case][0], [_job(case, {})], workers=1)
    names = set(out.records)
    names |= {n.split("[", 1)[0] for n in names if "[" in n}
    return sorted(names)


bound_st = st.floats(allow_nan=False, allow_infinity=False)
range_st = st.tuples(bound_st, bound_st).map(lambda p: tuple(sorted(p)))


def _draw_ranges(case, data, min_size=1):
    names = data.draw(st.lists(st.sampled_from(_targets(case)),
                               min_size=min_size, max_size=5, unique=True),
                      label="signals")
    return {n: data.draw(range_st, label=n) for n in names}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_ranges_leave_the_value_side_unchanged(case, data):
    ranges = _draw_ranges(case, data)
    names = list(ranges)
    plain, ranged = run_simulations(
        CASES[case][0], [_job(case, {}), _job(case, ranges)], workers=1)
    assert plain.error is None and ranged.error is None
    assert set(plain.records) == set(ranged.records)
    for name, a in plain.records.items():
        b = ranged.records[name]
        for f in VALUE_FIELDS:
            assert repr(getattr(a, f)) == repr(getattr(b, f)), (name, f)
    for f in ("error_snapshot", "guard_trips", "guard_events", "output"):
        assert repr(getattr(plain, f)) == repr(getattr(ranged, f)), f
    # The annotations did reach the run (the property is not vacuous).
    for name in names:
        hit = [r for n, r in ranged.records.items()
               if n == name or n.startswith(name + "[")]
        assert hit and all(r.forced_range is not None for r in hit)


def _run(case, job):
    """Outcome of ``job``, or the ValueError its interval arithmetic
    raised (a bound overflowed to inf and met its opposite)."""
    try:
        out, = run_simulations(CASES[case][0], [job], workers=1)
    except ValueError as exc:
        return exc
    return out


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_recording_a_tape_changes_nothing(case, data):
    job = _job(case, _draw_ranges(case, data, min_size=0))
    tape = IntervalTape()
    plain, taped = _run(case, job), _run(case, replace(job, tape=tape))
    assert repr(plain) == repr(taped)
    if not isinstance(plain, ValueError):
        assert tape.recorded and tape.reason is None


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_replayed_ranges_match_a_full_simulation(case, data):
    tape = IntervalTape()
    taped = _run(case, replace(_job(case, _draw_ranges(case, data, 0)),
                               tape=tape))
    assume(not isinstance(taped, ValueError))
    job = _job(case, _draw_ranges(case, data))
    full = _run(case, job)
    if isinstance(full, ValueError):
        with pytest.raises(ValueError):
            _replayed(taped, tape, job)
        return
    served = _replayed(taped, tape, job)
    for name, a in full.records.items():
        b = served.records[name]
        for f in RANGE_FIELDS:
            assert repr(getattr(a, f)) == repr(getattr(b, f)), (name, f)
    assert repr(served) == repr(full)

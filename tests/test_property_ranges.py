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
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dtype import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.dsp.timing_recovery import TimingRecoveryDesign
from repro.gallery.registry import factory, gallery
from repro.parallel.runner import SimConfig, run_simulations
from repro.refine.monitors import SignalRecord

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


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_ranges_leave_the_value_side_unchanged(case, data):
    names = data.draw(st.lists(st.sampled_from(_targets(case)), min_size=1,
                               max_size=5, unique=True), label="signals")
    ranges = {n: data.draw(range_st, label=n) for n in names}
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

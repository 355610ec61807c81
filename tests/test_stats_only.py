"""Statistics-only jobs: every record of a full job, without intervals.

A ``SimConfig(monitors="stats")`` job runs the full job's value side and
all four monitors on every signal, but propagates no ranges: each record
equals the full job's record with ``prop`` emptied (``forced_range``
kept), and the run-level facts (error snapshot, guard log, overflow
total) are the full job's.  The refinement flow runs its verification
job and its ``error()``-annotated LSB jobs this way.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.core.interval import Interval
from repro.dsp.lms import LmsEqualizerDesign
from repro.gallery.registry import get_design
from repro.parallel import runner
from repro.parallel.runner import SimCache, SimConfig, fingerprint
from repro.refine import flow as flow_module
from repro.signal.interval_tape import IntervalTape
from tests.test_flow_runner import T_INPUT, e8_flow


def _run(design_factory, cfg):
    out, = runner.run_simulations(design_factory, [cfg], workers=0)
    return out


def _assert_stats_matches(full, stats):
    assert list(stats.records) == list(full.records)
    for name, rec in full.records.items():
        # repr compares every field, NaN statistics and -0.0 included.
        assert repr(stats.records[name]) == \
            repr(replace(rec, prop=Interval())), name
    assert repr(stats.error_snapshot) == repr(full.error_snapshot)
    assert repr(stats.guard_events) == repr(full.guard_events)
    assert stats.guard_trips == full.guard_trips
    assert stats.overflows == full.overflows
    assert stats.fault_fired == full.fault_fired
    # The equality is not vacuous: the full job propagated ranges.
    assert any(not rec.prop.is_empty for rec in full.records.values())


@pytest.fixture(scope="module")
def e8_verify():
    """E8's verification job, as the flow ran it."""
    jobs = {}
    real = flow_module.run_simulations

    def spy(design_factory, configs, **kwargs):
        for cfg in configs:
            jobs[cfg.label] = cfg
        return real(design_factory, configs, **kwargs)

    flow = e8_flow()
    with mock.patch.object(flow_module, "run_simulations", spy):
        flow.run()
    return jobs["verify"], flow.outcomes["verify"]


def test_e8_verification_is_a_stats_job(e8_verify):
    job, served = e8_verify
    assert job.monitors == "stats"
    assert job.snapshot_errors
    full = _run(LmsEqualizerDesign, replace(job, monitors="all"))
    _assert_stats_matches(full, served)


def test_gallery_design_stats_job_matches_full():
    # The DDC carries ranges and errors, and at the matrix's stimulus
    # seed 101 its wrapping integrators overflow.
    entry = get_design("ddc")
    cfg = SimConfig(dtypes=entry.dtypes, ranges=entry.ranges,
                    errors=entry.errors, n_samples=1024, seed=3,
                    snapshot_errors=True, guard_action="record")

    def design():
        return entry.cls(seed=101)

    full = _run(design, cfg)
    stats = _run(design, replace(cfg, monitors="stats"))
    _assert_stats_matches(full, stats)
    assert stats.overflows > 0
    forced = {name for name, rec in stats.records.items()
              if rec.forced_range is not None}
    assert forced == set(entry.ranges)


def test_fingerprint_separates_stats_from_all_and_output():
    def pinned():
        return LmsEqualizerDesign()
    pinned.fingerprint = "pinned-factory"

    full = SimConfig(label="a", dtypes={"x": T_INPUT}, n_samples=100, seed=1)
    keys = {fingerprint(pinned, replace(full, monitors=m))
            for m in ("all", "stats", "output")}
    assert len(keys) == 3
    cache = SimCache()
    runner.run_simulations(pinned, [replace(full, monitors="stats")],
                           workers=0, cache=cache)
    out, = runner.run_simulations(pinned, [full], workers=0, cache=cache)
    assert cache.hits == 0
    assert not out.records["v[3]"].prop.is_empty


def test_stats_job_rejects_a_tape():
    with pytest.raises(ValueError, match="cannot take a tape"):
        SimConfig(monitors="stats", tape=IntervalTape())
    # The error snapshot reads every signal's statistics, which it keeps.
    assert SimConfig(monitors="stats", snapshot_errors=True).snapshot_errors


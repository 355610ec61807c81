"""Determinism and behavior of the parallel re-simulation runner.

The fan-out must be invisible in the numbers: a sensitivity sweep or a
fault campaign run through worker processes has to reproduce the serial
results to the last ulp, fault fire counts and guard trips included.
The host machine may have a single CPU, so the parallel runs force
``workers=2`` — the pool really forks either way.
"""

import math
import os

import pytest

from repro.core.dtype import DType
from repro.core.errors import NonFiniteError
from repro.dsp.lms import LmsEqualizerDesign
from repro.obs import counters as obs_counters
from repro.parallel import (SimCache, SimConfig, SimOutcome,
                            default_workers, fingerprint, run_simulations)
from repro.refine.flow import FlowConfig, RefinementFlow
from repro.refine.sensitivity import analyze_sensitivity
from repro.robust.faults import FaultCampaign, standard_faults

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
T_W = DType("T_w", 12, 10, "tc", "saturate", "round")

TYPES = {"y": T_W, "w": T_W, "c": T_W, "d": T_W}


def lms_factory():
    return LmsEqualizerDesign(seed=2024)


def lms_seeded(seed):
    return LmsEqualizerDesign(seed=seed)


def _entry_tuple(e):
    return (e.name, e.base_f, e.sqnr_base_db, e.sqnr_plus_db,
            e.sqnr_minus_db)


def _outcome_tuple(o):
    return (o.fault, o.kind, o.sqnr_db, o.degradation_db, o.overflows,
            o.guard_trips, o.error, o.triggered)


class TestRunner:
    def test_results_in_config_order(self):
        configs = [SimConfig(label="o%d" % i, dtypes={"x": T_IN, **TYPES},
                             n_samples=50, seed=i, factory_seed=100 + i)
                   for i in range(4)]
        outcomes = run_simulations(lms_factory, configs, workers=1,
                                   seeded_factory=lms_seeded)
        assert [o.label for o in outcomes] == ["o0", "o1", "o2", "o3"]
        # Different stimulus seeds must yield different runs.
        assert outcomes[0].sqnr_db() != outcomes[1].sqnr_db()

    def test_parallel_equals_serial(self):
        configs = [SimConfig(dtypes={"x": T_IN, **TYPES}, n_samples=120,
                             seed=s) for s in (1, 2, 3)]
        serial = run_simulations(lms_factory, configs, workers=1)
        parallel = run_simulations(lms_factory, configs, workers=2)
        for a, b in zip(serial, parallel):
            assert a.sqnr_db() == b.sqnr_db()
            assert a.guard_trips == b.guard_trips
            assert set(a.records) == set(b.records)
            for name in a.records:
                assert a.records[name].err_produced == \
                    b.records[name].err_produced

    def test_serial_fallback_when_parallel_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        configs = [SimConfig(dtypes={"x": T_IN}, n_samples=50, seed=1)]
        outcomes = run_simulations(lms_factory, configs, workers=4)
        assert outcomes[0].completed

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_cache_hits_and_relabels(self):
        cache = SimCache()
        cfg = SimConfig(label="first", dtypes={"x": T_IN}, n_samples=50,
                        seed=9)
        first = run_simulations(lms_factory, [cfg], workers=1,
                                cache=cache)[0]
        assert cache.misses == 1 and cache.hits == 0 and len(cache) == 1
        relabeled = SimConfig(label="second", dtypes={"x": T_IN},
                              n_samples=50, seed=9)
        second = run_simulations(lms_factory, [relabeled], workers=1,
                                 cache=cache)[0]
        assert cache.hits == 1
        assert second.label == "second"
        assert second.sqnr_db() == first.sqnr_db()

    def test_fingerprint_distinguishes_what_matters(self):
        base = SimConfig(dtypes={"x": T_IN}, n_samples=50, seed=9)
        assert fingerprint(lms_factory, base) == \
            fingerprint(lms_factory, base)
        other_seed = SimConfig(dtypes={"x": T_IN}, n_samples=50, seed=10)
        assert fingerprint(lms_factory, base) != \
            fingerprint(lms_factory, other_seed)
        other_type = SimConfig(dtypes={"x": T_W}, n_samples=50, seed=9)
        assert fingerprint(lms_factory, base) != \
            fingerprint(lms_factory, other_type)

        def other_factory():
            return LmsEqualizerDesign(seed=4711)

        assert fingerprint(lms_factory, base) != \
            fingerprint(other_factory, base)

    def test_overflows_sum_every_record(self):
        narrow = DType("T_n", 4, 3, "tc", "saturate", "round")
        configs = [SimConfig(label="o%d" % s, n_samples=120, seed=s,
                             dtypes={"x": T_IN, "w": narrow, "y": narrow})
                   for s in (1, 2)]
        cache = SimCache()
        # serial, pool (filling the cache), cache hits
        for workers, use in ((1, None), (2, cache), (1, cache)):
            outcomes = run_simulations(lms_factory, configs,
                                       workers=workers, cache=use)
            for out in outcomes:
                assert out.overflows > 0
                assert out.overflows == sum(
                    r.overflow_count for r in out.records.values())
        assert cache.hits == len(configs)

    def test_error_outcome_has_no_overflows(self):
        narrow = DType("T_n", 4, 3, "tc", "error", "round")
        cfg = SimConfig(dtypes={"x": T_IN, "w": narrow}, n_samples=120,
                        overflow_action="raise", catch_errors=True)
        out, = run_simulations(lms_factory, [cfg], workers=1)
        assert out.error_kind == "error"
        assert out.overflows == 0

    @pytest.mark.parametrize("dtypes,n_samples,seed,message", [
        ({"y": DType("T", 9, 0, "us", "wrap", "round"),
          "x": DType("T", 2, 0, "tc", "saturate", "round")}, 120, 0,
         "signal 'b' at cycle 118"),
        ({"y": DType("T", 14, 0, "us", "wrap", "round"),
          "v[0]": DType("T", 2, 0, "tc", "saturate", "round"),
          "v[1]": DType("T", 2, 0, "tc", "saturate", "round")}, 90, 1,
         "signal 'w' at cycle 67")])
    def test_diverging_formats_give_an_error_outcome(self, dtypes,
                                                     n_samples, seed,
                                                     message):
        # Coarse formats drive the equalizer's update to -inf; the
        # non-finite guard aborts the job, which catch_errors keeps.
        cfg = SimConfig(label="div", dtypes=dtypes, n_samples=n_samples,
                        seed=seed, catch_errors=True)
        out, = run_simulations(LmsEqualizerDesign, [cfg], workers=0)
        assert not out.completed and out.error_kind == "error"
        assert "non-finite value reached " + message in out.error
        assert out.records == {} and out.overflows == 0
        with pytest.raises(NonFiniteError, match=message):
            run_simulations(LmsEqualizerDesign,
                            [SimConfig(label="div", dtypes=dtypes,
                                       n_samples=n_samples, seed=seed)],
                            workers=0)


class TestSensitivityDeterminism:
    @pytest.fixture(scope="class")
    def refined_types(self):
        flow = RefinementFlow(lms_factory, input_types={"x": T_IN},
                              input_ranges={"x": (-2.0, 2.0)},
                              config=FlowConfig(n_samples=250, seed=7))
        return flow.run().types

    def test_parallel_sweep_identical_to_serial(self, refined_types):
        kwargs = dict(n_samples=150, seed=7)
        serial = analyze_sensitivity(lms_factory, refined_types,
                                     {"x": T_IN}, workers=1, **kwargs)
        parallel = analyze_sensitivity(lms_factory, refined_types,
                                       {"x": T_IN}, workers=2, **kwargs)
        assert serial.base_sqnr_db == parallel.base_sqnr_db
        assert len(serial.entries) == len(parallel.entries)
        for a, b in zip(serial.entries, parallel.entries):
            assert _entry_tuple(a) == _entry_tuple(b)

    def test_cached_sweep_identical(self, refined_types):
        cache = SimCache()
        kwargs = dict(n_samples=150, seed=7, cache=cache, workers=1)
        first = analyze_sensitivity(lms_factory, refined_types,
                                    {"x": T_IN}, **kwargs)
        misses = cache.misses
        again = analyze_sensitivity(lms_factory, refined_types,
                                    {"x": T_IN}, **kwargs)
        assert cache.hits == misses  # second sweep is all cache hits
        for a, b in zip(first.entries, again.entries):
            assert _entry_tuple(a) == _entry_tuple(b)


class TestCampaignDeterminism:
    def test_parallel_campaign_identical_to_serial(self):
        types = {**TYPES, "x": T_IN}
        # Bit flips install on scalar signals only (array bases like "c"
        # are not addressable by ctx.get).
        faults = standard_faults({"y": T_W, "w": T_W}, inputs=("x",),
                                 bit_flip_at=30)
        campaign = FaultCampaign(lms_factory, types, n_samples=120, seed=7,
                                 seeded_factory=lms_seeded)
        serial = campaign.run(faults, workers=1)
        parallel = campaign.run(faults, workers=2)
        assert serial.baseline_sqnr_db == parallel.baseline_sqnr_db
        assert len(serial.outcomes) == len(parallel.outcomes)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert _outcome_tuple(a) == _outcome_tuple(b)
        assert any(o.kind == "seed-perturb" for o in parallel.outcomes)
        assert all(o.completed for o in parallel.outcomes)


class TestSimCacheStats:
    def test_stats_tracks_hits_misses_and_rate(self):
        obs_counters.reset()
        cache = SimCache(max_entries=8)
        out = SimOutcome(label="a", records={"v": 1.0}, output="v")
        cache.put("k", out)
        assert cache.get("k") is not None
        assert cache.get("nope") is None
        s = cache.stats()
        assert s == {"entries": 1, "max_entries": 8, "hits": 1,
                     "misses": 1, "n_corrupt": 0, "hit_rate": 0.5}
        assert obs_counters.get("cache.hits") == 1
        assert obs_counters.get("cache.misses") == 1

    def test_never_consulted_has_zero_rate(self):
        assert SimCache().stats()["hit_rate"] == 0.0

    @pytest.mark.parametrize("capacity", [0, -3])
    def test_capacity_below_one_is_rejected(self, capacity):
        # Such a cache has no room for the entry its first put stores.
        with pytest.raises(ValueError, match="max_entries must be >= 1"):
            SimCache(max_entries=capacity)

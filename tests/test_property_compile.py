"""Property-based equivalence of the compiled and interpreted engines.

The compiled engine (:mod:`repro.compile`) is pure acceleration: for
every design, every dtype assignment and every batch composition, its
outcomes must equal the interpreted engine's **to the last bit** — all
monitor statistics (range, error Welford moments, value stats), the
propagated intervals, overflow counts and SQNR — or it must fall back
and produce them through the interpreted path anyway.  Hypothesis
drives random per-signal dtype maps (all rounding and overflow modes,
signed and unsigned, n up to 28) over the gallery designs, plus the
batch-axis edge cases: a batch of one, ragged parameter grids that
split into several compile groups, and designs that trip the NaN guard
or value-dependent control flow mid-run.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compile import CompileFallback  # noqa: F401  (import check)
from repro.core.dtype import DType
from repro.dsp.biquad import BiquadDesign
from repro.dsp.cordic import CordicDesign
from repro.dsp.lms import LmsEqualizerDesign
from repro.dsp.timing_recovery import TimingRecoveryDesign
from repro.obs import counters
from repro.parallel.runner import SimConfig, run_simulations
from repro.refine.flow import Design
from repro.signal import Sig

# -- comparator ---------------------------------------------------------------


def assert_records_equal(a, b):
    """Field-wise SignalRecord equality, NaN == NaN.

    (The frozen dataclass ``__eq__`` is false on NaN statistics — e.g.
    ``stat_min`` of a never-assigned monitor — so compare per field.)
    """
    assert set(a) == set(b)
    for name in a:
        ra, rb = a[name], b[name]
        for fname in ra.__dataclass_fields__:
            va = getattr(ra, fname)
            vb = getattr(rb, fname)
            if (isinstance(va, float) and isinstance(vb, float)
                    and math.isnan(va) and math.isnan(vb)):
                continue
            assert va == vb, (name, fname, va, vb)


def assert_engines_agree(design_factory, configs, **kw):
    interp = run_simulations(design_factory, configs, workers=0,
                             engine="interpreted", **kw)
    compiled = run_simulations(design_factory, configs, workers=0,
                               engine="compiled", **kw)
    for a, b in zip(interp, compiled):
        assert a.label == b.label
        assert a.output == b.output
        assert a.error == b.error
        assert a.guard_trips == b.guard_trips
        assert a.overflows == b.overflows
        assert_records_equal(a.records, b.records)
    return interp, compiled


# -- dtype-map strategies -----------------------------------------------------

LMS_SIGNALS = ("x", "y", "w", "b", "s", "v[0]", "v[1]", "v[2]", "v[3]",
               "c[0]", "c[1]", "c[2]", "d[0]", "d[1]", "d[2]")
BIQUAD_SIGNALS = ("x", "bq.w", "bq.w1", "bq.w2", "bq.y")
CORDIC_SIGNALS = ("xi", "yi", "zi", "cr.x[4]", "cr.y[4]", "cr.z[4]",
                  "cr.xo", "cr.yo")


def dtype_st():
    return st.builds(
        lambda n, df, vtype, msb, lsb: DType("T", n, min(df, n - 1)
                                             if n > 1 else 0,
                                             vtype=vtype, msbspec=msb,
                                             lsbspec=lsb),
        st.integers(min_value=2, max_value=28),
        st.integers(min_value=0, max_value=27),
        st.sampled_from(["tc", "us"]),
        st.sampled_from(["saturate", "wrap", "error"]),
        st.sampled_from(["round", "floor", "ceil", "trunc"]))


def dtype_map_st(signals):
    return st.dictionaries(st.sampled_from(list(signals)), dtype_st(),
                           max_size=4)


# -- per-design equivalence ---------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(dtypes=dtype_map_st(LMS_SIGNALS),
       seed=st.integers(min_value=0, max_value=2**31))
@example(dtypes={"y": DType("T", 9, 0, "us", "wrap", "round"),
                 "x": DType("T", 2, 0, "tc", "saturate", "round")},
         seed=0)
def test_lms_equivalence(dtypes, seed):
    # Random formats can drive the equalizer to -inf (the example above
    # reaches ``b`` at cycle 118), so the error is caught: both engines
    # must then report the same failure.
    cfg = SimConfig(label="lms", dtypes=dtypes, n_samples=120, seed=seed,
                    catch_errors=True)
    assert_engines_agree(LmsEqualizerDesign, [cfg])


@settings(max_examples=15, deadline=None)
@given(dtypes=dtype_map_st(BIQUAD_SIGNALS),
       seed=st.integers(min_value=0, max_value=2**31))
def test_biquad_equivalence(dtypes, seed):
    cfg = SimConfig(label="bq", dtypes=dtypes, n_samples=150, seed=seed)
    assert_engines_agree(BiquadDesign, [cfg])


@settings(max_examples=10, deadline=None)
@given(dtypes=dtype_map_st(CORDIC_SIGNALS),
       seed=st.integers(min_value=0, max_value=2**31))
def test_cordic_equivalence(dtypes, seed):
    cfg = SimConfig(label="cordic", dtypes=dtypes, n_samples=80, seed=seed)
    assert_engines_agree(CordicDesign, [cfg])


def test_timing_recovery_equivalence_via_fallback():
    # The NCO strobe is value-dependent control flow (``bool(expr)``),
    # which the value-branch guard turns into a deterministic fallback:
    # the compiled call must still return interpreted-identical results.
    counters.reset()
    cfg = SimConfig(label="trec", n_samples=400)
    assert_engines_agree(TimingRecoveryDesign, [cfg])
    assert counters.get("compile.fallbacks") == 1
    assert counters.get("compile.batches") == 0


# -- batch-axis edge cases ----------------------------------------------------


def test_batch_of_one():
    counters.reset()
    cfg = SimConfig(label="solo", n_samples=200,
                    dtypes={"x": DType("T_x", 7, 5)})
    assert_engines_agree(LmsEqualizerDesign, [cfg])
    assert counters.get("compile.batches") == 1
    assert counters.get("compile.lanes") == 1


@settings(max_examples=8, deadline=None)
@given(maps=st.lists(dtype_map_st(LMS_SIGNALS), min_size=1, max_size=6),
       seeds=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3),
       lengths=st.lists(st.sampled_from([60, 90]), min_size=1, max_size=2))
@example(maps=[{"y": DType("T", 14, 0, "us", "wrap", "round"),
                "v[0]": DType("T", 2, 0, "tc", "saturate", "round"),
                "v[1]": DType("T", 2, 0, "tc", "saturate", "round")}],
         seeds=[1], lengths=[90])
def test_ragged_parameter_grid(maps, seeds, lengths):
    # A ragged grid — differing seeds and sample counts — must split
    # into one compile group per (n_samples, seed, ...) key and still
    # come back bit-identical, in config order.  Random formats can make
    # the equalizer diverge (the example above overflows to inf at
    # cycle 67), so errors are caught per config: a failed lane must
    # fail identically and still leave the group count intact.
    configs = [SimConfig(label="g%d-%d-%d" % (i, s, n), dtypes=m,
                         n_samples=n, seed=s, catch_errors=True)
               for i, m in enumerate(maps)
               for s in seeds for n in lengths]
    counters.reset()
    assert_engines_agree(LmsEqualizerDesign, configs)
    n_groups = len({(c.n_samples, c.seed) for c in configs})
    assert (counters.get("compile.batches")
            + counters.get("compile.fallbacks")) == n_groups


class NanProneDesign(Design):
    """Divides by a signal that decays toward zero: inf appears mid-run.

    The interpreted engine's non-finite guard fires per assignment; the
    compiled engine only detects non-finite values at end of sample and
    must fall back rather than approximate the guard semantics.
    """

    def build(self, ctx):
        self.d = Sig("d", init=1.0)
        self.q = Sig("q")
        self.output = "q"

    def run(self, ctx, n):
        for _ in range(n):
            self.d.assign(self.d * 0.5)
            self.q.assign(1.0 / self.d)
            ctx.tick()


def test_nan_guard_interaction_falls_back():
    # 1/2**-k overflows to inf around k=1024 (stopping short of the
    # k~1075 point where d underflows to 0.0 and both engines raise);
    # with guard_action="record" the interpreted run completes
    # (sanitized).  The compiled engine must fall back (division risk /
    # non-finite values) and match exactly.
    counters.reset()
    cfg = SimConfig(label="nan", n_samples=1060, guard_action="record")
    interp, compiled = assert_engines_agree(NanProneDesign, [cfg])
    assert interp[0].guard_trips > 0
    assert counters.get("compile.fallbacks") == 1


class BranchyDesign(Design):
    """Value-dependent branch on a signal: must fall back, not diverge."""

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        self.output = "y"

    def run(self, ctx, n):
        rng = ctx.rng
        for _ in range(n):
            self.x.assign(float(rng.uniform(-1, 1)))
            if self.x > 0.0:
                self.y.assign(self.x * 2.0)
            else:
                self.y.assign(-self.x)
            ctx.tick()


def test_value_branch_falls_back():
    counters.reset()
    cfg = SimConfig(label="branchy", n_samples=300)
    assert_engines_agree(BranchyDesign, [cfg])
    assert counters.get("compile.fallbacks") == 1


def test_mixed_eligibility_composes():
    # Deadline-carrying configs are ineligible and take the interpreted
    # path; the rest compile.  Results arrive in config order either way.
    counters.reset()
    configs = [SimConfig(label="c0", n_samples=100),
               SimConfig(label="c1", n_samples=100,
                         deadline_seconds=30.0, catch_errors=True),
               SimConfig(label="c2", n_samples=100,
                         dtypes={"x": DType("T_x", 9, 7)})]
    assert_engines_agree(LmsEqualizerDesign, configs)
    assert counters.get("compile.ineligible") == 1
    assert counters.get("compile.lanes") == 2


@pytest.mark.parametrize("design", [LmsEqualizerDesign, BiquadDesign,
                                    CordicDesign])
def test_gallery_compiles_without_fallback(design):
    counters.reset()
    cfg = SimConfig(label="gallery", n_samples=64)
    assert_engines_agree(design, [cfg])
    assert counters.get("compile.fallbacks") == 0
    assert counters.get("compile.batches") == 1

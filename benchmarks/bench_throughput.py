"""A3 — Performance of the quantization kernel and the monitored simulator.

Not a paper artifact; establishes the cost envelope of this environment:

* scalar quantization calls (the per-assignment hot path),
* vectorized numpy quantization (block reference models),
* monitored LMS simulation samples per second,
* sensitivity-sweep wall clock, serial vs parallel fan-out.

Two entry points:

* **pytest-benchmark tests** (``pytest benchmarks/bench_throughput.py``)
  with the usual multi-round statistics;
* **a standalone trajectory harness**::

      PYTHONPATH=src python benchmarks/bench_throughput.py [--quick]
          [--out BENCH_throughput.json] [--check BENCH_throughput.json]

  which emits machine-readable ``BENCH_throughput.json`` so each PR's
  perf delta stays visible, and with ``--check`` fails (exit 1) on a
  >30% regression against a committed baseline file.  Regression checks
  are normalized by the reference-path speed ratio between the two
  machines, so a slower CI box does not raise false alarms.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.isdir(_src) and _src not in sys.path:
        sys.path.insert(0, _src)

import numpy as np

from repro.core.dtype import DType
from repro.core.quantize import quantize, quantize_array, quantize_info
from repro.dsp.lms import LmsEqualizerDesign
from repro.parallel import default_workers
from repro.refine.sensitivity import analyze_sensitivity
from repro.signal import DesignContext

T = DType("T", 12, 8, "tc", "saturate", "round")

#: Pre-PR numbers measured on the original (namedtuple-dispatch) code
#: path, same machine class as the committed JSON — the origin of the
#: perf trajectory.  Do not update these when optimizing; they are the
#: "before" column.
PRE_PR_BASELINE = {
    "scalar_quantize_ns": 866.4,
    "vector_quantize_msps": 82.5,
    "lms_samples_per_s": 7477.3,
}

#: Allowed slow-down vs the committed baseline before --check fails.
REGRESSION_TOLERANCE = 0.30

#: Maximum throughput loss (percent) the *disabled* observability layer
#: may cost the monitored LMS path.  The design goal is zero: disabling
#: repro.obs restores the exact original ``Sig.assign`` code object, so
#: anything beyond measurement noise is a regression in the enable/
#: disable switch itself.
OBS_DISABLED_OVERHEAD_PCT = 2.0


# -- pytest-benchmark tests --------------------------------------------------

def test_scalar_quantize(benchmark):
    values = np.random.default_rng(0).uniform(-8, 8, size=1000).tolist()

    def work():
        total = 0.0
        for v in values:
            total += quantize(v, 12, 8)
        return total

    benchmark(work)


def test_scalar_kernel(benchmark):
    """The bound compiled kernel — the actual per-assignment hot path."""
    values = np.random.default_rng(0).uniform(-8, 8, size=1000).tolist()
    kernel = T.kernel

    def work():
        total = 0.0
        for v in values:
            total += kernel(v)[0]
        return total

    benchmark(work)


def test_vector_quantize(benchmark):
    values = np.random.default_rng(0).uniform(-8, 8, size=100_000)
    result = benchmark(quantize_array, values, 12, 8)
    assert result.shape == values.shape


def test_dtype_quantize_array(benchmark):
    values = np.random.default_rng(0).uniform(-8, 8, size=100_000)
    benchmark(T.quantize_array, values)


def test_monitored_lms_simulation(benchmark):
    def run():
        ctx = DesignContext("perf", seed=0)
        with ctx:
            d = LmsEqualizerDesign()
            d.build(ctx)
            ctx.get("x").set_dtype(DType("T_input", 7, 5))
            d.run(ctx, 500)
        return ctx

    ctx = benchmark(run)
    assert ctx.get("v[3]").range_stat.count == 500


# -- trajectory harness ------------------------------------------------------

def _best_of(fn, repeats):
    """Minimum wall-clock of several calls (noise-robust point estimate)."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


def measure_scalar_kernel_ns(quick):
    values = np.random.default_rng(0).uniform(-8, 8, size=1000).tolist()
    kernel = T.kernel

    def work():
        for v in values:
            kernel(v)
    return _best_of(work, 3 if quick else 7) / len(values) * 1e9


def measure_scalar_dispatch_ns(quick):
    values = np.random.default_rng(0).uniform(-8, 8, size=1000).tolist()

    def work():
        for v in values:
            quantize(v, 12, 8)
    return _best_of(work, 3 if quick else 7) / len(values) * 1e9


def measure_reference_scalar_ns(quick):
    values = np.random.default_rng(0).uniform(-8, 8, size=1000).tolist()

    def work():
        for v in values:
            quantize_info(v, 12, 8)
    return _best_of(work, 3 if quick else 7) / len(values) * 1e9


def measure_vector_msps(quick):
    size = 100_000
    values = np.random.default_rng(0).uniform(-8, 8, size=size)
    out = np.empty(size)

    def work():
        quantize_array(values, 12, 8, out=out)
    return size / _best_of(work, 5 if quick else 11) / 1e6


def measure_lms_samples_per_s(quick):
    n = 800 if quick else 3000

    def run():
        ctx = DesignContext("perf", seed=0)
        with ctx:
            d = LmsEqualizerDesign()
            d.build(ctx)
            ctx.get("x").set_dtype(DType("T_input", 7, 5))
            d.run(ctx, n)
    return n / _best_of(run, 2 if quick else 4)


def measure_lms_obs(quick):
    """Observability cost on the monitored LMS path: A/B/A roundtrips.

    Measures the LMS throughput observability-off, on (tracing +
    per-signal metrics), and off again, and returns ``(enabled_rate,
    disabled_overhead_pct)``.  Two layers keep the overhead number
    honest on noisy hardware:

    * **structural check** — ``repro.obs`` swaps ``Sig.assign`` at the
      class level instead of branching in the hot path, so after the
      roundtrip the *exact original function object* must be installed
      and ``trace.span()`` must hand out the shared no-op span.  Any
      violation (a wrapper left behind) reports as 100% overhead — a
      hard failure regardless of timings.
    * **wall clock** — per trial, disabled-before and disabled-after
      runs are interleaved (drift hits both sides equally) and compared
      on best-of times; the reported overhead is the minimum across
      trials.  A real always-on cost shows up in every trial and
      survives the minimum; one-sided scheduler noise does not.

    Being an in-process A/B, the bound is machine-independent — no
    baseline scaling needed.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.trace import _NULL
    from repro.signal.signal import Sig

    n = 800 if quick else 3000
    trials = 2 if quick else 3
    rounds = 3 if quick else 4
    orig_assign = Sig.assign

    def run():
        ctx = DesignContext("perf", seed=0)
        with ctx:
            d = LmsEqualizerDesign()
            d.build(ctx)
            ctx.get("x").set_dtype(DType("T_input", 7, 5))
            d.run(ctx, n)

    def timed():
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    run()  # warm-up
    best_enabled = None
    overhead_pct = None
    for _ in range(trials):
        t_off_before, t_on, t_off_after = [], [], []
        for _ in range(rounds):
            t_off_before.append(timed())
            obs_trace.enable()
            obs_metrics.enable()
            try:
                t_on.append(timed())
            finally:
                obs_metrics.disable()
                obs_trace.disable()
            t_off_after.append(timed())
        if best_enabled is None or min(t_on) < best_enabled:
            best_enabled = min(t_on)
        trial_pct = (min(t_off_after) - min(t_off_before)) \
            / min(t_off_before) * 100.0
        if overhead_pct is None or trial_pct < overhead_pct:
            overhead_pct = trial_pct
    overhead_pct = max(0.0, overhead_pct)

    if Sig.assign is not orig_assign or obs_trace.span("x") is not _NULL:
        # The switch failed to restore the hot path — that IS the
        # regression this metric exists to catch.
        overhead_pct = 100.0
    return n / best_enabled, overhead_pct


def measure_sensitivity_wallclock(quick):
    """Sensitivity sweep wall clock: serial loop vs parallel fan-out.

    On a single-CPU machine the fan-out auto-falls back to the serial
    path, so both numbers come out close — the field still documents
    the overhead/benefit on whatever machine produced the JSON.
    """
    n_samples = 150 if quick else 400
    t_in = DType("T_in", 9, 7, "tc", "saturate", "round")
    t_w = DType("T_w", 10, 9, "tc", "saturate", "round")
    types = {"y": t_w, "w": t_w, "c": t_w, "d": t_w}

    def factory():
        return LmsEqualizerDesign(seed=2024)

    def sweep(workers):
        analyze_sensitivity(factory, types, {"x": t_in},
                            n_samples=n_samples, seed=7, workers=workers)

    serial = _best_of(lambda: sweep(1), 1 if quick else 2)
    parallel = _best_of(lambda: sweep(None), 1 if quick else 2)
    return serial, parallel


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except OSError:
        return None


def run_harness(quick=False):
    metrics = {
        "scalar_quantize_ns": measure_scalar_kernel_ns(quick),
        "scalar_dispatch_ns": measure_scalar_dispatch_ns(quick),
        "reference_scalar_ns": measure_reference_scalar_ns(quick),
        "vector_quantize_msps": measure_vector_msps(quick),
        "lms_samples_per_s": measure_lms_samples_per_s(quick),
    }
    obs_enabled, obs_overhead = measure_lms_obs(quick)
    metrics["lms_obs_enabled_samples_per_s"] = obs_enabled
    metrics["lms_obs_disabled_overhead_pct"] = obs_overhead
    serial, par = measure_sensitivity_wallclock(quick)
    metrics["sensitivity_serial_s"] = serial
    metrics["sensitivity_parallel_s"] = par
    metrics["parallel_workers"] = default_workers()

    base = PRE_PR_BASELINE
    speedups = {
        "scalar_quantize":
            base["scalar_quantize_ns"] / metrics["scalar_quantize_ns"],
        "vector_quantize":
            metrics["vector_quantize_msps"] / base["vector_quantize_msps"],
        "lms_simulation":
            metrics["lms_samples_per_s"] / base["lms_samples_per_s"],
        "sensitivity_parallel":
            metrics["sensitivity_serial_s"]
            / metrics["sensitivity_parallel_s"],
    }
    return {
        "schema": 1,
        "mode": "quick" if quick else "full",
        "git_rev": _git_rev(),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": default_workers(),
        },
        "pre_pr_baseline": dict(base),
        "metrics": {k: round(v, 3) if isinstance(v, float) else v
                    for k, v in metrics.items()},
        "speedup_vs_pre_pr": {k: round(v, 2) for k, v in speedups.items()},
    }


def check_regression(current, committed, tolerance=REGRESSION_TOLERANCE):
    """Compare against a committed baseline JSON; return failure strings.

    The committed file may come from a different machine, so expected
    values are scaled by the reference-path speed ratio (the reference
    scalar path is untouched by optimizations — it measures the machine,
    not the code).
    """
    cur = current["metrics"]
    old = committed["metrics"]
    failures = []
    machine = cur["reference_scalar_ns"] / old["reference_scalar_ns"]

    expected_ns = old["scalar_quantize_ns"] * machine
    if cur["scalar_quantize_ns"] > expected_ns * (1.0 + tolerance):
        failures.append(
            "scalar_quantize_ns %.1f exceeds %.1f (baseline %.1f x "
            "machine factor %.2f, +%d%%)"
            % (cur["scalar_quantize_ns"], expected_ns * (1.0 + tolerance),
               old["scalar_quantize_ns"], machine,
               int(tolerance * 100)))
    for rate_key in ("vector_quantize_msps", "lms_samples_per_s"):
        if rate_key not in old or rate_key not in cur:
            continue   # baseline JSON predates this metric
        expected = old[rate_key] / machine
        floor = expected / (1.0 + tolerance)
        if cur[rate_key] < floor:
            failures.append(
                "%s %.1f below %.1f (baseline %.1f / machine factor "
                "%.2f, -%d%%)"
                % (rate_key, cur[rate_key], floor, old[rate_key], machine,
                   int(tolerance * 100)))
    # Observability guard: the in-process A/B/A roundtrip needs no
    # machine normalization — disabled obs must cost (near) nothing.
    obs_pct = cur.get("lms_obs_disabled_overhead_pct")
    if obs_pct is not None and obs_pct > OBS_DISABLED_OVERHEAD_PCT:
        failures.append(
            "lms_obs_disabled_overhead_pct %.2f exceeds the %.1f%% "
            "bound — disabling repro.obs no longer restores the "
            "original hot path" % (obs_pct, OBS_DISABLED_OVERHEAD_PCT))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer repeats / smaller runs (CI smoke mode)")
    ap.add_argument("--out", default=None, metavar="PATH",
                    help="write BENCH_throughput.json here")
    ap.add_argument("--check", default=None, metavar="PATH",
                    help="fail (exit 1) on >30%% regression vs this "
                         "committed baseline JSON")
    args = ap.parse_args(argv)

    report = run_harness(quick=args.quick)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print("\n[written to %s]" % args.out, file=sys.stderr)

    if args.check:
        with open(args.check) as fh:
            committed = json.load(fh)
        failures = check_regression(report, committed)
        if failures:
            for f in failures:
                print("PERF REGRESSION: %s" % f, file=sys.stderr)
            return 1
        print("[perf check vs %s: ok]" % args.check, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

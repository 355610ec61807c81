"""Refinement benchmark: one command, three closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lms-flow --seed 0 --seconds 10 --trace 0

One caller runs the workload in a closed loop (each iteration starts
when the previous one has finished) for ``--seconds`` seconds, checks
every iteration's outputs, and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs half the time untraced and half
traced and reports the per-layer metrics, writes the spans to
``.bench_out/`` and prints a self-time table on standard error.

Seed 0 is the pinned configuration checked against committed
references; any other seed perturbs the stimulus and checks invariants.
The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from clock import SpeedClock, corrected, reference_loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("lms-flow", "lms-sweep", "gallery-matrix")
#: fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_sources():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no repro package under %s; run from "
                         "the root of a full checkout" % SRC)
    sys.path.insert(0, SRC)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- set-up -------------------------------------------------------------------

def setup_probe(args):
    """Child side: time import plus input construction, print it."""
    t0 = perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[args.workload][0](args.seed, ROOT)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def measure_setup(args):
    """Median speed-corrected set-up time over fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    ref = reference_loop_s()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        host = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        ref_after = reference_loop_s()
        samples.append(corrected(host, ref, ref_after))
        ref = ref_after
    return statistics.median(samples)


# -- the closed loop ------------------------------------------------------------

def closed_loop(step, seconds):
    """Call ``step(split)`` back to back until ``seconds`` have passed.

    ``split`` lets a long iteration mark segment boundaries for the
    speed correction (see ``clock.py``).  Returns
    ``([(wall_s, host_s, Iteration), ...], errors)`` where ``wall_s`` is
    speed-corrected; an iteration that raises ends the loop and counts
    as one error.
    """
    done = []
    clock = SpeedClock()
    deadline = perf_counter() + seconds
    clock.start()
    while True:
        host0, wall0 = clock.host_s, clock.corrected_s
        try:
            it = step(clock.split)
        except Exception:
            traceback.print_exc()
            return done, 1
        clock.split()
        done.append((clock.corrected_s - wall0, clock.host_s - host0, it))
        if perf_counter() >= deadline:
            return done, 0


def gate(done, errors):
    """``(attempted, failed)`` over every check of every iteration."""
    checks = [c for *_, it in done for c in it.checks]
    facts = {(it.simulations, it.sqnr_db, it.total_bits)
             for *_, it in done}
    checks.append(("repeatable", len(facts) == 1,
                   "iterations disagree: %r" % sorted(facts)))
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print("perfbench: check %s failed: %s" % (name, detail),
              file=sys.stderr)
    return len(checks) + errors, len(failed) + errors


def peak_rss_mb():
    """Peak resident memory of this process plus its largest child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(done, attempted, failed):
    last = done[-1][2]
    print("perfbench: %d iteration(s), median host wall %.4f s"
          % (len(done), statistics.median(h for _, h, _ in done)),
          file=sys.stderr)
    return {
        "wall_s": statistics.median(w for w, _, _ in done),
        "sim_samples_per_s": statistics.median(
            it.samples / w for w, _, it in done),
        "simulations": last.simulations,
        "peak_rss_mb": peak_rss_mb(),
        "passed_ratio": 1.0 - failed / attempted,
        "output_sqnr_db": last.sqnr_db,
        "total_bits": last.total_bits,
    }


def machine():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def traced(args, workloads, iterate, state):
    """Untraced then traced half-runs; returns (metrics, done, errors)."""
    import layers
    import tracing
    from repro.obs import counters
    from repro.obs.profile import profile

    half = args.seconds / 2.0
    plain, errors = closed_loop(lambda split: iterate(state, split), half)
    if errors:
        return None, plain, errors

    tracer = tracing.Tracer()
    profiles = []

    def step(split):
        # No mid-iteration splits: the reference loop would land inside
        # the spans.  The iteration is still corrected at its ends.
        with profile() as prof:
            with tracer.span(layers.ROOT_SPAN):
                it = iterate(state, lambda: None)
        profiles.append(prof.report)
        return it

    before = counters.snapshot()
    layers.install(tracer, workloads)
    try:
        done, errors = closed_loop(step, half)
    finally:
        tracer.restore()
    after = counters.snapshot()
    if errors:
        return None, plain + done, errors
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    metrics = layers.per_layer_metrics(
        tracer.spans, delta, profiles, [it for *_, it in done],
        statistics.median(w for w, _, _ in plain),
        statistics.median(w for w, _, _ in done),
        statistics.median(h for _, h, _ in plain))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "trace-%s-seed%d.json"
                              % (args.workload, args.seed)),
                 {"workload": args.workload, "seed": args.seed,
                  "machine": machine(), "per_layer": metrics})
    print(tracing.format_self_times(
        tracer.spans, "self time per span, %s, %d traced iteration(s)"
        % (args.workload, len(done))), file=sys.stderr)
    return metrics, plain + done, 0


def report(spec_metrics, values, attempted, failed):
    names = [m["name"] for m in spec_metrics]
    if sorted(names) != sorted(values):
        raise RuntimeError("metric set drifted from BENCHMARK.json: %r"
                           % sorted(set(names) ^ set(values)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in spec_metrics},
    }


def main(argv=None):
    args = parse_args(argv)
    use_checkout_sources()
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = load_spec()
    import workloads
    setup, iterate = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, ROOT)

    if args.trace:
        values, done, errors = traced(args, workloads, iterate, state)
        spec_metrics = spec["per_layer"]
    else:
        done, errors = closed_loop(lambda split: iterate(state, split),
                                   args.seconds)
        values = None
        spec_metrics = spec["end_to_end"]
    attempted, failed = gate(done, errors)
    if not done or (args.trace and values is None):
        return 1   # nothing measured to report
    if values is None:
        values = end_to_end(done, attempted, failed)
        values["setup_s"] = measure_setup(args)
    print(json.dumps(report(spec_metrics, values, attempted, failed)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

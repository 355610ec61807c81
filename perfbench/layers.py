"""Which ``repro`` calls are timed as which layer, and the per-layer metrics.

:func:`install` wraps public functions where their callers look them
up; :func:`per_layer_metrics` turns the recorded spans, the deltas of
``repro.obs.counters`` and the ``repro.obs.profile`` reports of the
traced iterations into the per-layer metrics of ``BENCHMARK.json``.

Span depth is fixed by construction: depth 0 is ``bench.iteration``,
depth 1 the workload's entry call (``refine.run``,
``refine.sensitivity`` / ``refine.optimizer``, ``gallery.matrix``) and
depth 2 and below the layers those calls reach.
"""

from __future__ import annotations

import repro.compile
import repro.gallery.matrix as gallery_matrix
import repro.parallel.runner as runner
import repro.refine.optimizer as optimizer
import repro.refine.sensitivity as sensitivity
from repro.refine.flow import RefinementFlow
from repro.robust.recovery import Journal

from tracing import covered_below, self_times

__all__ = ["install", "per_layer_metrics", "ROOT_SPAN"]

ROOT_SPAN = "bench.iteration"

#: metrics reported as inclusive time (the call and everything below);
#: every other ``_s`` metric is the self time of its span.
_ROLLUPS = {"refine.sensitivity_s": "refine.sensitivity",
            "refine.optimizer_s": "refine.optimizer"}
_SELF = {
    "refine.baseline_s": "refine.baseline",
    "refine.msb_phase_s": "refine.msb_phase",
    "refine.lsb_phase_s": "refine.lsb_phase",
    "refine.verify_s": "refine.verify",
    "parallel.batch_s": "parallel.batch",
    "parallel.fingerprint_s": "parallel.fingerprint",
    "compile.s": "compile.batch",
    "journal.append_s": "journal.append",
    "lint.s": "lint",
    "verify.s": "verify",
}
_ANALYSIS = ("lint", "verify", "gallery.reference")


def _batch_size(args, kwargs):
    configs = args[1] if len(args) > 1 else kwargs["configs"]
    return {"jobs": len(configs)}


def install(tracer, workloads):
    """Wrap every timed call; ``tracer.restore()`` undoes it."""
    wrap = tracer.wrap
    # Workload entry calls, as the benchmark's own module resolves them.
    wrap(RefinementFlow, "run", "refine.run")
    wrap(workloads, "analyze_sensitivity", "refine.sensitivity")
    wrap(workloads, "optimize_wordlengths", "refine.optimizer")
    wrap(workloads, "run_matrix", "gallery.matrix")
    # repro.refine.flow: the public phases RefinementFlow.run() calls.
    wrap(RefinementFlow, "lint", "lint")
    wrap(RefinementFlow, "baseline_sqnr", "refine.baseline")
    wrap(RefinementFlow, "run_msb_phase", "refine.msb_phase")
    wrap(RefinementFlow, "run_lsb_phase", "refine.lsb_phase")
    wrap(RefinementFlow, "synthesize_types", "refine.synthesize")
    wrap(RefinementFlow, "verify", "refine.verify")
    # repro.parallel.runner, imported by name into each caller.
    for module in (sensitivity, optimizer, gallery_matrix):
        wrap(module, "run_simulations", "parallel.batch", _batch_size)
    wrap(runner, "fingerprint", "parallel.fingerprint")
    # repro.compile (imported at call time by the runner) and the journal.
    wrap(repro.compile, "run_compiled_pending", "compile.batch")
    wrap(Journal, "append", "journal.append")
    # repro.gallery analysis pass: lint, verify and reference model.
    wrap(gallery_matrix, "lint_entry", "lint")
    wrap(gallery_matrix, "verify_entry", "verify")
    wrap(gallery_matrix, "reference_check", "gallery.reference")


def _has_ancestor(span, by_id, name):
    parent = span["parent"]
    while parent is not None:
        p = by_id[parent]
        if p["name"] == name:
            return True
        parent = p["parent"]
    return False


def per_layer_metrics(spans, counters, profiles, iterations,
                      untraced_wall_s, traced_wall_s, untraced_host_s):
    """Per-iteration layer metrics of one traced loop.

    ``counters`` is the ``repro.obs.counters`` delta over the loop,
    ``profiles`` one ``obs.profile`` report per iteration and
    ``iterations`` the workloads' :class:`Iteration` records.  The
    walls are untraced/traced medians (speed-corrected) and the
    untraced median in plain host seconds.
    """
    n = len(iterations)
    table = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def per_iter(value):
        return value / n

    def dur(s):
        return s["end"] - s["start"]

    out = {}
    for metric, name in _SELF.items():
        out[metric] = per_iter(table.get(name, (0, 0.0, 0.0))[2])
    for metric, name in _ROLLUPS.items():
        out[metric] = per_iter(table.get(name, (0, 0.0, 0.0))[1])
    out["refine.simulations"] = per_iter(sum(
        it.layer.get("refine.simulations", 0) for it in iterations))

    out["sim.quantize_kernel_s"] = per_iter(sum(p.kernel_s
                                                for p in profiles))
    out["sim.monitor_record_s"] = per_iter(sum(p.monitor_s
                                               for p in profiles))
    out["sim.interval_s"] = per_iter(sum(p.interval_s for p in profiles))
    out["sim.python_s"] = per_iter(sum(p.python_s for p in profiles))
    out["sim.assignments"] = per_iter(sum(p.n_assign for p in profiles))

    batches = [s for s in spans if s["name"] == "parallel.batch"]
    jobs = sum(s["attrs"]["jobs"] for s in batches)
    out["parallel.batches"] = per_iter(len(batches))
    out["parallel.jobs_per_batch"] = jobs / len(batches) if batches else 0.0
    hits = counters.get("cache.hits", 0)
    lookups = hits + counters.get("cache.misses", 0)
    out["parallel.cache_hit_ratio"] = hits / lookups if lookups else 0.0

    groups = counters.get("compile.batches", 0)
    out["compile.groups"] = per_iter(groups)
    out["compile.lanes_per_group"] = (counters.get("compile.lanes", 0)
                                      / groups if groups else 0.0)
    out["compile.ineligible"] = per_iter(counters.get("compile.ineligible",
                                                      0))
    out["compile.fallbacks"] = per_iter(counters.get("compile.fallbacks", 0))
    out["journal.appends"] = per_iter(counters.get("journal.appends", 0))

    out["gallery.grid_s"] = per_iter(sum(
        dur(s) for s in batches
        if _has_ancestor(s, by_id, "gallery.matrix")))
    out["gallery.analyze_s"] = per_iter(sum(
        dur(s) for s in spans if s["name"] in _ANALYSIS
        and _has_ancestor(s, by_id, "gallery.matrix")))
    out["verify.proved"] = per_iter(counters.get("verify.proved", 0))

    out["bench.host_wall_s"] = untraced_host_s
    out["bench.trace_overhead_pct"] = (
        100.0 * (traced_wall_s / untraced_wall_s - 1.0))
    out["bench.attributed_ratio"] = (covered_below(spans, 2)
                                     / covered_below(spans, 0))
    return out

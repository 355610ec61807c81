"""repro.obs — zero-dependency observability for the refinement flow.

The paper's methodology is monitoring-first: MSB range statistics and
LSB error statistics ride on every simulation.  This package extends
that idea from *numbers at the end of a run* to *structure while it
runs*:

* :mod:`repro.obs.trace` — span-based tracing (``trace.span(...)``)
  instrumented through the refinement flow, the simulation engine, the
  parallel runner, the fault campaign and the linter; parent/child span
  ids survive the fork-pool.
* :mod:`repro.obs.events` — the :class:`Recorder` of event dicts, of
  kinds ``span_start`` / ``span_end``, ``event``, ``metric`` and
  ``diag`` (one diagnostic of :func:`repro.robust.diagnostics.report`).
* :mod:`repro.obs.metrics` — per-signal quantization counters
  (overflow/saturate/wrap events, rounding-error accumulation, min/max
  churn); enabling them swaps ``Sig.assign``, the one assignment entry
  point that ``<<=`` and array stores reach too, for an instrumented
  variant, so disabled runs pay nothing.
* :mod:`repro.obs.counters` — always-on process-wide tallies of rare
  recovery events (job retries, poison-job quarantines, deadline hits,
  journal replays).
* :mod:`repro.obs.profile` — ``obs.profile()`` attributes wall time to
  the per-assignment quantize kernels vs the monitors of monitored
  assignments vs interval propagation vs Python overhead; it wraps
  ``Sig.assign`` too.
* :mod:`repro.obs.export` — human text and a static HTML timeline
  report (``python -m repro.obs report``); loaded on first use.

Quick capture::

    from repro import obs

    rec = obs.trace.enable()         # tracing on
    obs.metrics.enable()             # per-signal counters on
    result = flow.run()              # spans + events + diagnostics + metrics
    obs.metrics.disable()
    obs.trace.disable()
    rec.to_jsonl("refine.jsonl")     # python -m repro.obs report refine.jsonl

Everything here is standard-library only; nothing is called per signal
assignment unless metrics or profiling are on.
"""

import importlib

from repro.obs import counters, metrics, trace
from repro.obs.events import Recorder, read_jsonl, write_jsonl
from repro.obs.profile import ProfileReport, profile
from repro.obs.trace import event, span

__all__ = ["trace", "metrics", "counters", "export", "span", "event",
           "profile", "ProfileReport", "Recorder", "read_jsonl",
           "write_jsonl", "build_spans", "render_text", "render_html",
           "summarize"]

_EXPORT_NAMES = ("build_spans", "render_html", "render_text", "summarize")


def __getattr__(name):
    """Load :mod:`repro.obs.export` on first use (PEP 562)."""
    if name != "export" and name not in _EXPORT_NAMES:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    export = importlib.import_module("repro.obs.export")
    return export if name == "export" else getattr(export, name)

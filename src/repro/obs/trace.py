"""Span-based tracing with near-zero disabled overhead.

The instrumented layers (:mod:`repro.refine.flow`, :mod:`repro.parallel`,
:mod:`repro.lint`, :mod:`repro.robust`) call :func:`span`
unconditionally.  While tracing is **disabled** — the default —
:func:`span` returns one shared no-op context manager, so the cost per instrumentation point is a dict build plus a function call,
paid only at coarse granularity (per phase, per simulation, per batch;
never per signal assignment).  :func:`enable` installs a
:class:`~repro.obs.events.Recorder` and the same calls start emitting
``span_start`` / ``span_end`` / ``event`` records.

Usage::

    from repro.obs import trace

    rec = trace.enable()
    with trace.span("refine.run", design="lms"):
        with trace.span("refine.msb.iteration", index=1) as sp:
            trace.event("refine.progress", exploded=2)
            sp.set(resolved=False)
    trace.disable()
    rec.to_jsonl("trace.jsonl")

Fork-pool behaviour
-------------------
The tracer state (the enabled recorder *and* the open-span stack) lives
in module globals, which ``fork``-start workers inherit by
copy-on-write.  A worker therefore sees the parent's open spans: spans
it opens chain to the correct parent span id, and ids minted in the
worker embed the worker's pid so they cannot collide with the parent's
(:func:`repro.obs.events.new_span_id`).  The worker's events are
shipped back inside :class:`repro.parallel.runner.SimOutcome` and
merged into the parent recorder — the resulting trace is one consistent
tree across processes.
"""

from __future__ import annotations

import time

from repro.obs.events import Recorder, new_span_id

__all__ = ["enable", "disable", "enabled", "current_recorder", "span",
           "event", "current_span_id", "Span"]

#: Module-global tracer state, fork-inherited (see module docstring).
_STATE = {"recorder": None, "stack": []}


def enable(recorder=None, capacity=200_000):
    """Turn tracing on; returns the active :class:`Recorder`.

    Re-enabling while already enabled keeps the existing recorder
    (pass ``recorder`` explicitly to swap it).
    """
    if recorder is not None:
        _STATE["recorder"] = recorder
    elif _STATE["recorder"] is None:
        _STATE["recorder"] = Recorder(capacity=capacity)
    return _STATE["recorder"]


def disable():
    """Turn tracing off; returns the recorder that was active (or None)."""
    rec = _STATE["recorder"]
    _STATE["recorder"] = None
    _STATE["stack"].clear()
    return rec


def enabled():
    """True while a recorder is installed."""
    return _STATE["recorder"] is not None


def current_recorder():
    """The active recorder, or None when tracing is disabled."""
    return _STATE["recorder"]


def current_span_id():
    """Span id of the innermost open span (None outside any span)."""
    stack = _STATE["stack"]
    return stack[-1].span_id if stack else None


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    span_id = None
    parent_id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self

    def event(self, name, **attrs):
        return self


_NULL = _NullSpan()


class Span:
    """One live traced span (use via :func:`span`, not directly)."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_t0")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs
        self.span_id = None
        self.parent_id = None
        self._t0 = 0.0

    def __enter__(self):
        rec = _STATE["recorder"]
        stack = _STATE["stack"]
        self.span_id = new_span_id()
        self.parent_id = stack[-1].span_id if stack else None
        if rec is not None:
            ev = {"ts": time.time(), "kind": "span_start",
                  "name": self.name, "span": self.span_id,
                  "parent": self.parent_id}
            ev.update(self.attrs)
            rec.record(ev)
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = time.perf_counter() - self._t0
        stack = _STATE["stack"]
        # Pop *this* span even if inner spans leaked (defensive).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        rec = _STATE["recorder"]
        if rec is not None:
            ev = {"ts": time.time(), "kind": "span_end",
                  "name": self.name, "span": self.span_id,
                  "parent": self.parent_id, "dur": dur,
                  "status": "ok" if exc_type is None else "error"}
            if exc_type is not None:
                ev["exc"] = "%s: %s" % (exc_type.__name__, exc)
            ev.update(self.attrs)
            rec.record(ev)
        return False

    def set(self, **attrs):
        """Attach attributes, reported on the closing ``span_end``."""
        self.attrs.update(attrs)
        return self

    def event(self, name, **attrs):
        """Record a point event parented to this span."""
        rec = _STATE["recorder"]
        if rec is not None:
            ev = {"ts": time.time(), "kind": "event", "name": name,
                  "span": self.span_id, "parent": self.span_id}
            ev.update(attrs)
            rec.record(ev)
        return self


def span(name, **attrs):
    """Open a traced span (context manager).

    Returns a shared no-op object while tracing is disabled, a live
    :class:`Span` otherwise.  Attributes set here (or later via
    :meth:`Span.set`) ride on the ``span_end`` event.
    """
    if _STATE["recorder"] is None:
        return _NULL
    return Span(name, attrs)


def event(name, **attrs):
    """Record a point event under the innermost open span."""
    rec = _STATE["recorder"]
    if rec is None:
        return
    stack = _STATE["stack"]
    sid = stack[-1].span_id if stack else None
    ev = {"ts": time.time(), "kind": "event", "name": name,
          "span": sid, "parent": sid}
    ev.update(attrs)
    rec.record(ev)

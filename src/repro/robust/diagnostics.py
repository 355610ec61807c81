"""Structured diagnostics: one event per occurrence.

Every noteworthy event — guard trips, low-confidence automatic range
annotations, escalation retries, fallback types, watchdog or
verification anomalies, the runner's recovery events — is emitted once,
by :func:`report`, as a :class:`DiagEvent`: to every open
:class:`Diagnostics` collector (``with Diagnostics() as diag:``; the
open ones form a module-level stack, like the span stack of
:mod:`repro.obs.trace`), as one ``diag`` trace event, and to its counter.
``RefinementFlow.run`` opens a collector around its body and attaches
it to the :class:`RefinementResult`.  Diagnostics are emitted on the
parent side only: a fork-pool worker emits none.

>>> with Diagnostics() as outer:
...     with Diagnostics() as inner:
...         _ = report("baseline", "info", "no output signal")
>>> [e.code for e in outer], [e.code for e in inner]
(['DG104'], ['DG104'])
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace

__all__ = ["DiagEvent", "Diagnostics", "SEVERITIES", "CATEGORY_CODES",
           "report", "absorb_guards"]

SEVERITIES = ("info", "warning", "error")

#: Stable machine-readable code per diagnostic category.  Lint events
#: carry their own rule id (``FX001``..) in ``data["rule"]``, which wins
#: over the category code; everything else maps here.  Codes are part of
#: the public diagnostics contract (tests and downstream tooling filter
#: on them) — never renumber, only append.
CATEGORY_CODES = {
    "guard": "DG001",
    "watchdog": "DG002",
    "auto-range": "DG101",
    "escalation": "DG102",
    "fallback": "DG103",
    "baseline": "DG104",
    "verification": "DG105",
    # Crash-tolerant execution (repro.parallel + repro.robust.recovery).
    "deadline": "DG201",
    "quarantine": "DG202",
    "journal": "DG203",
    "retry": "DG204",
    # Degraded-mode durability + chaos injection (repro.robust.chaos).
    "journal-degraded": "DG205",
    # DG206 is retired (it named the removed in-memory cache's checksum
    # failure) and must never be reused.
    "chaos": "DG207",
    "journal-compact": "DG208",
    # DG209 is retired (it named the removed compiled engine's
    # fallback) and must never be reused.
    # Static verification verdicts (repro.verify).
    "verify-proved": "DG210",
    "verify-counterexample": "DG211",
    "verify-unknown": "DG212",
    # DG213-DG218 are retired (they named the removed refinement
    # service's events) and must never be reused.
    # Range-only MSB re-iteration simulated in full
    # (repro.signal.interval_tape).
    "range-replay": "DG219",
}


@dataclass(frozen=True)
class DiagEvent:
    """One structured event of a refinement run."""

    category: str        # e.g. "guard", "auto-range", "escalation", ...
    severity: str        # "info" | "warning" | "error"
    signal: object       # signal name or None for flow-level events
    message: str
    data: dict = field(default_factory=dict)

    @property
    def code(self):
        """Stable diagnostic code (``DG...``, or the lint rule id).

        >>> DiagEvent("guard", "warning", "acc", "sanitized").code
        'DG001'
        >>> DiagEvent("lint", "warning", None, "m",
        ...           {"rule": "FX004"}).code
        'FX004'
        """
        rule = self.data.get("rule")
        if rule:
            return str(rule)
        return CATEGORY_CODES.get(self.category, "DG000")

    def describe(self):
        where = "" if self.signal is None else " [%s]" % self.signal
        return "%-7s %s %s%s: %s" % (self.severity, self.code,
                                     self.category, where, self.message)


#: The open collectors, outermost first (see :class:`Diagnostics`).
_OPEN = []


def report(category, severity, message, signal=None, counter=None, **data):
    """Emit one diagnostic; returns its :class:`DiagEvent`.

    The event goes to every open collector and, while tracing is on, to
    the trace as one ``{"kind": "diag", "name": category, "code", ...}``
    event under the current span; ``counter`` names a
    :mod:`repro.obs.counters` counter to add 1 to.
    """
    if severity not in SEVERITIES:
        raise ValueError("severity must be one of %s, got %r"
                         % (", ".join(SEVERITIES), severity))
    ev = DiagEvent(category, severity, signal, message, data)
    for diag in _OPEN:
        diag.events.append(ev)
    rec = obs_trace.current_recorder()
    if rec is not None:
        sid = obs_trace.current_span_id()
        rec.record(dict(ts=time.time(), kind="diag", name=category,
                        span=sid, parent=sid, code=ev.code,
                        severity=severity, signal=signal, message=message,
                        **data))
    if counter is not None:
        obs_counters.inc(counter)
    return ev


def absorb_guards(outcome, phase):
    """Report a simulation outcome's guard log as per-signal guard
    events (``outcome`` is a :class:`~repro.parallel.SimOutcome`).

    The events are labelled with ``phase``, not with the outcome's own
    label, so an outcome served from the cache reports under the stage
    that asked for it.
    """
    if outcome.guard_trips == 0:
        return
    per_signal = {}
    for ev in outcome.guard_events:
        per_signal.setdefault(ev.signal, []).append(ev)
    for name, evs in per_signal.items():
        first = evs[0]
        report("guard", "warning",
               "%d non-finite assignment(s) sanitized during %s "
               "(first at cycle %d: fx=%r)"
               % (len(evs), phase, first.cycle, first.fx),
               signal=name, phase=phase, count=len(evs),
               first_cycle=first.cycle)
    untracked = outcome.guard_trips - len(outcome.guard_events)
    if untracked > 0:
        report("guard", "warning",
               "%d further guard trip(s) during %s beyond the event cap"
               % (untracked, phase), phase=phase)


class Diagnostics:
    """Ordered collection of :class:`DiagEvent`.

    Used as a context manager it is a collector: every :func:`report`
    made while its block is open appends to it.
    """

    def __init__(self):
        self.events = []

    def __enter__(self):
        _OPEN.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _OPEN.remove(self)
        return False

    # -- queries ------------------------------------------------------------

    def by_category(self, category):
        return [e for e in self.events if e.category == category]

    def by_severity(self, severity):
        return [e for e in self.events if e.severity == severity]

    @property
    def warnings(self):
        return self.by_severity("warning")

    @property
    def errors(self):
        return self.by_severity("error")

    @property
    def guard_trips(self):
        """Total sanitized non-finite assignments across all phases."""
        return sum(e.data.get("count", 1) for e in self.by_category("guard"))

    @property
    def fallback_signals(self):
        """Signals that received a conservative fallback type."""
        return [e.signal for e in self.by_category("fallback")
                if e.signal is not None]

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- reporting ----------------------------------------------------------

    def table(self, title="Diagnostics"):
        from repro.refine.report import format_diagnostics_table
        return format_diagnostics_table(self.events, title=title)

    def summary(self):
        if not self.events:
            return "diagnostics: clean run (no events)"
        counts = {}
        for e in self.events:
            counts[e.category] = counts.get(e.category, 0) + 1
        parts = ["%d %s" % (n, cat) for cat, n in sorted(counts.items())]
        lines = ["diagnostics: %d event(s) (%s)"
                 % (len(self.events), ", ".join(parts))]
        n_err = len(self.errors)
        if n_err:
            lines.append("%d error-severity event(s)" % n_err)
        return "; ".join(lines)

    def to_dict(self):
        return {
            "events": [{
                "code": e.code,
                "category": e.category,
                "severity": e.severity,
                "signal": e.signal,
                "message": e.message,
                "data": {k: v for k, v in e.data.items()
                         if isinstance(v, (int, float, str, bool,
                                           type(None)))},
            } for e in self.events],
            "guard_trips": self.guard_trips,
        }

    def __repr__(self):
        return "Diagnostics(%d events)" % len(self.events)

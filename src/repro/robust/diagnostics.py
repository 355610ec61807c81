"""Structured diagnostics attached to a refinement run.

Instead of burying what happened in log text, every noteworthy event of
a guarded refinement — guard trips, low-confidence automatic range
annotations, escalation retries, fallback type synthesis, watchdog or
verification anomalies — becomes a :class:`DiagEvent` inside one
:class:`Diagnostics` container, which ``RefinementFlow.run`` attaches to
the :class:`RefinementResult`.  The container also carries the outcome
of a fault-injection campaign when one was run against the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.refine.report import format_diagnostics_table

__all__ = ["DiagEvent", "Diagnostics", "SEVERITIES", "CATEGORY_CODES"]

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
    "cache-corrupt": "DG206",
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


class Diagnostics:
    """Ordered collection of :class:`DiagEvent` plus campaign results."""

    def __init__(self):
        self.events = []
        self.fault_campaign = None   # CampaignResult, when one was run

    # -- recording ---------------------------------------------------------

    def add(self, category, severity, signal, message, **data):
        if severity not in SEVERITIES:
            raise ValueError("severity must be one of %s, got %r"
                             % (", ".join(SEVERITIES), severity))
        ev = DiagEvent(category, severity, signal, message, data)
        self.events.append(ev)
        return ev

    def absorb_guards(self, outcome, phase):
        """Fold a simulation outcome's guard log into per-signal guard
        events (``outcome`` is a :class:`~repro.parallel.SimOutcome`).

        The events are labelled with ``phase``, not with the outcome's
        own label, so an outcome served from the cache reports under the
        stage that asked for it.
        """
        if outcome.guard_trips == 0:
            return
        per_signal = {}
        for ev in outcome.guard_events:
            per_signal.setdefault(ev.signal, []).append(ev)
        for name, evs in per_signal.items():
            first = evs[0]
            self.add("guard", "warning", name,
                     "%d non-finite assignment(s) sanitized during %s "
                     "(first at cycle %d: fx=%r)"
                     % (len(evs), phase, first.cycle, first.fx),
                     phase=phase, count=len(evs), first_cycle=first.cycle)
        untracked = outcome.guard_trips - len(outcome.guard_events)
        if untracked > 0:
            self.add("guard", "warning", None,
                     "%d further guard trip(s) during %s beyond the "
                     "event cap" % (untracked, phase), phase=phase)

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
        return format_diagnostics_table(self.events, title=title)

    def summary(self):
        if not self.events and self.fault_campaign is None:
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
        if self.fault_campaign is not None:
            lines.append(self.fault_campaign.summary())
        return "; ".join(lines)

    def to_dict(self):
        out = {
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
        if self.fault_campaign is not None:
            out["fault_campaign"] = self.fault_campaign.to_dict()
        return out

    def __repr__(self):
        return "Diagnostics(%d events%s)" % (
            len(self.events),
            "" if self.fault_campaign is None else ", fault campaign")

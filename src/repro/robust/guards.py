"""Simulation guards: non-finite-value policies and watchdogs.

Two failure classes the refinement flow must survive are *silent value
corruption* (a NaN or infinity sneaking through ``Signal.assign`` and
poisoning every downstream statistic) and *runaway simulations* (a
stalled feedback loop spinning forever).  This
module packages the counter-measures:

* :class:`GuardPolicy` — a declarative non-finite policy applied to a
  :class:`~repro.signal.context.DesignContext` (the enforcement itself
  lives in ``DesignContext.guard_non_finite``, called on every signal
  assignment);
* :class:`Watchdog` — a max-cycles / wall-clock budget checked on every
  ``ctx.tick()``;
* :func:`guard_summary` — a compact report of the guard trips of a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.errors import DesignError, WatchdogTimeout
from repro.signal.context import (GUARD_ACTIONS, GUARD_REPLACEMENTS,
                                  GuardEvent)

__all__ = ["GuardPolicy", "GuardEvent", "Watchdog", "guard_summary"]


@dataclass(frozen=True)
class GuardPolicy:
    """Declarative non-finite-value policy for a design context.

    ``action`` is one of ``"raise"`` (abort on the first NaN/Inf that
    reaches a signal), ``"record"`` (sanitize, log a
    :class:`GuardEvent`, continue) or ``"sanitize"`` (sanitize and only
    count).  ``replacement`` selects what a sanitized value becomes:
    ``"hold"`` keeps the signal's last good value, ``"zero"`` forces 0.
    """

    action: str = "raise"
    replacement: str = "hold"
    max_events: int = 1000

    def __post_init__(self):
        if self.action not in GUARD_ACTIONS:
            raise DesignError("guard action must be one of %s, got %r"
                              % (", ".join(GUARD_ACTIONS), self.action))
        if self.replacement not in GUARD_REPLACEMENTS:
            raise DesignError("guard replacement must be one of %s, got %r"
                              % (", ".join(GUARD_REPLACEMENTS),
                                 self.replacement))

    def apply_to(self, ctx):
        """Install this policy on an existing context."""
        ctx.guard_action = self.action
        ctx.guard_replacement = self.replacement
        ctx.guard_max_events = self.max_events
        return ctx

    def context_kwargs(self):
        """Keyword arguments for the ``DesignContext`` constructor."""
        return {"guard_action": self.action,
                "guard_replacement": self.replacement,
                "guard_max_events": self.max_events}


class Watchdog:
    """Cycle-count and wall-clock budget for one simulation run.

    Attach to a context (``ctx.watchdog = Watchdog(...)``) to have every
    ``ctx.tick()`` checked.  ``check`` raises
    :class:`~repro.core.errors.WatchdogTimeout` once either budget is
    exhausted.  The wall-clock budget is only consulted every
    ``clock_stride`` cycles to keep the per-tick overhead negligible.
    """

    def __init__(self, max_cycles=None, max_seconds=None, clock_stride=256):
        if max_cycles is None and max_seconds is None:
            raise DesignError("watchdog needs max_cycles and/or max_seconds")
        if max_cycles is not None and max_cycles <= 0:
            raise DesignError("max_cycles must be positive")
        if max_seconds is not None and max_seconds <= 0:
            raise DesignError("max_seconds must be positive")
        self.max_cycles = max_cycles
        self.max_seconds = max_seconds
        self.clock_stride = max(1, int(clock_stride))
        self._t0 = None
        self._n_checks = 0

    def start(self):
        """(Re-)arm the watchdog; called automatically on first check."""
        self._t0 = time.monotonic()
        self._n_checks = 0
        return self

    @property
    def elapsed(self):
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    def check(self, cycles):
        """Raise :class:`WatchdogTimeout` when a budget is exhausted."""
        if self._t0 is None:
            self.start()
        self._n_checks += 1
        if self.max_cycles is not None and cycles >= self.max_cycles:
            raise WatchdogTimeout(
                "simulation exceeded the %d-cycle watchdog budget"
                % self.max_cycles, cycles=cycles, elapsed=self.elapsed)
        if (self.max_seconds is not None
                and self._n_checks % self.clock_stride == 0):
            elapsed = self.elapsed
            if elapsed >= self.max_seconds:
                raise WatchdogTimeout(
                    "simulation exceeded the %.3gs wall-clock watchdog "
                    "budget after %d cycles" % (self.max_seconds, cycles),
                    cycles=cycles, elapsed=elapsed)

    def __repr__(self):
        return "Watchdog(max_cycles=%r, max_seconds=%r)" % (
            self.max_cycles, self.max_seconds)


def guard_summary(ctx):
    """One-paragraph summary of a context's guard activity."""
    if ctx.guard_trip_count == 0:
        return "no guard trips"
    per_signal = {}
    for ev in ctx.guard_log:
        per_signal[ev.signal] = per_signal.get(ev.signal, 0) + 1
    detail = ", ".join("%s x%d" % (name, n)
                       for name, n in sorted(per_signal.items()))
    extra = ctx.guard_trip_count - len(ctx.guard_log)
    lines = ["%d non-finite assignment(s) sanitized (%s)"
             % (ctx.guard_trip_count, detail or "events not retained")]
    if extra > 0:
        lines.append("%d trip(s) beyond the event cap" % extra)
    return "; ".join(lines)

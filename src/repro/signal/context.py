"""Design context: the registry and clock of one design-under-refinement.

A :class:`DesignContext` owns every signal object created while it is
active, the deterministic random generator used by ``error()``
annotations, the overflow log, and the register clock.  The refinement
flow creates a fresh context for every simulation iteration so statistics
never leak between runs.

Contexts nest with ``with`` (a thread-local stack); signal constructors
pick up the innermost active context when none is passed explicitly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DesignError, NonFiniteError

__all__ = ["DesignContext", "GuardEvent", "current_context"]

#: Non-finite-value guard actions (see :mod:`repro.robust.guards`):
#: ``raise`` aborts the simulation, ``record`` sanitizes and logs every
#: trip, ``sanitize`` replaces the value and only counts.
GUARD_ACTIONS = ("raise", "record", "sanitize")

#: What a sanitized non-finite value is replaced with: ``hold`` keeps the
#: signal's previous value, ``zero`` forces 0.0.
GUARD_REPLACEMENTS = ("hold", "zero")


@dataclass(frozen=True)
class GuardEvent:
    """One sanitized non-finite assignment (guard action ``record``)."""

    cycle: int
    signal: str
    fx: float
    fl: float
    replacement_fx: float
    replacement_fl: float

    def describe(self):
        return ("cycle %d: signal %r received (fx=%r, fl=%r), "
                "sanitized to (%g, %g)"
                % (self.cycle, self.signal, self.fx, self.fl,
                   self.replacement_fx, self.replacement_fl))

_local = threading.local()


def _stack():
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def current_context():
    """Innermost active context (a default one is created lazily)."""
    stack = _stack()
    if not stack:
        stack.append(DesignContext("default"))
    return stack[-1]


class DesignContext:
    """Registry, clock and policy knobs shared by the signals of a design.

    Parameters
    ----------
    name:
        Label used in reports.
    seed:
        Seed of the generator backing ``sig.error(q)`` injections.
    overflow_action:
        ``"record"`` (default) logs overflows of ``error``-mode types and
        continues with the saturated value; ``"raise"`` raises
        :class:`~repro.core.errors.FixedPointOverflowError` immediately.
    guard_action:
        Non-finite-value policy applied on every assignment: ``"raise"``
        (default) raises :class:`~repro.core.errors.NonFiniteError` the
        moment a NaN or infinity reaches a signal; ``"record"`` sanitizes
        the value and logs a :class:`GuardEvent`; ``"sanitize"`` replaces
        the value and only counts the trip.
    guard_replacement:
        Sanitization rule: ``"hold"`` (default) keeps the signal's last
        good value, ``"zero"`` forces 0.0.
    guard_max_events:
        Cap on the number of retained :class:`GuardEvent` entries (the
        trip *counter* is never capped).
    """

    def __init__(self, name="design", seed=0, overflow_action="record",
                 guard_action="raise", guard_replacement="hold",
                 guard_max_events=1000):
        if guard_action not in GUARD_ACTIONS:
            raise DesignError("guard_action must be one of %s, got %r"
                              % (", ".join(GUARD_ACTIONS), guard_action))
        if guard_replacement not in GUARD_REPLACEMENTS:
            raise DesignError("guard_replacement must be one of %s, got %r"
                              % (", ".join(GUARD_REPLACEMENTS),
                                 guard_replacement))
        self.name = name
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.overflow_action = overflow_action
        self.guard_action = guard_action
        self.guard_replacement = guard_replacement
        self.guard_max_events = guard_max_events
        self.guard_log = []
        self.guard_trip_count = 0
        self.watchdog = None
        self.cycle = 0
        #: interval tape recording this run
        #: (:mod:`repro.signal.interval_tape`), or None.
        self.tape = None
        #: positions recorded by the tapes that finished on this context;
        #: the next tape numbers its operations after them.
        self.tape_positions = 0
        #: quasi-analytical range propagation on (off in a statistics-only
        #: or output-only job, see :meth:`monitor_only`).
        self.propagate = True
        self._signals = {}
        self._order = []
        self._registers = []
        self.overflow_log = []

    # -- registry -----------------------------------------------------------

    def register_signal(self, sig):
        if sig.name in self._signals:
            raise DesignError("duplicate signal name %r in context %r"
                              % (sig.name, self.name))
        self._signals[sig.name] = sig
        self._order.append(sig.name)
        if sig.is_register:
            self._registers.append(sig)

    def monitor_only(self, name):
        """Measure only signal ``name``: an output-only run.

        Every other signal keeps its value side (guard, fault hooks,
        quantization, overflow counting and raising, ``error()`` draws)
        but skips its range and error monitors, which are cleared of
        what ``build()`` assigned, and no operation or assignment
        propagates intervals.  Signals created afterwards keep their
        monitors.  An unknown ``name`` raises
        :class:`~repro.core.errors.DesignError`.
        """
        self.get(name)
        self.propagate = False
        for s in self.signals():
            if s.name != name:
                s._monitored = False
                s._clear_monitors()

    def signals(self):
        """All signals in declaration order."""
        return [self._signals[n] for n in self._order]

    def signal_names(self):
        return list(self._order)

    def get(self, name):
        try:
            return self._signals[name]
        except KeyError:
            raise DesignError("no signal named %r in context %r"
                              % (name, self.name)) from None

    def __contains__(self, name):
        return name in self._signals

    def __len__(self):
        return len(self._signals)

    # -- clock ----------------------------------------------------------------

    def tick(self):
        """Advance one clock cycle: commit every register's pending value.

        Every 512 cycles the signals' recorded assignments are reduced
        into their monitors (``Sig._flush``), which bounds the memory a
        long run holds.
        """
        for r in self._registers:
            if r._has_pending:
                r.fx = r._pend_fx
                r.fl = r._pend_fl
                r._has_pending = False
        self.cycle += 1
        if not self.cycle & 511:
            for s in self._signals.values():
                if s._cols:
                    s._flush()
        if self.tape is not None:
            self.tape.tick()
        if self.watchdog is not None:
            self.watchdog.check(self.cycle)

    # -- bookkeeping -------------------------------------------------------

    def log_overflow(self, sig_name, value):
        self.overflow_log.append((self.cycle, sig_name, value))

    def guard_non_finite(self, sig, fx, fl):
        """Apply the non-finite-value policy to one assignment.

        Returns the sanitized ``(fx, fl)`` pair, or raises
        :class:`~repro.core.errors.NonFiniteError` under ``"raise"``.
        Finite components pass through untouched; only the non-finite
        side is replaced.
        """
        if self.guard_action == "raise":
            raise NonFiniteError(
                "non-finite value reached signal %r at cycle %d "
                "(fx=%r, fl=%r)" % (sig.name, self.cycle, fx, fl),
                signal=sig.name, value=fx if not math.isfinite(fx) else fl)
        if self.guard_replacement == "hold":
            sub_fx, sub_fl = sig.fx, sig.fl
            if not math.isfinite(sub_fx):
                sub_fx = 0.0
            if not math.isfinite(sub_fl):
                sub_fl = 0.0
        else:  # zero
            sub_fx = sub_fl = 0.0
        new_fx = fx if math.isfinite(fx) else sub_fx
        new_fl = fl if math.isfinite(fl) else sub_fl
        self.guard_trip_count += 1
        if (self.guard_action == "record"
                and len(self.guard_log) < self.guard_max_events):
            self.guard_log.append(GuardEvent(self.cycle, sig.name, fx, fl,
                                             new_fx, new_fl))
        return new_fx, new_fl

    def reset_stats(self):
        """Clear all monitoring statistics (values are preserved)."""
        for s in self.signals():
            s.reset_stats()
        self.overflow_log.clear()
        self.guard_log.clear()
        self.guard_trip_count = 0

    def snapshot_error_stats(self):
        """Per-signal copy of the produced-error statistics (for the
        divergence growth test of the refinement flow)."""
        snap = {}
        for s in self.signals():
            snap[s.name] = (s.err_produced.count, s.err_produced.mean,
                            s.err_produced.std, s.err_produced.max_abs)
        return snap

    # -- context manager ----------------------------------------------------

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _stack()
        if not stack or stack[-1] is not self:
            raise DesignError("unbalanced DesignContext nesting")
        stack.pop()
        return False

    def __repr__(self):
        return "DesignContext(%r, %d signals, cycle=%d)" % (
            self.name, len(self._signals), self.cycle)

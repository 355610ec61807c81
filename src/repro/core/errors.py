"""Exception hierarchy for the fixed-point refinement environment.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DTypeError(ReproError):
    """An invalid fixed-point type specification was given."""


class NonFiniteError(DTypeError):
    """A NaN or infinity reached a quantizer or a monitored signal.

    Non-finite values have no fixed-point representation; silently
    quantizing them would poison every downstream statistic.  The guard
    layer (see :mod:`repro.robust.guards`) decides whether an offending
    assignment raises this error, is recorded and sanitized, or is
    sanitized silently.
    """

    def __init__(self, message, signal=None, value=None):
        super().__init__(message)
        self.signal = signal
        self.value = value


class FixedPointOverflowError(ReproError):
    """A value exceeded the representable range of an ``error``-mode type.

    This mirrors the paper's ``error`` MSB mode: the simulation stops (or
    records, depending on the design context policy) so the designer can
    either increase the wordlength or select another MSB mode.
    """

    def __init__(self, message, signal=None, value=None, dtype=None):
        super().__init__(message)
        self.signal = signal
        self.value = value
        self.dtype = dtype


class RangeExplosionError(ReproError):
    """Quasi-analytical range propagation exploded on a feedback signal.

    The paper's remedy is an explicit ``sig.range(lo, hi)`` annotation or a
    saturating type definition on the offending signal.
    """

    def __init__(self, message, signals=()):
        super().__init__(message)
        self.signals = tuple(signals)


class DesignError(ReproError):
    """A design description is malformed (duplicate names, missing signals...)."""


class RangeDivergenceError(RangeExplosionError, DesignError):
    """Analytical SFG propagation diverged, with the first offender named.

    Unlike the plain :class:`RangeExplosionError` (which only lists the
    exploded signals), this error pinpoints *which* node first widened to
    infinity and in which fixpoint round — the actionable location for a
    ``range()`` annotation or a saturating type.
    """

    def __init__(self, message, signal=None, round=None, signals=()):
        super().__init__(message, signals=signals)
        #: name of the signal whose interval first became unbounded
        self.signal = signal
        #: fixpoint round at which the divergence first appeared
        self.round = round


class DivergenceError(ReproError):
    """The coupled float/fixed simulation diverged on a feedback signal.

    The paper's remedy is an explicit ``sig.error(q)`` annotation that
    replaces the tracked difference error with a uniform random variable.
    """

    def __init__(self, message, signals=()):
        super().__init__(message)
        self.signals = tuple(signals)


class SimulationError(ReproError):
    """The simulation engine encountered an unrecoverable condition."""


class WatchdogTimeout(SimulationError):
    """A simulation exceeded its cycle or wall-clock budget.

    Raised by the watchdog attached to a :class:`DesignContext`;
    prevents stalled feedback loops from hanging the refinement flow.
    """

    def __init__(self, message, cycles=None, elapsed=None):
        super().__init__(message)
        self.cycles = cycles
        self.elapsed = elapsed


class DeadlineExceeded(WatchdogTimeout):
    """A single simulation job ran past its per-job wall-clock deadline.

    Raised inside a worker (or the serial runner) by the signal-based
    alarm armed from :class:`repro.parallel.runner.SimConfig.deadline_seconds`.
    Subclasses :class:`WatchdogTimeout` so existing watchdog handling
    (graceful sample-halving, diagnostics) applies unchanged.
    """

    def __init__(self, message, deadline=None, label=None):
        super().__init__(message)
        self.deadline = deadline
        self.label = label


class WorkerCrashError(SimulationError):
    """A pool worker died (crash/kill) while executing a simulation job.

    Parent-side representation of a quarantined poison job: the worker
    process is gone, so there is no original exception to re-raise.
    Raised by :func:`repro.parallel.run_simulations` for jobs without
    ``catch_errors`` once the rest of the batch has completed (and been
    journaled).
    """

    def __init__(self, message, label=None, attempts=None):
        super().__init__(message)
        self.label = label
        self.attempts = attempts


class JournalError(ReproError):
    """A simulation outcome journal is unreadable or incompatible.

    Raised when a journal file carries an unknown format/version header
    or when corruption is detected *before* the torn tail (append-only
    journals can only legitimately be damaged at the end).
    """


class RefinementError(ReproError):
    """The refinement flow could not converge or was misconfigured."""

"""Per-signal measurement records collected after a monitored simulation.

A :class:`SignalRecord` is an immutable snapshot of everything the
refinement rules need about one signal: the statistic-based range, the
propagated range, the consumed/produced error statistics, the reference
power, overflow counts and annotations.  :func:`collect` snapshots a
whole design context.  A run that propagates no ranges (a
statistics-only or output-only job, ``DesignContext.propagate`` off)
leaves every record's ``prop`` empty, also on a signal that carries a
forced range; ``forced_range`` still records the annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import word
from repro.core.interval import Interval

__all__ = ["ErrorSummary", "SignalRecord", "collect", "collect_output"]


@dataclass(frozen=True)
class ErrorSummary:
    """Frozen view of an :class:`~repro.core.stats.ErrorStat`."""

    count: int
    mean: float
    std: float
    max_abs: float

    @classmethod
    def from_stat(cls, stat):
        return cls(stat.count, stat.mean, stat.std, stat.max_abs)

    @property
    def rms(self):
        return math.sqrt(self.std * self.std + self.mean * self.mean)


@dataclass(frozen=True)
class SignalRecord:
    """Measurement snapshot of one signal after a simulation run."""

    name: str
    is_register: bool
    dtype: object                      # DType or None
    role: str

    # Statistic-based range monitor.
    n_assign: int
    stat_min: float
    stat_max: float
    frac_bits: int

    # Quasi-analytical range propagation.
    prop: Interval = field(default_factory=Interval)

    # Error monitor.
    err_consumed: ErrorSummary = ErrorSummary(0, 0.0, 0.0, 0.0)
    err_produced: ErrorSummary = ErrorSummary(0, 0.0, 0.0, 0.0)
    val_rms: float = 0.0

    overflow_count: int = 0
    forced_range: object = None        # Interval or None
    forced_error: object = None        # float or None

    # -- derived -----------------------------------------------------------

    @property
    def observed(self):
        return self.n_assign > 0

    def stat_msb(self, signed=True):
        """Required MSB of the observed (simulated) range."""
        if not self.observed:
            return None
        return word.required_msb(self.stat_min, self.stat_max, signed=signed)

    def prop_msb(self, signed=True):
        """Required MSB of the propagated range (inf when exploded)."""
        if self.prop.is_empty:
            return None
        return word.required_msb(self.prop.lo, self.prop.hi, signed=signed)

    @property
    def prop_exploded(self):
        return not self.prop.is_empty and not self.prop.is_finite

    def sqnr_db(self):
        noise = self.err_produced.rms
        if self.err_produced.count == 0:
            return math.nan
        if noise == 0.0:
            return math.inf
        if self.val_rms == 0.0:
            return -math.inf
        return 20.0 * math.log10(self.val_rms / noise)

    @classmethod
    def from_signal(cls, sig):
        rs = sig.range_stat
        return cls(
            name=sig.name,
            is_register=sig.is_register,
            dtype=sig.dtype,
            role=sig.role,
            n_assign=rs.count,
            stat_min=rs.min if rs.count else math.nan,
            stat_max=rs.max if rs.count else math.nan,
            frac_bits=rs.frac_bits,
            prop=sig.prop_interval() if sig.ctx.propagate else Interval(),
            err_consumed=ErrorSummary.from_stat(sig.err_consumed),
            err_produced=ErrorSummary.from_stat(sig.err_produced),
            val_rms=sig.val_stat.rms,
            overflow_count=sig.overflow_count,
            forced_range=sig.forced_range,
            forced_error=sig.forced_error,
        )


def collect(ctx):
    """Snapshot every signal of a context, keyed by name (ordered)."""
    return {s.name: SignalRecord.from_signal(s) for s in ctx.signals()}


def collect_output(ctx, name):
    """Snapshot of signal ``name`` alone after an output-only run."""
    return {name: SignalRecord.from_signal(ctx.get(name))}

"""Per-signal wordlength sensitivity analysis.

Paper Figure 4 has a feedback arrow: when the verified performance is
not satisfactory, the partial type definition "must then be revised".
This module answers *which* signal to revise: it perturbs each
synthesized type by +/- one fractional bit, re-simulates, and reports
the output-quality gradient and the hardware-cost gradient per signal —
the designer (or an optimizer) then spends bits where they buy the most
dB per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.runner import SimConfig, run_simulations

__all__ = ["SignalSensitivity", "SensitivityReport", "analyze_sensitivity"]


@dataclass(frozen=True)
class SignalSensitivity:
    """Effect of +/- one fractional bit on one signal."""

    name: str
    base_f: int
    sqnr_base_db: float
    sqnr_plus_db: float      # one more fractional bit
    sqnr_minus_db: float     # one fewer fractional bit

    @property
    def gain_db_per_bit(self):
        """Quality bought by adding one bit here."""
        return self.sqnr_plus_db - self.sqnr_base_db

    @property
    def loss_db_per_bit(self):
        """Quality lost by removing one bit here."""
        return self.sqnr_base_db - self.sqnr_minus_db


@dataclass
class SensitivityReport:
    output: str
    base_sqnr_db: float
    entries: list = field(default_factory=list)

    def most_sensitive(self, k=5):
        """Signals whose bit removal hurts most (revise these last)."""
        return sorted(self.entries, key=lambda e: -e.loss_db_per_bit)[:k]

    def least_sensitive(self, k=5):
        """Signals whose bit removal is nearly free (shrink these)."""
        return sorted(self.entries, key=lambda e: e.loss_db_per_bit)[:k]

    def table(self):
        lines = ["signal sensitivity (output %r, base SQNR %.2f dB)"
                 % (self.output, self.base_sqnr_db),
                 "%-16s %4s %10s %10s" % ("signal", "f", "+1 bit", "-1 bit")]
        for e in sorted(self.entries, key=lambda e: -e.loss_db_per_bit):
            lines.append("%-16s %4d %+9.2f %+9.2f"
                         % (e.name, e.base_f, e.gain_db_per_bit,
                            -e.loss_db_per_bit))
        return "\n".join(lines)


def analyze_sensitivity(design_factory, types, input_types, signals=None,
                        n_samples=2000, seed=1234, workers=None,
                        cache=None, journal=None, engine=None):
    """Measure the output-SQNR effect of +/-1 fractional bit per signal.

    ``types`` is the synthesized type map (from the flow), ``input_types``
    the fixed input formats.  ``signals`` restricts the sweep (defaults to
    every synthesized signal).  Cost: two simulations per signal plus one
    baseline; the whole batch is fanned out through
    :func:`repro.parallel.run_simulations` (``workers`` / ``journal``
    forwarded), so wall-clock scales with the core count while the
    numbers stay bit-identical to a serial sweep.  ``journal`` (a
    :class:`repro.robust.recovery.Journal` or path; ``cache`` is an
    older name for it) is the sweep's outcome store: a file-backed one
    journals each probe as it completes and replays completed probes
    bit-exactly when the sweep is re-run after a crash.

    Every probe is an output-only job (``SimConfig(monitors="output")``):
    it measures the output alone and propagates no ranges.  ``engine``
    is kept for old callers: only ``None`` and ``"interpreted"``, the
    one simulation path, are accepted.
    """
    if engine not in (None, "interpreted"):
        raise ValueError("engine must be None or 'interpreted', got %r"
                         % (engine,))
    base_types = {**types, **input_types}
    names = list(signals) if signals is not None else list(types)

    def cfg(dtypes):
        return SimConfig(label="sens", dtypes=dtypes, n_samples=n_samples,
                         seed=seed, monitors="output")

    configs = [cfg(base_types)]
    plan = []  # (name, base_f, has_minus)
    for name in names:
        dt = types[name]
        plus = dict(base_types)
        plus[name] = dt.with_(n=dt.n + 1, f=dt.f + 1)
        configs.append(cfg(plus))
        has_minus = dt.f > 0 and dt.n > 1
        if has_minus:
            minus = dict(base_types)
            minus[name] = dt.with_(n=dt.n - 1, f=dt.f - 1)
            configs.append(cfg(minus))
        plan.append((name, dt.f, has_minus))

    outcomes = run_simulations(design_factory, configs, workers=workers,
                               cache=cache, journal=journal)
    base = outcomes[0]
    output = base.output
    base_sqnr = base.records[output].sqnr_db()
    entries = []
    idx = 1
    for name, base_f, has_minus in plan:
        sqnr_plus = outcomes[idx].records[output].sqnr_db()
        idx += 1
        if has_minus:
            sqnr_minus = outcomes[idx].records[output].sqnr_db()
            idx += 1
        else:
            sqnr_minus = base_sqnr
        entries.append(SignalSensitivity(name, base_f, base_sqnr, sqnr_plus,
                                         sqnr_minus))
    return SensitivityReport(output, base_sqnr, entries)

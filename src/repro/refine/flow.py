"""The iterative refinement flow (paper Figure 4).

Input: a floating-point design description plus a *partial type
definition* (typically the input quantization, known from the AD
converter / SNR scenario).  The flow then:

1. **MSB phase** — simulates with range monitoring (statistic-based and
   quasi-analytical in the same run) and applies the MSB rules.  Signals
   whose range propagation exploded get a ``range()`` annotation — taken
   from ``user_ranges`` when provided (the paper's knowledge-based
   ``b.range(-0.2, 0.2)``), derived from the simulated range otherwise —
   and the simulation reiterates until no explosion remains.
2. **LSB phase** — simulates the coupled float/fixed pair with the input
   types applied and derives every LSB from the produced-error
   statistics.  Signals whose error statistics diverge (sensitive
   feedback) get an ``error()`` annotation and the simulation reiterates.
3. **Type synthesis** — combines MSB position/mode and LSB position/mode
   into full :class:`DType` definitions.
4. **Verification** — re-simulates with every signal quantized; reports
   per-signal SQNR, overflow counts and the performance cost of the
   refinement versus the inputs-only-quantized baseline.

Designs implement the small :class:`Design` protocol; each phase builds
a *fresh* design instance so statistics and state never leak between
iterations (stimuli must be internally seeded for reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.dtype import DType
from repro.core.errors import DesignError, RefinementError
from repro.core.interval import Interval
from repro.obs import trace as obs_trace
from repro.parallel.runner import SimConfig, fingerprint, run_simulations
from repro.refine.lsbrules import LsbPolicy, decide_lsb, detect_divergence
from repro.refine.msbrules import MsbPolicy, decide_msb
from repro.refine.report import (format_lsb_table, format_msb_table,
                                 format_types_table)
from repro.robust.diagnostics import (DiagEvent, Diagnostics,
                                      absorb_guards, report)
from repro.signal.interval_tape import IntervalTape

__all__ = ["Design", "Annotations", "FlowConfig", "RefinementFlow",
           "MsbIteration", "LsbIteration", "PhaseResult",
           "VerificationResult", "RefinementResult"]


class Design:
    """Protocol for designs-under-refinement.

    Subclasses declare ``inputs`` (names of input signals) and optionally
    ``output`` (name of the primary output used for SQNR reporting), then
    implement :meth:`build` and :meth:`run`.  ``run`` may be called
    multiple times and must continue where it left off (the flow splits
    runs in half for the divergence growth test).
    """

    name = "design"
    inputs = ()
    output = None

    def build(self, ctx):
        raise NotImplementedError

    def run(self, ctx, n_samples):
        raise NotImplementedError


def expand_names(names, all_names):
    """Expand base names to array elements (``d`` -> ``d[0]``, ...).

    >>> sorted(expand_names({"d", "x"}, ["x", "d[0]", "d[1]", "y"]))
    ['d[0]', 'd[1]', 'x']
    >>> expand_names({"missing"}, ["x"])
    set()
    """
    out = set()
    for name in names:
        if name in all_names:
            out.add(name)
            continue
        prefix = name + "["
        matched = [n for n in all_names if n.startswith(prefix)]
        out.update(matched)
    return out


@dataclass
class Annotations:
    """Per-signal annotations applied after :meth:`Design.build`.

    Names may address whole arrays (``"d"`` covers ``d[0]``..``d[N-1]``).

    >>> from repro.core.dtype import DType
    >>> from repro.signal import DesignContext, Sig
    >>> with DesignContext("doc") as ctx:
    ...     y = Sig("y")
    ...     Annotations(dtypes={"y": DType("T", 8, 5)},
    ...                 ranges={"y": (-1, 1)}).apply(ctx)
    >>> y.dtype.spec()
    '<8,5,tc,sa,ro>'
    """

    dtypes: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def _targets(self, ctx, name):
        if name in ctx:
            return [ctx.get(name)]
        prefix = name + "["
        matches = [s for s in ctx.signals() if s.name.startswith(prefix)]
        if not matches:
            raise DesignError("annotation target %r matches no signal"
                              % name)
        return matches

    def apply(self, ctx):
        for name, dt in self.dtypes.items():
            for s in self._targets(ctx, name):
                s.set_dtype(dt)
        for name, bounds in self.ranges.items():
            lo, hi = bounds
            for s in self._targets(ctx, name):
                s.range(lo, hi)
        for name, q in self.errors.items():
            for s in self._targets(ctx, name):
                s.error_spec(q)


@dataclass
class FlowConfig:
    """Knobs of the refinement flow."""

    n_samples: int = 4000
    max_msb_iterations: int = 4
    max_lsb_iterations: int = 4
    msb_policy: MsbPolicy = field(default_factory=MsbPolicy)
    lsb_policy: LsbPolicy = field(default_factory=LsbPolicy)
    #: derive range annotations from the simulated range when the user
    #: did not provide one for an exploded signal.
    auto_range: bool = True
    auto_range_margin: float = 2.0
    #: derive error annotations automatically on divergence.
    auto_error: bool = True
    auto_error_extra_bits: int = 2
    seed: int = 1234
    #: non-finite-value guard applied to every flow simulation ("raise",
    #: "record" or "sanitize"); see repro.robust.guards.
    guard_action: str = "raise"
    guard_replacement: str = "hold"
    #: simulation watchdog budgets (None disables the respective check).
    max_watchdog_cycles: int = None
    max_wall_seconds: float = None
    #: escalation ladder for run(strict=False); None uses the default
    #: repro.robust.retry.EscalationPolicy.
    escalation: object = None
    #: run the static linter (repro.lint) before the MSB phase and surface
    #: its findings as "lint"-category diagnostics of run().
    lint_design: bool = True
    #: samples to run under trace for the lint pass.
    lint_samples: int = 32
    #: discharge bounded proofs (repro.verify) before the MSB phase and
    #: surface the verdicts as DG210-DG212 diagnostics of run().  Off by
    #: default: proofs need declared input ranges and typed state, and
    #: cost real solver/enumeration time.
    verify_design: bool = False
    #: unrolling horizon for the verify pre-flight.
    verify_k: int = 3
    #: proof backend for the verify pre-flight ("auto", "enumeration",
    #: "z3"); see repro.verify.backends.resolve_backend.
    verify_backend: str = "auto"


@dataclass
class MsbIteration:
    index: int
    records: dict
    decisions: dict
    exploded: list
    added_ranges: dict

    def table(self):
        return format_msb_table(self.records, self.decisions,
                                title="MSB analysis — iteration %d"
                                      % self.index)


@dataclass
class LsbIteration:
    index: int
    records: dict
    decisions: dict
    divergent: dict
    added_errors: dict

    def table(self):
        return format_lsb_table(self.records, self.decisions,
                                title="LSB analysis — iteration %d"
                                      % self.index)


@dataclass
class PhaseResult:
    iterations: list
    annotations: dict     # accumulated range (MSB) or error (LSB) notes
    resolved: bool

    @property
    def n_iterations(self):
        return len(self.iterations)

    @property
    def final(self):
        return self.iterations[-1]


@dataclass
class VerificationResult:
    """Final simulation with the synthesized types (Fig. 4 "check
    performance").  It is a statistics-only job, so ``records`` carry
    SQNR, error statistics and overflow counts but no ``prop``."""

    records: dict
    output: str
    output_sqnr_db: float
    total_overflows: int
    overflow_signals: dict
    #: modulo wraps of wrap-mode types (intended behaviour, not errors)
    wrap_events: dict = field(default_factory=dict)


@dataclass
class RefinementResult:
    msb: PhaseResult
    lsb: PhaseResult
    types: dict
    verification: VerificationResult
    #: inputs-only quantization (pre-refinement), input ranges applied;
    #: without user errors on given signals it is msb-iter-1's job.
    baseline_sqnr_db: float
    #: structured per-run events (repro.robust.diagnostics.Diagnostics);
    #: populated by run(), None when phases were driven by hand.
    diagnostics: object = None
    #: conservative fallback types synthesized in graceful mode (subset
    #: of ``types``), keyed by signal name.
    fallbacks: dict = field(default_factory=dict)

    def types_table(self):
        return format_types_table(self.types)

    def total_bits(self):
        return sum(dt.n for dt in self.types.values())

    def summary(self):
        lines = [
            "MSB phase: %d iteration(s), %d range annotation(s)%s"
            % (self.msb.n_iterations, len(self.msb.annotations),
               "" if self.msb.resolved else " [UNRESOLVED]"),
            "LSB phase: %d iteration(s), %d error annotation(s)%s"
            % (self.lsb.n_iterations, len(self.lsb.annotations),
               "" if self.lsb.resolved else " [UNRESOLVED]"),
            "Synthesized %d fixed-point types, %d bits total"
            % (len(self.types), self.total_bits()),
        ]
        if self.fallbacks:
            lines.append("Conservative fallback types (LOW CONFIDENCE): %s"
                         % ", ".join(sorted(self.fallbacks)))
        v = self.verification
        if v.output:
            lines.append("Output %r SQNR: %.2f dB (inputs-only baseline: "
                         "%.2f dB)" % (v.output, v.output_sqnr_db,
                                       self.baseline_sqnr_db))
        lines.append("Verification overflows: %d" % v.total_overflows)
        if self.diagnostics:
            lines.append(self.diagnostics.summary())
        return "\n".join(lines)


class RefinementFlow:
    """Drives a :class:`Design` through the full refinement flow."""

    def __init__(self, design_factory, input_types=None, input_ranges=None,
                 user_ranges=None, user_errors=None, preset_types=None,
                 config=None):
        self.factory = design_factory
        self.input_types = dict(input_types or {})
        self.input_ranges = dict(input_ranges or {})
        self.user_ranges = dict(user_ranges or {})
        self.user_errors = dict(user_errors or {})
        self.preset_types = dict(preset_types or {})
        self.cfg = config if config is not None else FlowConfig()
        #: outcome store and interval tapes of the run() in progress
        #: (None outside run()).
        self._replay = None

    # -- simulation helper -------------------------------------------------

    def _simulate(self, annotations, label, config=None):
        """One monitored simulation, as a one-job :func:`run_simulations`
        batch; returns its :class:`~repro.parallel.SimOutcome`.

        Every flow simulation takes the error-statistics snapshot at
        ``n_samples // 2`` (the divergence growth test), so an LSB
        iteration that repeats the last MSB iteration's annotations is
        the same job, served from the run's store.  Inside ``run()`` an
        MSB-phase job records an interval tape when a later MSB
        iteration may follow, and a job that differs from a recorded one
        only in its ranges is replayed from that tape instead of
        simulated (:class:`_RangeReplay`).  A ``run(journal=)`` journals
        every job; the runner reports its recovery events (journal
        replay, a degraded journal) to the run's collector.

        The jobs whose intervals nothing reads -- the verification job
        and every LSB job that carries ``error()`` annotations -- run
        statistics-only (``SimConfig(monitors="stats")``): their records
        carry no ``prop``.  Every other job propagates ranges; an LSB
        job without error annotations is the last MSB iteration's job,
        served from the run's store.
        """
        cfg = config if config is not None else self.cfg
        stats_only = label == "verify" or (
            bool(annotations.errors) and label.startswith("lsb-"))
        job = SimConfig(label=label, dtypes=annotations.dtypes,
                        ranges=annotations.ranges, errors=annotations.errors,
                        n_samples=cfg.n_samples, seed=cfg.seed,
                        guard_action=cfg.guard_action,
                        guard_replacement=cfg.guard_replacement,
                        snapshot_errors=True,
                        max_watchdog_cycles=cfg.max_watchdog_cycles,
                        max_wall_seconds=cfg.max_wall_seconds,
                        monitors="stats" if stats_only else "all")
        replay = self._replay
        store = None if replay is None else replay.store
        hits = 0 if store is None else store.hits - store.replays
        with obs_trace.span("refine.simulate", label=label,
                            samples=cfg.n_samples) as sp:
            outcome = None if replay is None else replay.serve(job, sp)
            if outcome is None:
                if (replay is not None and not stats_only
                        and self._msb_job(annotations, cfg)):
                    job = replay.with_tape(job)
                outcome, = run_simulations(
                    self.factory, [job], workers=1, journal=store)
                if replay is not None:
                    replay.remember(job, outcome)
            sp.set(signals=len(outcome.records),
                   guard_trips=outcome.guard_trips,
                   overflows=sum(r.overflow_count
                                 for r in outcome.records.values()),
                   cached=store is not None
                   and store.hits - store.replays > hits)
        return outcome

    def _msb_job(self, annotations, cfg):
        """True for the MSB phase's job (the baseline's, without user
        errors) when a second MSB iteration can follow it: the user gave
        range knowledge, or auto-ranging is on and an explosion is
        predicted (:attr:`_RangeReplay.explosion_predicted`)."""
        return ((bool(self.user_ranges)
                 or (cfg.auto_range and self._replay.explosion_predicted))
                and not annotations.errors
                and annotations.dtypes == {**self.input_types,
                                           **self.preset_types})

    def _fixed_names(self, all_names):
        """Signals whose types are user-given (never refined)."""
        given = set(self.input_types) | set(self.preset_types)
        return expand_names(given, all_names)

    # -- MSB phase ------------------------------------------------------------

    def run_msb_phase(self, config=None):
        cfg = config if config is not None else self.cfg
        ranges = dict(self.input_ranges)
        iterations = []
        resolved = False
        phase_span = obs_trace.span("refine.msb_phase",
                                    max_iterations=cfg.max_msb_iterations)
        with phase_span:
            for it in range(1, cfg.max_msb_iterations + 1):
                resolved, stop = self._msb_iteration(
                    it, cfg, ranges, iterations)
                if resolved or stop:
                    break
            phase_span.set(iterations=len(iterations), resolved=resolved)
        accumulated = {k: v for k, v in ranges.items()
                       if k not in self.input_ranges}
        return PhaseResult(iterations, accumulated, resolved)

    def _msb_iteration(self, it, cfg, ranges, iterations):
        """One MSB iteration; returns ``(resolved, stop)``."""
        with obs_trace.span("refine.msb.iteration", index=it) as sp:
            ann = Annotations(
                dtypes={**self.input_types, **self.preset_types},
                ranges=ranges)
            label = "msb-iter-%d" % it
            outcome = self._simulate(ann, label, config=cfg)
            absorb_guards(outcome, label)
            records = outcome.records
            decisions = {name: decide_msb(rec, cfg.msb_policy)
                         for name, rec in records.items()}
            exploded = [name for name, d in decisions.items()
                        if d.needs_range_annotation]
            added = {}
            if exploded:
                # Knowledge-based annotations first (the paper's way) ...
                for name in exploded:
                    base = _base_name(name)
                    if name in self.user_ranges:
                        added[name] = self.user_ranges[name]
                    elif base in self.user_ranges and base not in added:
                        added[base] = self.user_ranges[base]
                # ... automatic fallback only when no knowledge applies.
                if not added and cfg.auto_range:
                    for name in exploded:
                        rec = records[name]
                        auto = _auto_range(rec, cfg.auto_range_margin)
                        if auto is None:
                            # A never-observed signal carries no range
                            # evidence: inventing one would silently bless
                            # an arbitrary (-1, 1) guess.  Leave it
                            # unresolved and say so.
                            report("auto-range", "warning",
                                   "exploded but never observed in "
                                   "simulation; refusing to invent a "
                                   "range — annotate it (user_ranges) or "
                                   "rely on graceful fallback",
                                   signal=name, iteration=it)
                            continue
                        if rec.observed and rec.stat_min == rec.stat_max:
                            report("auto-range", "warning",
                                   "auto range %r derived from a constant "
                                   "simulated value %.4g — LOW CONFIDENCE"
                                   % (auto, rec.stat_min), signal=name,
                                   iteration=it)
                        added[name] = auto
            iterations.append(MsbIteration(it, records, decisions,
                                           exploded, dict(added)))
            n_resolved = sum(1 for d in decisions.values()
                             if not d.needs_range_annotation)
            sp.set(exploded=len(exploded), annotated=len(added))
            sp.event("refine.progress", phase="msb", iteration=it,
                     signals=len(decisions), resolved=n_resolved,
                     exploding=",".join(sorted(exploded)),
                     added=",".join(sorted(added)))
            if not exploded:
                return True, False
            if not added:
                return False, True  # no way to make progress
            ranges.update(added)
        return False, False

    # -- LSB phase --------------------------------------------------------------

    def run_lsb_phase(self, msb_ranges=None, config=None):
        cfg = config if config is not None else self.cfg
        ranges = dict(self.input_ranges)
        ranges.update(msb_ranges or {})
        errors = {}
        iterations = []
        resolved = False
        phase_span = obs_trace.span("refine.lsb_phase",
                                    max_iterations=cfg.max_lsb_iterations)
        with phase_span:
            for it in range(1, cfg.max_lsb_iterations + 1):
                resolved, stop = self._lsb_iteration(
                    it, cfg, ranges, errors, iterations)
                if resolved or stop:
                    break
            phase_span.set(iterations=len(iterations), resolved=resolved)
        return PhaseResult(iterations, errors, resolved)

    def _lsb_iteration(self, it, cfg, ranges, errors, iterations):
        """One LSB iteration; returns ``(resolved, stop)``."""
        with obs_trace.span("refine.lsb.iteration", index=it) as sp:
            ann = Annotations(
                dtypes={**self.input_types, **self.preset_types},
                ranges=ranges, errors=errors)
            label = "lsb-iter-%d" % it
            outcome = self._simulate(ann, label, config=cfg)
            absorb_guards(outcome, label)
            records, snap = outcome.records, outcome.error_snapshot
            # Inputs cannot diverge (their error IS the input
            # quantization), but preset-typed signals can — e.g. a
            # wrap-typed NCO phase whose float reference runs off.
            input_names = expand_names(set(self.input_types),
                                       records.keys())
            divergent = {}
            for name, rec in records.items():
                if name in input_names:
                    continue
                is_div, reason = detect_divergence(rec, cfg.lsb_policy,
                                                   snap.get(name))
                if is_div:
                    divergent[name] = reason
            decisions = {
                name: decide_lsb(rec, cfg.lsb_policy,
                                 divergent=(name in divergent))
                for name, rec in records.items()}
            added = {}
            if divergent:
                for name in divergent:
                    base = _base_name(name)
                    if name in self.user_errors:
                        added[name] = self.user_errors[name]
                    elif base in self.user_errors and base not in added:
                        added[base] = self.user_errors[base]
                    elif cfg.auto_error:
                        added[name] = self._auto_error_q(cfg)
            iterations.append(LsbIteration(it, records, decisions,
                                           dict(divergent), dict(added)))
            out = outcome.output
            sqnr = (records[out].sqnr_db()
                    if out and out in records else float("nan"))
            sp.set(divergent=len(divergent), annotated=len(added))
            sp.event("refine.progress", phase="lsb", iteration=it,
                     signals=len(decisions), divergent=len(divergent),
                     diverging=",".join(sorted(divergent)),
                     sqnr_db=sqnr)
            if not divergent:
                return True, False
            if not added:
                return False, True
            errors.update(added)
        return False, False

    def _auto_error_q(self, config=None):
        cfg = config if config is not None else self.cfg
        f_ref = max((dt.f for dt in self.input_types.values()), default=8)
        return 2.0 ** -(f_ref + cfg.auto_error_extra_bits)

    # -- synthesis ----------------------------------------------------------------

    def synthesize_types(self, msb_phase, lsb_phase, on_unresolved=None):
        """Combine MSB and LSB decisions into full fixed-point types.

        ``on_unresolved(name, msb_decision, lsb_decision, record)`` is
        consulted for signals whose MSB stayed unresolved (explosion or
        unbounded); it may return a fallback :class:`DType` (or ``None``
        to leave the signal floating-point).  Without the hook an
        unresolved signal raises :class:`RefinementError` — the strict
        behaviour.
        """
        cfg = self.cfg
        msb_final = msb_phase.final.decisions
        lsb_final = lsb_phase.final.decisions
        msb_records = msb_phase.final.records
        all_names = list(lsb_final.keys())
        fixed = self._fixed_names(all_names)
        types = {}
        for name in all_names:
            if name in fixed:
                continue
            mdec = msb_final.get(name)
            ldec = lsb_final.get(name)
            if mdec is None or (mdec.msb is None and
                                (ldec is None or ldec.lsb is None)):
                continue  # never exercised: stays floating-point
            unresolved = (mdec.case == "explosion"
                          or isinstance(mdec.msb, float))
            if unresolved:
                if on_unresolved is not None:
                    dt = on_unresolved(name, mdec, ldec,
                                       msb_records.get(name))
                    if dt is not None:
                        types[name] = dt
                    continue
                if mdec.case == "explosion":
                    raise RefinementError(
                        "signal %r has an unresolved MSB explosion; add a "
                        "range() annotation (user_ranges) or enable "
                        "auto_range and rerun the MSB phase" % name)
                raise RefinementError(
                    "signal %r still has an unbounded MSB; rerun the MSB "
                    "phase with a range() annotation" % name)
            msb = mdec.msb if mdec.msb is not None else 0
            f = ldec.lsb if (ldec is not None and ldec.lsb is not None) \
                else cfg.lsb_policy.max_frac_bits
            f = max(f, -msb)            # keep the word at least 1 bit
            lsbspec = ldec.mode if ldec is not None else "round"
            types[name] = DType("%s_t" % name, msb + f + 1, f, "tc",
                                mdec.mode, lsbspec)
        return types

    # -- verification ------------------------------------------------------------

    def verify(self, types, lsb_phase=None):
        errors = dict(lsb_phase.annotations) if lsb_phase is not None else {}
        ann = Annotations(
            dtypes={**types, **self.input_types, **self.preset_types},
            errors=errors)
        with obs_trace.span("refine.verify", types=len(types)) as sp:
            outcome = self._simulate(ann, "verify")
            absorb_guards(outcome, "verify")
            records, output = outcome.records, outcome.output
            sqnr = records[output].sqnr_db() if output else float("nan")
            overflow_signals = {}
            wrap_events = {}
            for name, rec in records.items():
                if not rec.overflow_count:
                    continue
                if rec.dtype is not None and rec.dtype.msbspec == "wrap":
                    # Modulo arithmetic wrapping through the type is the
                    # intended behaviour, not an overflow fault.
                    wrap_events[name] = rec.overflow_count
                else:
                    overflow_signals[name] = rec.overflow_count
            sp.set(sqnr_db=sqnr,
                   overflows=sum(overflow_signals.values()))
        return VerificationResult(records, output, sqnr,
                                  sum(overflow_signals.values()),
                                  overflow_signals, wrap_events)

    # -- baseline -----------------------------------------------------------------

    def baseline_sqnr(self):
        """Output SQNR with only the given types applied (pre-refinement).

        Runs an inputs-only simulation: input and preset types and the
        input ranges are applied, plus the *user-given* ``error()``
        annotations of those same signals (all part of the a-priori
        partial type definition) — but none of the annotations the flow
        derived.  Ranges only seed interval propagation, so they leave
        the SQNR unchanged; with them, the job is the first MSB
        iteration's whenever no such user errors apply, and ``run()``
        serves that iteration from its outcome store.
        """
        given = expand_names(set(self.input_types) | set(self.preset_types),
                             set(self.user_errors))
        errors = {k: v for k, v in self.user_errors.items() if k in given}
        ann = Annotations(
            dtypes={**self.input_types, **self.preset_types},
            ranges=self.input_ranges, errors=errors)
        with obs_trace.span("refine.baseline") as sp:
            outcome = self._simulate(ann, "baseline")
            absorb_guards(outcome, "baseline")
            records, output = outcome.records, outcome.output
            if not output or output not in records:
                report("baseline", "info", "design declares no output "
                       "signal; baseline SQNR unavailable")
                return float("nan")
            sqnr = records[output].sqnr_db()
            sp.set(sqnr_db=sqnr)
        return sqnr

    # -- static analysis ----------------------------------------------------------

    def lint(self, n_samples=None, config=None):
        """Static pre-flight check: lint the recorded design structure.

        Applies the same a-priori knowledge the flow itself starts from
        (input types, preset types, input ranges and the user's
        ``range()`` annotations), records a short run and returns a
        :class:`~repro.lint.core.LintReport`.  An FX001 finding here
        predicts the MSB explosion the simulation phases would hit —
        without running them.
        """
        from repro.lint.core import run_lint
        from repro.sfg import record_design
        cfg = self.cfg
        n = n_samples if n_samples is not None else cfg.lint_samples

        def annotate(ctx):
            known = {s.name for s in ctx.signals()}
            ranges = {k: v for k, v in self.user_ranges.items()
                      if k in known or any(s.startswith(k + "[")
                                           for s in known)}
            Annotations(dtypes={**self.input_types, **self.preset_types},
                        ranges=ranges).apply(ctx)

        sfg, design = record_design(self.factory, n, annotate, seed=cfg.seed)
        return run_lint(sfg, input_ranges=self.input_ranges,
                        design_name=getattr(design, "name", "design"),
                        config=config)

    def _report_lint(self):
        """Run :meth:`lint` defensively; findings become diagnostics."""
        try:
            findings = self.lint()
        except Exception as exc:  # lint must never break the flow
            report("lint", "warning", "static lint pass failed: %s" % exc)
            return
        for f in findings:
            report("lint", f.severity, f.describe(), signal=f.signal,
                   rule=f.rule_id)

    def verify_static(self, k=None, backend=None, budget=None,
                      properties=("no-overflow", "no-limit-cycle")):
        """Static pre-flight proofs: bounded model checking of the design.

        Traces the design with the flow's a-priori types (input types
        plus preset types) and discharges the requested properties
        through :mod:`repro.verify`: overflow freedom over the declared
        input ranges and zero-input limit-cycle freedom.  Returns a
        :class:`~repro.verify.verdict.VerifyReport`; honest ``UNKNOWN``
        verdicts (missing input ranges, untyped state, exhausted
        budget) are part of the report, never exceptions.
        """
        from repro.verify import (Envelope, VerifyReport,
                                  prove_no_limit_cycle, prove_no_overflow,
                                  trace_design)
        from repro.verify.verdict import UNKNOWN, Verdict
        cfg = self.cfg
        k = cfg.verify_k if k is None else int(k)
        backend = backend or cfg.verify_backend
        dtypes = {**self.input_types, **self.preset_types}
        traced = trace_design(self.factory, dtypes=dtypes)
        verdicts = []
        if "no-overflow" in properties:
            missing = [n for n in traced.inputs
                       if n not in self.input_ranges]
            if missing:
                verdicts.append(Verdict(
                    "no-overflow", UNKNOWN, traced.name, k, backend,
                    reason="no input range declared for %s; overflow "
                           "freedom needs a full envelope"
                           % ", ".join(sorted(missing))))
            else:
                envelope = Envelope({n: self.input_ranges[n]
                                     for n in traced.inputs})
                verdicts.append(prove_no_overflow(
                    traced, envelope, k, backend=backend, budget=budget,
                    dtypes=dtypes))
        if "no-limit-cycle" in properties:
            verdicts.append(prove_no_limit_cycle(
                traced, k, backend=backend, budget=budget,
                dtypes=dtypes))
        return VerifyReport(verdicts, design_name=traced.name)

    def _report_verify(self):
        """Run :meth:`verify_static` defensively; verdicts become
        DG210-DG212 diagnostics (via their category — never ``rule``,
        so the DG codes win in :class:`DiagEvent.code`)."""
        try:
            verdicts = self.verify_static()
        except Exception as exc:  # proofs must never break the flow
            report("verify-unknown", "warning",
                   "static verify pass failed: %s" % exc)
            return
        for v in verdicts:
            cex = v.counterexample
            report(v.category, v.severity, v.describe(),
                   signal=None if cex is None else cex.signal,
                   property=v.property, k=v.k, backend=v.backend)

    # -- one-shot -----------------------------------------------------------------

    def run(self, strict=True, journal=None):
        """Full flow: MSB phase, LSB phase, synthesis, verification.

        With ``strict=True`` (default) an unresolved phase dead-ends in
        :class:`RefinementError`, as the paper's manual flow would.  With
        ``strict=False`` the flow never raises mid-flow: unresolved
        phases are retried through the escalation ladder
        (:mod:`repro.robust.retry`), signals that still resolve to
        nothing receive conservative saturating fallback types, and the
        returned result carries a populated
        :class:`~repro.robust.diagnostics.Diagnostics`: the collector the
        run opens around its body, so it holds every diagnostic reported
        during the run.

        Every simulation of the run goes through one outcome store, so a
        stage that repeats an earlier stage's job (the first LSB
        iteration after a resolved MSB phase) is served from it.  The
        store is ``journal`` when given, otherwise a path-less
        :class:`~repro.robust.recovery.Journal` created for this call:
        nothing is then shared between runs.

        ``journal`` (a :class:`repro.robust.recovery.Journal` or a path)
        makes the flow *resumable*, as it does every other fan-out
        entry: each completed simulation, replayed ones included, is
        appended as it finishes, and a re-run after a crash serves those
        jobs from disk and simulates only the missing ones, to the same
        result.  Keys are job fingerprints, so a journal written by a
        different setup (other factory, config or annotations) replays
        nothing.  The run reports its journal replays as one DG203
        event with their total.
        """
        from repro.robust.recovery import Journal, opened
        run_span = obs_trace.span(
            "refine.run", strict=strict,
            design=getattr(self.factory, "__name__", str(self.factory)))
        with opened(journal) as store, run_span, Diagnostics() as diag:
            self._replay = _RangeReplay(
                self.factory, Journal() if store is None else store)
            try:
                if self.cfg.lint_design:
                    self._report_lint()
                if self.cfg.verify_design:
                    self._report_verify()
                self._replay.explosion_predicted = _explosion_predicted(
                    self.cfg, diag)
                baseline = self.baseline_sqnr()
                if strict:
                    msb = self.run_msb_phase()
                    lsb = self.run_lsb_phase(msb.annotations)
                    types = self.synthesize_types(msb, lsb)
                    fallbacks = {}
                else:
                    from repro.robust.retry import run_graceful

                    msb, lsb, types, fallbacks = run_graceful(
                        self, self.cfg.escalation)
                verification = self.verify(types, lsb)
                if verification.total_overflows:
                    report("verification", "warning",
                           "%d overflow(s) on non-wrap types during "
                           "verification" % verification.total_overflows,
                           overflows=verification.total_overflows)
                _one_journal_event(diag, self._replay.store)
                run_span.set(types=len(types), fallbacks=len(fallbacks),
                             sqnr_db=verification.output_sqnr_db,
                             diagnostics=len(diag))
            finally:
                self._replay = None
        return RefinementResult(msb, lsb, types, verification, baseline,
                                diagnostics=diag, fallbacks=fallbacks)


class _RangeReplay:
    """Range-only re-simulations of one ``run()``, served by replay.

    A job that differs from an executed, taped job only in ``ranges``
    runs the same per-tick sequence of operations (the fixed-point
    values steer control flow) with the same value side; only ``prop``
    and ``forced_range`` of its records differ.  Its outcome is the taped
    job's with those two fields replayed
    (:meth:`~repro.signal.interval_tape.IntervalTape.replay`), stored in
    the run's outcome store under the job's own fingerprint.  Whenever
    the tape cannot be trusted the job is simulated in full and a
    ``range-replay`` diagnostic (DG219) says why.
    """

    def __init__(self, factory, store):
        self.factory = factory
        #: the run's outcome store (a :class:`Journal`, maybe path-less).
        self.store = store
        #: False once the lint pre-flight ran and found no range
        #: explosion (FX001): no auto-range annotation, hence no second
        #: MSB iteration, will follow the first.
        self.explosion_predicted = True
        #: family key -> (outcome, tape) of the job that recorded it.
        self._taped = {}

    def _key(self, job):
        return fingerprint(self.factory, job)

    def _family(self, job):
        return self._key(replace(job, ranges={}))

    def with_tape(self, job):
        """``job`` recording a tape, unless its family has one."""
        if self._family(job) in self._taped:
            return job
        return replace(job, tape=IntervalTape())

    def remember(self, job, outcome):
        if job.tape is not None:
            self._taped[self._family(job)] = (outcome, job.tape)

    def serve(self, job, span):
        """``job``'s outcome replayed from its family's tape, or None."""
        taped = self._taped.get(self._family(job))
        if taped is None:
            return None
        key = self._key(job)
        if key in self.store:
            return None
        outcome, tape = taped
        if not tape.recorded:
            # A resumed run that crashed between the taped job and this
            # one: the journal served the taped job, so nothing ran.
            reason = ("the taped job was served from the journal, so its "
                      "tape recorded nothing")
        else:
            reason = tape.reason
        if reason is None:
            try:
                outcome = _replayed(outcome, tape, job)
            except Exception as exc:
                reason = "the interval replay raised %s: %s" % (
                    type(exc).__name__, exc)
        if reason is not None:
            report("range-replay", "info",
                   "%s simulated in full, not replayed: %s"
                   % (job.label, reason), label=job.label, reason=reason)
            return None
        self.store.append(key, outcome)
        span.set(replayed=True, replay_ticks=tape.executed_ticks,
                 tape_ticks=tape.n_ticks, tape_shapes=tape.n_shapes)
        return outcome


def _one_journal_event(diag, journal):
    """Fold a run's journal-replay events (DG203) into one, in place.

    Every flow simulation is its own one-job batch, so the runner
    reports each journal-served job on its own; the run's collector
    holds them once, where the first was, with the total replayed count
    (the trace and any enclosing collector keep the per-job events).
    """
    events = diag.by_category("journal")
    if not events:
        return
    n = sum(e.data["replayed"] for e in events)
    merged = DiagEvent(
        "journal", "info", None,
        "replayed %d completed simulation(s) of the run from journal %s"
        % (n, journal.path), {"replayed": n})
    diag.events = [merged if e is events[0] else e for e in diag.events
                   if e.category != "journal" or e is events[0]]


def _explosion_predicted(cfg, diag):
    """Whether the lint pre-flight leaves a range explosion possible.

    False only when it ran (``lint_design``), did not fail, and reported
    no FX001 (feedback cycle whose propagated range widens to infinity).
    """
    if not cfg.lint_design:
        return True
    findings = diag.by_category("lint")
    if any("rule" not in e.data for e in findings):   # the pass failed
        return True
    return any(e.data["rule"] == "FX001" for e in findings)


def _replayed(outcome, tape, job):
    """``outcome`` with the intervals of ``job``'s ranges replayed."""
    forced = {}
    targets = Annotations()._targets
    for name, (lo, hi) in job.ranges.items():
        for sig in targets(tape.ctx, name):
            forced[sig] = Interval(lo, hi)
    ranges = tape.replay(forced)
    records = {}
    for name, rec in outcome.records.items():
        prop, forced_range = ranges[name]
        records[name] = replace(rec, prop=prop, forced_range=forced_range)
    return replace(outcome, label=job.label, records=records, obs_events=())


def _base_name(name):
    """``d[3]`` -> ``d`` (array element to array base)."""
    return name.split("[", 1)[0]


def _auto_range(record, margin):
    """Symmetric range annotation derived from the simulated range.

    Returns ``None`` for a signal that was never assigned: there is no
    evidence to derive a range from, and inventing one would silently
    bless an arbitrary guess (the caller records a diagnostic instead).
    A signal observed only at zero still gets the historic ``(-1, 1)``
    fallback, flagged low-confidence by the caller.
    """
    if not record.observed:
        return None
    if record.stat_min == record.stat_max == 0.0:
        return (-1.0, 1.0)
    a = max(abs(record.stat_min), abs(record.stat_max)) * margin
    return (-a, a)

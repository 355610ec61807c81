"""Fault-injection campaigns against a refined fixed-point design.

A refinement result is only trustworthy if the synthesized types keep
working when the world misbehaves.  The campaign takes a design factory
plus the synthesized type assignment and re-simulates once per fault,
perturbing the quantized implementation while the float reference stays
clean — so each signal's produced-error monitor measures the fault's
impact directly and the output SQNR degradation quantifies it.

Fault models (the SMT-based verification line of work stresses designs
the same way, just symbolically):

* :class:`BitFlip` — transient or periodic single-bit upset in the
  quantized word of one signal (SEU-style storage fault);
* :class:`StuckAt` — a signal's implementation output frozen at a value;
* :class:`InputScale` — incoming amplitude scaled (headroom stress);
* :class:`NanInject` — a NaN pushed into a signal to exercise the guard
  layer end to end;
* :class:`ChannelDrop` — values lost in a processor-to-processor FIFO
  (engine-based designs exposing the channel as an attribute);
* :class:`SeedPerturb` — the whole run repeated under a different
  stimulus seed (the refined types must not be overfit to one seed);
* :class:`WorkerCrash` / :class:`WorkerHang` — *infrastructure* faults:
  the simulation process dies mid-run (``os._exit``) or stops making
  progress.  They exercise the crash-tolerance layer itself — the
  campaign must complete with the poison job quarantined / deadlined
  and every other fault still measured (see ``docs/robustness.md``).

:func:`standard_faults` derives a default campaign from a type
assignment; :class:`FaultCampaign` executes any fault list and returns a
:class:`CampaignResult` with per-fault SQNR degradation, overflow counts
and guard trips.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from repro.core import word
from repro.core.errors import DesignError, SimulationError
from repro.obs import trace as obs_trace
from repro.parallel.runner import SimConfig, in_worker, run_simulations
from repro.refine.report import format_table

__all__ = ["Fault", "BitFlip", "StuckAt", "InputScale", "NanInject",
           "ChannelDrop", "SeedPerturb", "WorkerCrash", "WorkerHang",
           "FaultOutcome", "CampaignResult", "FaultCampaign",
           "standard_faults"]


class Fault:
    """Base class of all fault models.

    ``n_fired`` counts how often the fault actually perturbed the run
    (``None`` for whole-run faults like :class:`SeedPerturb`).  A fault
    that never fired — e.g. a :class:`BitFlip` on a signal only assigned
    during ``build()``, before hooks are installed — is flagged
    ``triggered=False`` in its :class:`FaultOutcome` so a clean-looking
    campaign row cannot hide an unexercised fault.
    """

    kind = "fault"
    n_fired = None

    def describe(self):
        raise NotImplementedError

    def install(self, ctx, design):
        """Hook the fault into a freshly built design (override)."""

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.describe())


@dataclass(repr=False)
class BitFlip(Fault):
    """Flip bit ``bit`` (LSB = 0) of ``signal``'s quantized word.

    Fires on the ``at``-th assignment; with ``every`` set it re-fires
    periodically from there on.  The flipped code wraps within the
    signal's word, exactly like a storage upset in hardware.
    """

    signal: str
    bit: int = 0
    at: int = 100
    every: object = None

    kind = "bit-flip"

    def describe(self):
        rate = "once" if self.every is None else "every %d" % self.every
        return "bit-flip %s bit %d @%d (%s)" % (self.signal, self.bit,
                                                self.at, rate)

    def install(self, ctx, design):
        sig = ctx.get(self.signal)
        dt = sig.dtype
        if dt is None:
            raise DesignError("bit flip on %r needs a fixed-point type"
                              % self.signal)
        if not 0 <= self.bit < dt.n:
            raise DesignError("bit %d outside the %d-bit word of %r"
                              % (self.bit, dt.n, self.signal))
        self.n_fired = 0
        state = {"n": 0}
        # Hoist the per-call constants out of the hot hook.
        scale = 2.0 ** dt.f
        inv = 2.0 ** -dt.f
        flip = 1 << self.bit
        n_bits = dt.n
        signed = dt.signed

        def hook(s, qfx):
            i = state["n"]
            state["n"] += 1
            fire = (i == self.at if self.every is None
                    else i >= self.at and (i - self.at) % self.every == 0)
            if not fire:
                return qfx
            self.n_fired += 1
            code = int(round(qfx * scale)) ^ flip
            code = word.wrap_code(code, n_bits, signed)
            return code * inv

        sig.fault_post(hook)


@dataclass(repr=False)
class StuckAt(Fault):
    """Freeze ``signal``'s implementation value from one assignment on.

    The float reference keeps computing the true values, so the SQNR
    collapse measures how catastrophic the stuck node is.
    """

    signal: str
    value: float = 0.0
    from_assign: int = 0

    kind = "stuck-at"

    def describe(self):
        return "stuck-at %s=%g from #%d" % (self.signal, self.value,
                                            self.from_assign)

    def install(self, ctx, design):
        sig = ctx.get(self.signal)
        self.n_fired = 0
        state = {"n": 0}

        def hook(s, qfx):
            i = state["n"]
            state["n"] += 1
            if i >= self.from_assign:
                self.n_fired += 1
                return self.value
            return qfx

        sig.fault_post(hook)


@dataclass(repr=False)
class InputScale(Fault):
    """Scale every value arriving at ``signal`` by ``factor``.

    Both the implementation and the reference see the scaled value: the
    fault stresses range headroom (overflow counts), not precision.
    """

    signal: str
    factor: float = 2.0

    kind = "input-scale"

    def describe(self):
        return "input-scale %s x%g" % (self.signal, self.factor)

    def install(self, ctx, design):
        sig = ctx.get(self.signal)
        self.n_fired = 0

        def hook(s, fx, fl):
            self.n_fired += 1
            return fx * self.factor, fl * self.factor

        sig.fault_pre(hook)


@dataclass(repr=False)
class NanInject(Fault):
    """Push a NaN into ``signal`` on the ``at``-th assignment.

    Exercises the guard layer end to end: under a ``record`` guard the
    run completes with a logged trip, under ``raise`` it aborts (the
    campaign reports the abort as the fault outcome).
    """

    signal: str
    at: int = 50

    kind = "nan-inject"

    def describe(self):
        return "nan-inject %s @%d" % (self.signal, self.at)

    def install(self, ctx, design):
        sig = ctx.get(self.signal)
        self.n_fired = 0
        state = {"n": 0}

        def hook(s, fx, fl):
            i = state["n"]
            state["n"] += 1
            if i == self.at:
                self.n_fired += 1
                return math.nan, fl
            return fx, fl

        sig.fault_pre(hook)


@dataclass(repr=False)
class ChannelDrop(Fault):
    """Drop every ``every``-th value put into a design's channel.

    ``attr`` names an attribute of the design object holding the
    :class:`~repro.sim.channel.Channel` (engine-based designs).
    """

    attr: str
    every: int = 10

    kind = "channel-drop"

    def describe(self):
        return "channel-drop %s 1/%d" % (self.attr, self.every)

    def install(self, ctx, design):
        from repro.sim.channel import DROP
        chan = getattr(design, self.attr, None)
        if chan is None or not hasattr(chan, "set_fault"):
            raise DesignError("design has no channel attribute %r"
                              % self.attr)
        self.n_fired = 0
        state = {"n": 0}

        def hook(value):
            state["n"] += 1
            if state["n"] % self.every == 0:
                self.n_fired += 1
                return DROP
            return value

        chan.set_fault(hook)


@dataclass(repr=False)
class SeedPerturb(Fault):
    """Re-run the whole design under a different stimulus seed.

    Needs the campaign's ``seeded_factory`` to rebuild the design with
    the new seed; without one, only the context seed (``error()``
    injections) changes — the outcome then only probes annotation noise.
    """

    seed: int

    kind = "seed-perturb"

    def describe(self):
        return "seed-perturb seed=%d" % self.seed


@dataclass(repr=False)
class WorkerCrash(Fault):
    """Kill the executing process on ``signal``'s ``at``-th assignment.

    An *infrastructure* fault: in a pool worker it calls ``os._exit``
    (no cleanup, no exception — exactly what a segfaulting native
    kernel or an OOM kill looks like to the parent), exercising the
    runner's incremental harvest, poison-job quarantine and retry
    machinery.  When the job happens to execute in the campaign's own
    process (serial mode), exiting would kill the campaign itself, so
    it degrades to raising a :class:`~repro.core.errors.SimulationError`
    — still an aborted run, just a catchable one.
    """

    signal: str
    at: int = 100
    exit_code: int = 77

    kind = "worker-crash"

    def describe(self):
        return "worker-crash %s @%d (exit %d)" % (self.signal, self.at,
                                                  self.exit_code)

    def install(self, ctx, design):
        sig = ctx.get(self.signal)
        self.n_fired = 0
        state = {"n": 0}

        def hook(s, qfx):
            i = state["n"]
            state["n"] += 1
            if i == self.at:
                self.n_fired += 1
                if in_worker():
                    os._exit(self.exit_code)
                raise SimulationError(
                    "worker-crash fault fired in-process (assignment %d "
                    "of %r); a pool worker would have died here"
                    % (i, self.signal))
            return qfx

        sig.fault_post(hook)


@dataclass(repr=False)
class WorkerHang(Fault):
    """Stall the executing process on ``signal``'s ``at``-th assignment.

    Sleeps ``seconds`` once, simulating a wedged solver or a lost lock.
    Pair it with a per-job deadline (``FaultCampaign(deadline_seconds=...)``
    or ``SimConfig.deadline_seconds``): the in-process ``SIGALRM`` alarm
    interrupts the sleep and aborts the job as a deadline hit, so the
    batch keeps moving instead of waiting out the full hang.
    """

    signal: str
    at: int = 100
    seconds: float = 30.0

    kind = "worker-hang"

    def describe(self):
        return "worker-hang %s @%d (%.3gs)" % (self.signal, self.at,
                                               self.seconds)

    def install(self, ctx, design):
        sig = ctx.get(self.signal)
        self.n_fired = 0
        state = {"n": 0}

        def hook(s, qfx):
            i = state["n"]
            state["n"] += 1
            if i == self.at:
                self.n_fired += 1
                time.sleep(self.seconds)
            return qfx

        sig.fault_post(hook)


@dataclass(frozen=True)
class FaultOutcome:
    """Measured impact of one injected fault."""

    fault: str
    kind: str
    sqnr_db: float
    degradation_db: float
    overflows: int
    guard_trips: int
    error: object = None      # exception text when the run aborted
    #: False when the fault's hook never perturbed the run (e.g. the
    #: target signal is only assigned during build()).
    triggered: bool = True

    @property
    def completed(self):
        return self.error is None


@dataclass
class CampaignResult:
    """All outcomes of one fault-injection campaign."""

    output: str
    baseline_sqnr_db: float
    n_samples: int
    outcomes: list = field(default_factory=list)

    def worst_degradation_db(self):
        """Largest finite SQNR degradation (NaN when nothing finite)."""
        vals = [o.degradation_db for o in self.outcomes
                if o.completed and math.isfinite(o.degradation_db)]
        return max(vals) if vals else math.nan

    def certified(self, margin_db, kinds=None, require_no_overflow=False,
                  require_triggered=False):
        """True when every (selected) fault stayed within ``margin_db``.

        A fault certifies when its run completed, its degradation is
        finite and at most ``margin_db``, and (optionally) it caused no
        overflows.  ``kinds`` restricts the check to a subset of fault
        kinds — stuck-at faults, for instance, are *expected* to be
        catastrophic and are usually excluded.  With
        ``require_triggered=True``, a fault that never actually fired
        (see :class:`FaultOutcome.triggered`) fails certification — a
        margin proven by an unexercised fault proves nothing.
        """
        for o in self.outcomes:
            if kinds is not None and o.kind not in kinds:
                continue
            if not o.completed:
                return False
            if require_triggered and not o.triggered:
                return False
            if not math.isfinite(o.degradation_db):
                return False
            if o.degradation_db > margin_db:
                return False
            if require_no_overflow and o.overflows:
                return False
        return True

    def table(self, title="Fault-injection campaign"):
        headers = ["fault", "kind", "SQNR dB", "degr. dB", "ovf",
                   "guard", "status"]
        rows = []
        for o in self.outcomes:
            rows.append([
                o.fault, o.kind,
                "-" if not math.isfinite(o.sqnr_db) else "%.2f" % o.sqnr_db,
                "-" if not math.isfinite(o.degradation_db)
                else "%+.2f" % o.degradation_db,
                o.overflows, o.guard_trips,
                ("ok" if o.triggered else "IDLE (never fired)")
                if o.completed else "ABORT: %s" % o.error,
            ])
        head = "%s — output %r, baseline %.2f dB, %d samples/run" % (
            title, self.output, self.baseline_sqnr_db, self.n_samples)
        return format_table(headers, rows, title=head)

    def summary(self):
        n_ok = sum(1 for o in self.outcomes if o.completed)
        n_idle = sum(1 for o in self.outcomes
                     if o.completed and not o.triggered)
        worst = self.worst_degradation_db()
        text = ("fault campaign: %d/%d run(s) completed, worst SQNR "
                "degradation %s dB"
                % (n_ok, len(self.outcomes),
                   "%.2f" % worst if math.isfinite(worst) else "n/a"))
        if n_idle:
            text += ", %d fault(s) never fired" % n_idle
        return text

    def to_dict(self):
        def clean(v):
            return None if isinstance(v, float) and not math.isfinite(v) \
                else v
        return {
            "output": self.output,
            "baseline_sqnr_db": clean(self.baseline_sqnr_db),
            "n_samples": self.n_samples,
            "outcomes": [{
                "fault": o.fault, "kind": o.kind,
                "sqnr_db": clean(o.sqnr_db),
                "degradation_db": clean(o.degradation_db),
                "overflows": o.overflows,
                "guard_trips": o.guard_trips,
                "triggered": o.triggered,
                "error": None if o.error is None else str(o.error),
            } for o in self.outcomes],
        }


class FaultCampaign:
    """Runs a list of faults against a refined design.

    Parameters mirror :class:`RefinementFlow`: ``design_factory`` builds
    a fresh design, ``types`` is the (synthesized plus input) type
    assignment to apply, ``errors`` optional ``error()`` annotations
    (usually ``result.lsb.annotations``).  ``seeded_factory(seed)``
    enables :class:`SeedPerturb` faults to rebuild the stimulus.  Guard
    action defaults to ``record`` so injected NaNs are sanitized and
    counted rather than aborting the campaign.

    ``deadline_seconds`` bounds each run's wall clock (see
    ``SimConfig.deadline_seconds``) — essential when the fault list
    contains :class:`WorkerHang` or when perturbed designs can spin.
    """

    def __init__(self, design_factory, types, errors=None, output=None,
                 n_samples=2000, seed=1234, guard_action="record",
                 seeded_factory=None, deadline_seconds=None):
        self.factory = design_factory
        self.types = dict(types)
        self.errors = dict(errors or {})
        self.output = output
        self.n_samples = n_samples
        self.seed = seed
        self.guard_action = guard_action
        self.seeded_factory = seeded_factory
        self.deadline_seconds = deadline_seconds

    @staticmethod
    def _overflows(records):
        """Overflow count excluding intended wrap-mode modulo events."""
        total = 0
        for rec in records.values():
            if not rec.overflow_count:
                continue
            if rec.dtype is not None and rec.dtype.msbspec == "wrap":
                continue
            total += rec.overflow_count
        return total

    # -- campaign ------------------------------------------------------------

    def _config(self, faults=(), seed=None, label="fault"):
        """Describe one campaign run as a parallel-runner job."""
        return SimConfig(label=label, dtypes=self.types, errors=self.errors,
                         n_samples=self.n_samples,
                         seed=self.seed if seed is None else seed,
                         overflow_action="record",
                         guard_action=self.guard_action,
                         faults=tuple(faults), factory_seed=seed,
                         catch_errors=bool(faults),
                         deadline_seconds=self.deadline_seconds)

    def run(self, faults, workers=None, cache=None, journal=None,
            diagnostics=None, pool_policy=None):
        """Execute the campaign; returns a :class:`CampaignResult`.

        The baseline and the per-fault runs are independent and go out
        as one :func:`repro.parallel.run_simulations` batch (``workers``
        / ``cache`` forwarded; ``workers=None`` auto-sizes to the
        visible CPUs, falling back to an in-process serial loop).  The
        numbers are identical either way — each run carries its own
        seed, and fault fire counts travel back inside the outcomes.

        ``journal`` (a :class:`repro.robust.recovery.Journal` or path)
        makes the campaign resumable: per-fault outcomes are journaled
        as they complete, and a re-run after a crash replays them
        bit-exactly.  ``diagnostics`` collects the runner's recovery
        events (deadline hits, quarantines, retries, replays) with
        their stable ``DG2xx`` codes; ``pool_policy`` tunes
        retry/quarantine behaviour.
        """
        faults = list(faults)
        with obs_trace.span("campaign.run", faults=len(faults),
                            samples=self.n_samples) as sp:
            configs = [self._config(label="fault-baseline")]
            for fault in faults:
                seed = fault.seed if isinstance(fault, SeedPerturb) \
                    else None
                configs.append(self._config([fault], seed=seed,
                                            label="fault-%s" % fault.kind))
            sim_outcomes = run_simulations(
                self.factory, configs, workers=workers, cache=cache,
                seeded_factory=self.seeded_factory, journal=journal,
                diagnostics=diagnostics, pool_policy=pool_policy)

            base = sim_outcomes[0]
            output = self.output or base.output
            if output is None or output not in base.records:
                raise DesignError("campaign needs a resolvable output "
                                  "signal (got %r)" % output)
            baseline = base.records[output].sqnr_db()
            result = CampaignResult(output, baseline, self.n_samples)
            for fault, oc in zip(faults, sim_outcomes[1:]):
                if oc.error is not None:
                    outcome = FaultOutcome(fault.describe(), fault.kind,
                                           math.nan, math.nan, 0, 0,
                                           error=str(oc.error))
                else:
                    sqnr = oc.records[output].sqnr_db()
                    n_fired = oc.fault_fired[0] if oc.fault_fired \
                        else None
                    outcome = FaultOutcome(
                        fault.describe(), fault.kind, sqnr,
                        baseline - sqnr, self._overflows(oc.records),
                        oc.guard_trips,
                        triggered=(n_fired is None or n_fired > 0))
                result.outcomes.append(outcome)
                sp.event("campaign.fault", fault=fault.describe(),
                         kind=fault.kind,
                         completed=outcome.completed,
                         triggered=outcome.triggered,
                         degradation_db=outcome.degradation_db,
                         overflows=outcome.overflows,
                         guard_trips=outcome.guard_trips)
            sp.set(baseline_sqnr_db=baseline,
                   completed=sum(1 for o in result.outcomes
                                 if o.completed))
        return result


def standard_faults(types, inputs=(), n_seeds=2, base_seed=20000,
                    bit_flip_at=200, max_bitflip_signals=8,
                    input_scale=2.0):
    """Derive a default fault list from a type assignment.

    Per typed signal (up to ``max_bitflip_signals``, widest words first)
    one transient LSB flip and one MSB flip; per input an amplitude
    scaling and a NaN injection; plus ``n_seeds`` seed perturbations.
    """
    faults = []
    ranked = sorted(types.items(), key=lambda kv: -kv[1].n)
    for name, dt in ranked[:max_bitflip_signals]:
        faults.append(BitFlip(name, bit=0, at=bit_flip_at))
        if dt.n > 1:
            faults.append(BitFlip(name, bit=dt.n - 1, at=bit_flip_at))
    for name in inputs:
        faults.append(InputScale(name, input_scale))
        faults.append(NanInject(name, at=bit_flip_at))
    for k in range(n_seeds):
        faults.append(SeedPerturb(base_seed + 7919 * k))
    return faults

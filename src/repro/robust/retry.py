"""Retry, escalation and graceful degradation for the refinement flow.

The strict flow dead-ends when an MSB or LSB phase stays unresolved
(range explosion without knowledge, divergent error statistics without
an ``error()`` annotation).  This module turns those dead ends into a
ladder:

1. **reseed & retry** — rerun the phase under a perturbed seed (a phase
   that only failed on one unlucky stimulus resolves here);
2. **policy escalation** — enable automatic annotations and widen the
   auto-range margin step by step;
3. **conservative fallback** — signals that still resolve to nothing get
   a saturating type wide enough for everything the simulation observed
   (plus guard bits), flagged low-confidence in the diagnostics.

``RefinementFlow.run(strict=False)`` drives :func:`run_graceful`; every
rung taken is reported as an ``escalation`` / ``fallback`` event
(:func:`repro.robust.diagnostics.report`), so it lands in the run's
:class:`~repro.robust.diagnostics.Diagnostics`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from repro.core import word
from repro.core.dtype import DType
from repro.core.errors import WatchdogTimeout
from repro.robust.diagnostics import report

__all__ = ["BackoffPolicy", "EscalationPolicy", "escalate_msb",
           "escalate_lsb", "conservative_fallback", "run_graceful"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Used by the parallel runner between retries of a job whose worker
    died: ``delay(attempt)`` grows as ``base * factor**(attempt-1)``,
    capped at ``cap``, plus up to ``jitter`` fractional spread derived
    from a hash of ``(token, attempt)`` — deterministic (no global RNG
    state touched, reproducible across runs) yet decorrelated between
    jobs, so a herd of retried jobs does not slam the pool in lockstep.

    >>> p = BackoffPolicy(base=0.1, factor=2.0, cap=1.0, jitter=0.0)
    >>> p.delay(1), p.delay(2), p.delay(5)
    (0.1, 0.2, 1.0)
    """

    #: delay of the first retry, in seconds.
    base: float = 0.1
    #: multiplicative growth per further attempt.
    factor: float = 2.0
    #: upper bound on any single delay, in seconds.
    cap: float = 2.0
    #: fraction of the delay added as deterministic jitter (0..1).
    jitter: float = 0.25

    def delay(self, attempt, token=""):
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        d = min(self.base * self.factor ** (attempt - 1), self.cap)
        if self.jitter:
            h = hashlib.sha256(("%s|%d" % (token, attempt)).encode())
            frac = int.from_bytes(h.digest()[:4], "big") / 2.0 ** 32
            d = min(d * (1.0 + self.jitter * frac), self.cap)
        return d


@dataclass(frozen=True)
class EscalationPolicy:
    """Knobs of the escalation ladder."""

    #: maximum extra phase attempts after the first unresolved one.
    max_rounds: int = 2
    #: seed offset between attempts (prime, to decorrelate streams).
    reseed_step: int = 7919
    #: enable automatic range annotations during escalation.
    force_auto_range: bool = True
    #: multiply the auto-range margin by this factor per attempt.
    margin_growth: float = 2.0
    #: enable automatic error annotations during escalation.
    force_auto_error: bool = True
    #: extra LSB bits granted to auto error annotations per attempt.
    error_extra_bits_step: int = 2
    #: extra MSB headroom bits of a conservative fallback type.
    fallback_guard_bits: int = 2
    #: assumed |range| for fallback types of never-observed signals.
    fallback_magnitude: float = 1.0


def _retry_config(cfg, policy, attempt):
    """Escalated copy of a FlowConfig for the given retry attempt."""
    return replace(
        cfg,
        seed=cfg.seed + policy.reseed_step * attempt,
        auto_range=cfg.auto_range or policy.force_auto_range,
        auto_range_margin=cfg.auto_range_margin
        * (policy.margin_growth ** attempt),
        auto_error=cfg.auto_error or policy.force_auto_error,
        auto_error_extra_bits=cfg.auto_error_extra_bits
        + policy.error_extra_bits_step * attempt,
    )


def _run_phase_guarded(run, cfg, policy, phase_name):
    """Run one phase, degrading the sample budget on watchdog timeouts.

    In the graceful flow a :class:`WatchdogTimeout` is a recoverable
    condition, not a dead end: record a ``watchdog`` diagnostic and
    retry the phase with the sample count halved, up to
    ``policy.max_rounds`` times.  Re-raises when even the smallest
    budget still blows the watchdog — at that point the budget itself is
    wrong and the caller must know.
    """
    for shrink in range(policy.max_rounds + 1):
        try:
            return run(cfg)
        except WatchdogTimeout as exc:
            if shrink >= policy.max_rounds:
                report("watchdog", "error",
                       "%s phase still exceeds the watchdog budget after "
                       "%d sample halving(s) (%s) — giving up"
                       % (phase_name, shrink, exc),
                       phase=phase_name, halvings=shrink)
                raise
            cfg = replace(cfg, n_samples=max(1, cfg.n_samples // 2))
            report("watchdog", "warning",
                   "%s phase hit the watchdog budget (%s); retrying with "
                   "%d samples" % (phase_name, exc, cfg.n_samples),
                   phase=phase_name, n_samples=cfg.n_samples)
    raise AssertionError("unreachable")


def escalate_msb(flow, policy=None):
    """MSB phase with the retry/escalation ladder applied."""
    policy = policy or EscalationPolicy()
    phase = _run_phase_guarded(lambda c: flow.run_msb_phase(config=c),
                               flow.cfg, policy, "msb")
    attempt = 0
    while not phase.resolved and attempt < policy.max_rounds:
        attempt += 1
        cfg = _retry_config(flow.cfg, policy, attempt)
        report("escalation", "info",
               "MSB phase unresolved after %d iteration(s); retry %d with "
               "seed %d, auto_range=%s, margin %.3g"
               % (phase.n_iterations, attempt, cfg.seed, cfg.auto_range,
                  cfg.auto_range_margin),
               phase="msb", attempt=attempt, seed=cfg.seed)
        phase = _run_phase_guarded(lambda c: flow.run_msb_phase(config=c),
                                   cfg, policy, "msb")
    if not phase.resolved:
        exploded = phase.final.exploded
        report("escalation", "warning",
               "MSB phase still unresolved after %d escalation round(s); "
               "unresolved signals: %s — falling back to conservative "
               "saturating types" % (attempt, ", ".join(exploded) or "none"),
               phase="msb", unresolved=", ".join(exploded))
    return phase


def escalate_lsb(flow, msb_ranges, policy=None):
    """LSB phase with the retry/escalation ladder applied."""
    policy = policy or EscalationPolicy()
    phase = _run_phase_guarded(
        lambda c: flow.run_lsb_phase(msb_ranges, config=c),
        flow.cfg, policy, "lsb")
    attempt = 0
    while not phase.resolved and attempt < policy.max_rounds:
        attempt += 1
        cfg = _retry_config(flow.cfg, policy, attempt)
        report("escalation", "info",
               "LSB phase unresolved; retry %d with seed %d, auto_error=%s"
               % (attempt, cfg.seed, cfg.auto_error),
               phase="lsb", attempt=attempt, seed=cfg.seed)
        phase = _run_phase_guarded(
            lambda c: flow.run_lsb_phase(msb_ranges, config=c),
            cfg, policy, "lsb")
    if not phase.resolved:
        divergent = sorted(phase.final.divergent)
        report("escalation", "warning",
               "LSB phase still unresolved after %d escalation round(s); "
               "divergent signals %s keep the maximum fractional bits"
               % (attempt, ", ".join(divergent) or "none"),
               phase="lsb", divergent=", ".join(divergent))
    return phase


def conservative_fallback(flow, policy=None):
    """Callback for ``synthesize_types(on_unresolved=...)``.

    Builds a saturating type wide enough for the simulated range plus
    guard bits (or ``fallback_magnitude`` when the signal was never
    observed), with the LSB decision when one exists and the policy cap
    otherwise.  Every fallback is recorded as a low-confidence
    ``fallback`` diagnostic.
    """
    policy = policy or EscalationPolicy()
    cfg = flow.cfg

    def on_unresolved(name, mdec, ldec, record):
        msb = None
        basis = "never observed; assumed |x| <= %g" % policy.fallback_magnitude
        if record is not None and record.observed:
            lo, hi = record.stat_min, record.stat_max
            if math.isfinite(lo) and math.isfinite(hi):
                msb = word.required_msb(lo, hi)
                basis = "simulated range [%.4g, %.4g]" % (lo, hi)
        if msb is None or isinstance(msb, float):
            m = policy.fallback_magnitude
            msb = word.required_msb(-m, m)
        msb = int(msb) + policy.fallback_guard_bits
        if ldec is not None and ldec.lsb is not None:
            f = ldec.lsb
        else:
            f = cfg.lsb_policy.max_frac_bits
        f = max(f, -msb)    # keep the word at least one bit wide
        dt = DType("%s_t" % name, msb + f + 1, f, "tc", "saturate", "round")
        report("fallback", "warning",
               "unresolved after escalation; conservative saturating "
               "fallback %s (%s, +%d guard bit(s)) — LOW CONFIDENCE"
               % (dt.spec(), basis, policy.fallback_guard_bits),
               signal=name, spec=dt.spec(),
               guard_bits=policy.fallback_guard_bits)
        return dt

    return on_unresolved


def run_graceful(flow, policy=None):
    """Graceful-degradation flow: never dead-ends mid-flow.

    Returns ``(msb_phase, lsb_phase, types, fallbacks)`` where
    ``fallbacks`` maps the signals that needed a conservative type to
    their :class:`DType`.
    """
    policy = policy or getattr(flow.cfg, "escalation", None) \
        or EscalationPolicy()
    msb = escalate_msb(flow, policy)
    lsb = escalate_lsb(flow, msb.annotations, policy)
    fallbacks = {}
    fallback_cb = conservative_fallback(flow, policy)

    def on_unresolved(name, mdec, ldec, record):
        dt = fallback_cb(name, mdec, ldec, record)
        if dt is not None:
            fallbacks[name] = dt
        return dt

    types = flow.synthesize_types(msb, lsb, on_unresolved=on_unresolved)
    return msb, lsb, types, fallbacks

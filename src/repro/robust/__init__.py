"""Robustness subsystem: guards, diagnostics, fault injection, retry.

Four layers that keep a refinement run trustworthy when designs or
stimuli misbehave:

* :mod:`repro.robust.guards` — non-finite value policies and simulation
  watchdogs;
* :mod:`repro.robust.diagnostics` — structured event log attached to a
  :class:`~repro.refine.flow.RefinementResult`;
* :mod:`repro.robust.faults` — fault-injection campaigns measuring SQNR
  degradation of a refined design under bit flips, stuck nodes, input
  overdrive and seed changes;
* :mod:`repro.robust.retry` — escalation ladder and conservative
  fallback types behind ``RefinementFlow.run(strict=False)``, plus the
  :class:`BackoffPolicy` used between crash retries in the pool;
* :mod:`repro.robust.recovery` — the outcome store :class:`Journal`:
  in memory without a path (the runner's result cache), write-ahead on
  disk behind every resumable entry with one
  (``run_simulations(journal=...)``, ``optimize_wordlengths(journal=...)``,
  ``RefinementFlow.run(journal=...)``);
* :mod:`repro.robust.invariants` + :mod:`repro.robust.chaos` — the
  proof layer: canonical bit-exact digests, the five recovery
  invariants (durability, exactness, attribution, monotonicity,
  termination), and a deterministic infrastructure-fault injector that
  checks them over a ``{fault site} x {entry point}`` matrix.  Chaos is
  not imported here (it pulls in the whole refine stack); reach it via
  ``python -m repro.robust.chaos``.
"""

from __future__ import annotations

from repro.robust.diagnostics import DiagEvent, Diagnostics
from repro.robust.faults import (BitFlip, CampaignResult, Fault,
                                 FaultCampaign, FaultOutcome, InputScale,
                                 NanInject, SeedPerturb, StuckAt, WorkerCrash,
                                 WorkerHang, standard_faults)
from repro.robust.guards import (GuardEvent, GuardPolicy, Watchdog,
                                 guard_summary)
from repro.robust.invariants import (InvariantCheck, canonical, digest,
                                     journal_digests, outcome_digest)
from repro.robust.recovery import Journal
from repro.robust.retry import (BackoffPolicy, EscalationPolicy,
                                conservative_fallback, escalate_lsb,
                                escalate_msb, run_graceful)

__all__ = [
    "GuardPolicy", "GuardEvent", "Watchdog", "guard_summary",
    "DiagEvent", "Diagnostics",
    "Fault", "BitFlip", "StuckAt", "InputScale", "NanInject",
    "SeedPerturb", "WorkerCrash", "WorkerHang",
    "FaultOutcome", "CampaignResult", "FaultCampaign",
    "standard_faults",
    "Journal",
    "InvariantCheck", "canonical", "digest", "outcome_digest",
    "journal_digests",
    "BackoffPolicy", "EscalationPolicy", "escalate_msb", "escalate_lsb",
    "conservative_fallback", "run_graceful",
]

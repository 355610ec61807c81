"""Process-wide named counters for rare recovery/infrastructure events.

The per-signal :mod:`repro.obs.metrics` counters live on the assignment
hot path and need the swap-in trick to stay free; these counters are the
opposite — coarse, always-on tallies of events that happen at most a
handful of times per batch (a retried job, a quarantined poison job, a
deadline hit, a journal replay).  A plain dict increment is cheap enough
to leave permanently enabled, which matters precisely because the
events are rare: the one run where a worker crashed is the run where
you cannot retroactively enable instrumentation.

Counters incremented inside a fork-pool *worker* die with the worker;
the parallel runner therefore increments all recovery counters on the
parent side (when it sees the outcome / failure), so the numbers are
complete regardless of execution mode.

>>> from repro.obs import counters
>>> counters.reset()
>>> counters.inc("parallel.retries")
1
>>> counters.inc("parallel.retries", 2)
3
>>> counters.get("parallel.retries"), counters.get("never.touched")
(3, 0)

Well-known names:

``parallel.retries``
    job re-submissions after a worker crash (before quarantine).
``parallel.quarantined``
    poison jobs given up on after exhausting their retry budget.
``parallel.deadline_hits``
    jobs aborted by their per-job wall-clock deadline.
``parallel.pool_respawns``
    worker pools rebuilt after a crash.
``parallel.pickling_fallbacks``
    jobs run in-process because they could not cross the pipe.
``journal.appends`` / ``journal.replays`` / ``journal.dropped_records``
    write-ahead journal activity (see :mod:`repro.robust.recovery`);
    ``journal.appends`` counts durable (file) appends only.
``journal.io_errors``
    appends degraded to in-memory after an OSError.
``cache.hits`` / ``cache.misses``
    :class:`~repro.robust.recovery.Journal` lookup tallies across all
    instances (per-instance numbers: :meth:`Journal.stats`); a hit that
    serves an entry loaded from the file for the first time counts as
    ``journal.replays`` instead.  (The cache's checksum-failure counter
    is retired: the in-memory store keeps outcomes, not checksummed
    payloads.)
``chaos.injected`` / ``chaos.scenarios_run`` / ``chaos.invariant_failures``
    deterministic fault injection (see :mod:`repro.robust.chaos`).
``verify.checks`` / ``verify.proved`` / ``verify.counterexample`` /
``verify.unknown``
    bounded-model-checking property checks discharged and their
    verdicts (see :mod:`repro.verify`; codes DG210–DG212).
``verify.replays``
    counterexamples re-executed bit-exactly through the interpreted
    engine before being reported.

The ``compile.*`` names are retired with the compiled engine and are
never reused.
"""

from __future__ import annotations

__all__ = ["inc", "get", "snapshot", "reset"]

_COUNTS = {}


def inc(name, n=1):
    """Add ``n`` to counter ``name``; returns the new value."""
    value = _COUNTS.get(name, 0) + n
    _COUNTS[name] = value
    return value


def get(name):
    """Current value of ``name`` (0 when never incremented)."""
    return _COUNTS.get(name, 0)


def snapshot():
    """Copy of all non-zero counters, by name."""
    return dict(_COUNTS)


def reset():
    """Zero every counter (tests / between campaigns)."""
    _COUNTS.clear()


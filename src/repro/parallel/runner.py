"""Deterministic, crash-tolerant parallel re-simulation fan-out.

The refinement loop is simulation-hungry: a sensitivity sweep costs
``2N + 1`` runs, the greedy wordlength optimizer probes every candidate
signal per move, and a fault campaign re-simulates once per fault.  All
of those runs are *independent* — same design factory, different
annotations / seeds / faults — which makes them embarrassingly
parallel.

:func:`run_simulations` executes a batch of :class:`SimConfig` jobs and
returns one :class:`SimOutcome` per job, in order.  Execution
strategies, picked automatically:

* **fork pool** — a ``ProcessPoolExecutor`` on the ``fork`` start
  method.  The design factory is stashed in module state *before* the
  workers fork, so arbitrary (even unpicklable) factories are inherited
  by the children for free; only the configs and outcomes cross the
  pipe.  Results are deterministic because every job carries its own
  stimulus seed — scheduling order cannot change the numbers.
* **serial fallback** — when ``fork`` is unavailable (Windows/macOS
  spawn), only one CPU is visible, or ``workers <= 1``, the same jobs
  run in-process.  Bit-identical results either way.
* **result cache** — an optional :class:`SimCache` keyed by a
  fingerprint of (design factory, annotations, samples, seed, faults).
  The optimizer re-probes many type maps it has already measured; the
  cache turns those into dictionary hits.

Fault tolerance (see :mod:`repro.robust.recovery` and
``docs/robustness.md``):

* **per-job deadlines** — ``SimConfig.deadline_seconds`` arms a
  signal-based wall-clock alarm inside the executing process; a job
  that overruns aborts with :class:`~repro.core.errors.DeadlineExceeded`
  instead of hanging the batch.  In the quarantine phase the parent
  additionally hard-kills a worker that ignores its alarm.
* **poison-job quarantine** — outcomes are harvested incrementally, so
  a worker crash (``BrokenProcessPool``) never discards jobs that
  already finished.  The uncompleted jobs move to single-worker
  isolation pools where a crash is attributable to exactly one job;
  that job is retried with exponential backoff
  (:class:`repro.robust.retry.BackoffPolicy`) and finally quarantined,
  while every healthy job still runs in parallel — the old wholesale
  serial re-run is gone.
* **pipe-failure fallback** — a job whose config or outcome cannot be
  pickled re-runs in-process, alone; the rest of the batch stays in the
  pool.
* **write-ahead journal** — with ``journal=``, every completed outcome
  is appended to a :class:`repro.robust.recovery.Journal` the moment it
  arrives; re-running the same batch after a ``kill -9`` replays the
  journaled outcomes bit-exactly and executes only the missing jobs.

Recovery events are tallied in :mod:`repro.obs.counters`
(``parallel.retries``, ``parallel.quarantined``,
``parallel.deadline_hits``, ``journal.replays``, ...), emitted as trace
events under the ``parallel.batch`` span, and — when a ``diagnostics``
container is passed — recorded as stable-coded events (``DG201``
deadline, ``DG202`` quarantine, ``DG203`` journal replay, ``DG204``
retry).

Environment knobs: ``REPRO_WORKERS`` overrides the auto worker count,
``REPRO_PARALLEL=0`` forces the serial path.

The per-job boundaries (job dispatch, pool harvest, cache store/lookup)
consult :data:`repro.chaoshooks.ACTIVE` — a single attribute load plus
``is None`` check when disarmed — so :mod:`repro.robust.chaos` can
deterministically rewrite jobs, break pools mid-drain or corrupt cache
entries.  The per-sample hot path has no hook sites.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import signal as _signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro import chaoshooks
from repro.core.errors import (DeadlineExceeded, ReproError,
                               WorkerCrashError)
from repro.obs import counters as obs_counters
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.signal.context import DesignContext

__all__ = ["SimConfig", "SimOutcome", "SimCache", "PoolPolicy",
           "run_simulations", "default_workers", "fingerprint"]

#: ``SimConfig.monitors`` values: every signal with range propagation,
#: every signal's statistics alone, or the output alone.
MONITOR_MODES = ("all", "stats", "output")


@dataclass(frozen=True)
class SimConfig:
    """One independent simulation job.

    ``dtypes`` / ``ranges`` / ``errors`` are the annotation maps applied
    after ``design.build()`` (see
    :class:`~repro.refine.flow.Annotations`).  ``factory_seed`` requests
    the runner's ``seeded_factory`` (stimulus re-seeding, e.g.
    :class:`~repro.robust.faults.SeedPerturb`).  With ``catch_errors``
    set, a :class:`~repro.core.errors.ReproError` aborts only this job
    and lands in ``SimOutcome.error``; otherwise it propagates to the
    caller exactly like a serial run.

    ``deadline_seconds`` bounds the job's wall clock: the executing
    process arms a ``SIGALRM``-based one-shot timer around the
    simulation and aborts with
    :class:`~repro.core.errors.DeadlineExceeded` when it fires (an
    error outcome under ``catch_errors``, a raised exception
    otherwise).  The alarm needs the job to run on a main thread —
    pool workers and the serial runner both qualify.

    ``snapshot_errors`` splits the run at ``max(1, n_samples // 2)``
    and stores :meth:`DesignContext.snapshot_error_stats` taken there in
    ``SimOutcome.error_snapshot`` (the refinement flow's divergence
    growth test).  ``guard_replacement`` is the sanitization rule of
    the non-finite guard.  ``max_watchdog_cycles`` /
    ``max_wall_seconds`` arm a :class:`~repro.robust.guards.Watchdog`
    on the context; like the deadline, they decide whether a run
    completes, never what it computes, so they stay out of the cache
    key.

    ``tape`` is an empty
    :class:`~repro.signal.interval_tape.IntervalTape` for the run to
    record its interval program into.  Only a run in the calling process
    records (a pool worker records into its own copy), which
    :attr:`IntervalTape.recorded` tells apart.  Recording changes
    nothing the run computes, so the tape stays out of the cache key.

    ``monitors`` is ``"all"`` (every signal's monitors plus range
    propagation), ``"stats"`` or ``"output"``.  Both of the latter run
    the identical value side (guard, fault hooks, quantization,
    overflow counting and raising, ``error()`` draws, registers) and
    propagate no ranges, so every record's ``prop`` is empty.  A
    statistics-only job (``"stats"``) keeps all four monitors on every
    signal and returns every record, ``forced_range`` included: the
    refinement flow's verification job and its ``error()``-annotated
    LSB jobs, which read no intervals, are such jobs.  An output-only
    job (``"output"``) is a probe whose caller reads only the output's
    statistics: it keeps the monitors on ``design.output`` only and
    returns ``records == {output: record}``.  Running no interval
    arithmetic, neither can fail where only that arithmetic fails (an
    ``inf - inf`` bound, say) while the full job would.  Neither
    records intervals, so both reject a tape; an output-only job also
    rejects ``snapshot_errors``, which needs every signal's statistics.
    """

    label: str = "sim"
    dtypes: dict = field(default_factory=dict)
    ranges: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    n_samples: int = 2000
    seed: int = 1234
    overflow_action: str = "record"
    guard_action: str = "raise"
    faults: tuple = ()
    factory_seed: object = None
    catch_errors: bool = False
    #: wall-clock budget of this one job, in seconds (None = unbounded).
    deadline_seconds: object = None
    #: take an error-statistics snapshot after the first half of the run.
    snapshot_errors: bool = False
    guard_replacement: str = "hold"
    #: watchdog budgets (None disables the respective check).
    max_watchdog_cycles: object = None
    max_wall_seconds: object = None
    tape: object = field(default=None, repr=False, compare=False)
    monitors: str = "all"

    def __post_init__(self):
        if self.monitors not in MONITOR_MODES:
            raise ValueError("monitors must be one of %s, got %r"
                             % (", ".join(MONITOR_MODES), self.monitors))
        if self.monitors == "output" and (self.tape is not None
                                          or self.snapshot_errors):
            raise ValueError("monitors='output' records no intervals or "
                             "per-signal statistics, so it cannot take a "
                             "tape or snapshot_errors")
        if self.monitors == "stats" and self.tape is not None:
            raise ValueError("monitors='stats' records no intervals, so it "
                             "cannot take a tape")
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0, got %r"
                             % (self.n_samples,))


@dataclass(frozen=True)
class SimOutcome:
    """Result of one :class:`SimConfig` job.

    ``records`` is the :func:`~repro.refine.monitors.collect` snapshot
    (:func:`~repro.refine.monitors.collect_output` for an output-only
    job), ``fault_fired`` holds each fault's ``n_fired`` counter as
    observed *inside* the run (the caller's fault objects are not
    mutated when the job ran in a worker process — always read the
    counts from here).

    ``overflows`` is the run's total ``overflow_count`` over every
    signal in the context, read from the value side.  It is the sum of
    the records' ``overflow_count`` for a full job, and an output-only
    job reports the same total although it holds the output's record
    alone.  Error outcomes carry ``0``, and so does an outcome pickled
    before the field existed.  It is a result, so it stays out of the
    cache key.
    """

    label: str
    records: dict
    output: object
    guard_trips: int = 0
    fault_fired: tuple = ()
    error: object = None
    #: machine-readable failure class when ``error`` is set:
    #: "deadline" (per-job deadline hit), "crash" (worker died and the
    #: job was quarantined), "error" (a ReproError inside the design).
    error_kind: object = None
    #: Observability events recorded inside a pool worker, shipped back
    #: to the parent recorder (empty for serial runs — those record
    #: directly into the live recorder).
    obs_events: tuple = ()
    #: mid-run ``snapshot_error_stats()`` (``SimConfig.snapshot_errors``).
    error_snapshot: object = None
    #: the context's guard log (capped like ``DesignContext.guard_log``;
    #: ``guard_trips`` is the uncapped count).
    guard_events: tuple = ()
    #: total overflow count over every signal of the run.
    overflows: int = 0

    @property
    def completed(self):
        return self.error is None

    def sqnr_db(self, name=None):
        """Output (or named signal) SQNR of this run."""
        key = self.output if name is None else name
        return self.records[key].sqnr_db()


@dataclass(frozen=True)
class PoolPolicy:
    """Recovery knobs of the fork-pool execution path.

    ``max_retries`` bounds how often a job whose worker died is
    re-submitted before quarantine; delays between attempts come from
    ``backoff`` (a :class:`repro.robust.retry.BackoffPolicy`, a
    conservative default when None).  ``max_respawns`` caps worker-pool
    rebuilds per batch (a runaway crasher cannot fork-bomb the host).
    ``deadline_grace`` is the parent-side slack on top of twice a job's
    deadline before its worker is hard-killed in the isolation phase —
    the safety net for code that blocks ``SIGALRM`` delivery.
    """

    max_retries: int = 1
    max_respawns: int = 16
    backoff: object = None
    deadline_grace: float = 5.0

    def backoff_policy(self):
        if self.backoff is not None:
            return self.backoff
        # Imported lazily: repro.robust.faults imports this runner, so a
        # module-scope import back into repro.robust would be circular.
        from repro.robust.retry import BackoffPolicy
        return BackoffPolicy(base=0.05, factor=2.0, cap=1.0)


# -- worker state ------------------------------------------------------------

# Factories are installed here before the pool forks, so child processes
# inherit them through copy-on-write instead of pickling.  Only the pool
# path uses the slot: in-process jobs get their factories as arguments,
# so a serial batch (every refinement-flow simulation is one) never
# reads or clears state another batch in the process relies on.
# ``parent_pid`` lets code running inside a job (e.g. the worker_crash
# fault) tell a pool worker from an in-process run.
_WORKER_STATE = {"factory": None, "seeded_factory": None,
                 "parent_pid": None}


def in_worker():
    """True while executing a job in a forked pool worker."""
    parent = _WORKER_STATE["parent_pid"]
    return parent is not None and os.getpid() != parent


class _DeadlineGuard:
    """Arms a one-shot ``SIGALRM`` wall-clock alarm around a job.

    Only arms on a main thread (signal handlers cannot be installed
    elsewhere); a no-op otherwise, and for ``seconds=None``.
    """

    __slots__ = ("seconds", "label", "_armed", "_old")

    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label
        self._armed = False
        self._old = None

    def _fire(self, signum, frame):
        raise DeadlineExceeded(
            "simulation %r exceeded its %.3gs deadline"
            % (self.label, self.seconds),
            deadline=self.seconds, label=self.label)

    def __enter__(self):
        if (self.seconds is not None and self.seconds > 0
                and threading.current_thread() is threading.main_thread()):
            self._old = _signal.signal(_signal.SIGALRM, self._fire)
            _signal.setitimer(_signal.ITIMER_REAL, float(self.seconds))
            self._armed = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._armed:
            _signal.setitimer(_signal.ITIMER_REAL, 0.0)
            _signal.signal(_signal.SIGALRM, self._old)
            self._armed = False
        return False


def overflow_total(ctx):
    """Overflows counted on every signal of ``ctx`` (value side)."""
    return sum(s.overflow_count for s in ctx.signals())


def _execute(config, factory, seeded):
    """Run one job against ``factory`` (or ``seeded(factory_seed)``)."""
    # Imported lazily: repro.refine's own modules (sensitivity, the
    # optimizer) import this runner at module scope, so importing the
    # refine package back at *our* module scope would be circular.
    from repro.refine.flow import Annotations
    from repro.refine.monitors import collect, collect_output

    faults = config.faults
    with obs_trace.span("parallel.job", label=config.label,
                        samples=config.n_samples, seed=config.seed) as sp:
        try:
            with _DeadlineGuard(config.deadline_seconds, config.label):
                ctx = DesignContext(config.label, seed=config.seed,
                                    overflow_action=config.overflow_action,
                                    guard_action=config.guard_action,
                                    guard_replacement=config.guard_replacement)
                if (config.max_watchdog_cycles is not None
                        or config.max_wall_seconds is not None):
                    from repro.robust.guards import Watchdog
                    ctx.watchdog = Watchdog(
                        max_cycles=config.max_watchdog_cycles,
                        max_seconds=config.max_wall_seconds)
                snapshot = None
                with ctx:
                    if config.factory_seed is not None and seeded is not None:
                        design = seeded(config.factory_seed)
                    else:
                        design = factory()
                    design.build(ctx)
                    Annotations(dtypes=config.dtypes, ranges=config.ranges,
                                errors=config.errors).apply(ctx)
                    for fault in faults:
                        fault.install(ctx, design)
                    output = getattr(design, "output", None)
                    output_only = config.monitors == "output"
                    if output_only:
                        ctx.monitor_only(output)
                    elif config.monitors == "stats":
                        ctx.propagate = False
                    if config.tape is not None:
                        config.tape.start(ctx)
                    if config.snapshot_errors:
                        half = max(1, config.n_samples // 2)
                        design.run(ctx, half)
                        snapshot = ctx.snapshot_error_stats()
                        design.run(ctx, config.n_samples - half)
                    else:
                        design.run(ctx, config.n_samples)
                    if config.tape is not None:
                        config.tape.finish()
                records = (collect_output(ctx, output) if output_only
                           else collect(ctx))
            sp.set(signals=len(records), guard_trips=ctx.guard_trip_count)
            obs_metrics.emit(ctx, label=config.label)
            return SimOutcome(config.label, records, output,
                              ctx.guard_trip_count,
                              tuple(f.n_fired for f in faults), None,
                              error_snapshot=snapshot,
                              guard_events=tuple(ctx.guard_log),
                              overflows=overflow_total(ctx))
        except ReproError as exc:
            if not config.catch_errors:
                raise
            kind = "deadline" if isinstance(exc, DeadlineExceeded) \
                else "error"
            sp.set(error=str(exc), error_kind=kind)
            return SimOutcome(config.label, {}, None, 0,
                              tuple(getattr(f, "n_fired", None)
                                    for f in faults),
                              str(exc), error_kind=kind)


def _execute_remote(config):
    """Pool-worker wrapper: run a job and ship its trace events home.

    The worker inherits the parent's recorder (and any open span stack)
    through the fork, so spans minted here nest correctly under the
    parent's ``parallel.batch`` span — but the events land in the
    *worker's* copy of the recorder.  This wrapper marks the recorder
    before the job and attaches everything recorded since to the
    outcome, which is the only thing that crosses the pipe.
    """
    factory = _WORKER_STATE["factory"]
    seeded = _WORKER_STATE["seeded_factory"]
    rec = obs_trace.current_recorder()
    if rec is None:
        return _execute(config, factory, seeded)
    mark = rec.mark()
    outcome = _execute(config, factory, seeded)
    events = tuple(rec.events_since(mark))
    if events:
        outcome = replace(outcome, obs_events=events)
    return outcome


def _quarantine_outcome(config, message):
    """Error outcome standing in for a job whose worker died."""
    return SimOutcome(config.label, {}, None, 0,
                      tuple(getattr(f, "n_fired", None)
                            for f in config.faults),
                      message, error_kind="crash")


# -- worker count ------------------------------------------------------------

def default_workers():
    """Auto worker count: ``REPRO_WORKERS`` env, else visible CPUs."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _fork_available():
    if os.environ.get("REPRO_PARALLEL") == "0":
        return False
    return "fork" in multiprocessing.get_all_start_methods()


# -- fingerprint cache -------------------------------------------------------

def _callable_fingerprint(fn):
    """Best-effort stable identity of a factory callable.

    A ``fingerprint`` attribute on the factory wins (set one when
    constructing factories dynamically).  Otherwise the qualified name
    plus the compiled bytecode and closure contents are hashed, so two
    distinct lambdas with the same name but different captured values do
    not collide.
    """
    if fn is None:
        return "none"
    fp = getattr(fn, "fingerprint", None)
    if fp is not None:
        return str(fp)
    parts = [getattr(fn, "__module__", "") or "",
             getattr(fn, "__qualname__", None) or repr(fn)]
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append(hashlib.sha256(code.co_code).hexdigest())
        parts.append(repr(code.co_consts))
    cells = getattr(fn, "__closure__", None)
    if cells:
        try:
            parts.append(repr([c.cell_contents for c in cells]))
        except ValueError:  # empty cell
            parts.append("<unset-cell>")
    return "|".join(parts)


def _dtype_key(dt):
    if dt is None:
        return None
    return (dt.n, dt.f, dt.vtype, dt.msbspec, dt.lsbspec)


def fingerprint(design_factory, config, seeded_factory=None):
    """Cache key of one job: design identity + everything that shapes it.

    Identical jobs collide (that is the point of the cache); any knob
    that could change the numbers separates them.  ``deadline_seconds``
    and the watchdog budgets are deliberately excluded: a budget
    decides whether a run completes, never what a completed run
    computes, so journaled outcomes stay replayable when a budget is
    tuned between sessions.  ``snapshot_errors``,
    ``guard_replacement`` and ``monitors`` enter the key only when they
    differ from their defaults, so keys of configs that leave them
    alone are unchanged from before the fields existed, and a
    statistics-only or output-only outcome is never served to a caller
    that wants every record's intervals.  Range bounds and error
    amplitudes are keyed as floats, the values the simulation applies,
    so ``(-1, 1)``, ``[-1, 1]`` and ``(-1.0, 1.0)`` share a key (and
    float-tuple keys are unchanged from before the normalization).

    >>> def factory():
    ...     pass
    >>> a = SimConfig(label="a", n_samples=100, seed=1)
    >>> b = SimConfig(label="b", n_samples=100, seed=1)
    >>> fingerprint(factory, a) == fingerprint(factory, b)
    True
    >>> c = SimConfig(label="a", n_samples=100, seed=2)
    >>> fingerprint(factory, a) == fingerprint(factory, c)
    False
    """
    h = hashlib.sha256()

    def feed(tag, value):
        h.update(("%s=%r;" % (tag, value)).encode())

    feed("factory", _callable_fingerprint(design_factory))
    if config.factory_seed is not None:
        feed("seeded", _callable_fingerprint(seeded_factory))
        feed("factory_seed", config.factory_seed)
    feed("dtypes", sorted((k, _dtype_key(v))
                          for k, v in config.dtypes.items()))
    feed("ranges", sorted((k, (float(lo), float(hi)))
                          for k, (lo, hi) in config.ranges.items()))
    feed("errors", sorted((k, float(q)) for k, q in config.errors.items()))
    feed("n_samples", config.n_samples)
    feed("seed", config.seed)
    feed("overflow", config.overflow_action)
    feed("guard", config.guard_action)
    feed("faults", tuple(repr(f) for f in config.faults))
    if config.snapshot_errors:
        feed("snapshot", True)
    if config.guard_replacement != "hold":
        feed("guard_replacement", config.guard_replacement)
    if config.monitors != "all":
        feed("monitors", config.monitors)
    return h.hexdigest()


class SimCache:
    """In-memory LRU result cache for :func:`run_simulations`.

    Keys are :func:`fingerprint` digests; values are completed
    :class:`SimOutcome` objects (failed runs are never cached).  Pass
    the same instance across :func:`analyze_sensitivity` /
    :func:`optimize_wordlengths` calls to skip re-measuring type maps
    the refinement loop has already probed.  At ``max_entries`` the
    least-recently-*used* entry is evicted (a hit refreshes its
    recency), so a long-running optimizer keeps its working set even
    when the total probe count far exceeds the capacity.

    Entries are stored as ``(pickled payload, sha256)`` pairs and the
    checksum is verified on every hit: a corrupted payload (bit rot, a
    buggy sharer of the process, the chaos injector) is detected,
    evicted and counted (:attr:`n_corrupt`, ``cache.corrupt`` counter)
    — the lookup becomes a miss and the job recomputes instead of the
    caller unpickling garbage.  An outcome that cannot be pickled is
    silently not cached (the batch still returns it normally).  The
    cost is one pickle round-trip per *job-level* hit, far below the
    simulation it saves.
    """

    def __init__(self, max_entries=4096):
        self.max_entries = int(max_entries)
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1, got %r"
                             % (max_entries,))
        self.hits = 0
        self.misses = 0
        #: entries evicted because their checksum no longer matched.
        self.n_corrupt = 0
        self._store = OrderedDict()

    def _drop_corrupt(self, key):
        del self._store[key]
        self.n_corrupt += 1
        self.misses += 1
        obs_counters.inc("cache.corrupt")
        obs_counters.inc("cache.misses")

    def get(self, key):
        entry = self._store.get(key)
        if entry is not None:
            hook = chaoshooks.ACTIVE
            if hook is not None and hook.on_cache_lookup(key):
                # Simulated concurrent eviction: the entry vanishes
                # between the presence check and the read.
                del self._store[key]
                entry = None
        if entry is None:
            self.misses += 1
            obs_counters.inc("cache.misses")
            return None
        payload, sha = entry
        if hashlib.sha256(payload).hexdigest() != sha:
            self._drop_corrupt(key)
            return None
        try:
            outcome = pickle.loads(payload)
        except Exception:
            # A payload that checksums but does not unpickle means the
            # entry was stored corrupt; treat it the same way.
            self._drop_corrupt(key)
            return None
        self.hits += 1
        obs_counters.inc("cache.hits")
        self._store.move_to_end(key)
        return outcome

    def put(self, key, outcome):
        if outcome.error is not None:
            return
        try:
            payload = pickle.dumps(outcome,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        # Checksum the clean payload *before* the chaos hook may damage
        # it — otherwise injected corruption would be undetectable.
        sha = hashlib.sha256(payload).hexdigest()
        hook = chaoshooks.ACTIVE
        if hook is not None:
            payload = hook.on_cache_store(key, payload)
        if key in self._store:
            self._store.move_to_end(key)
        elif len(self._store) >= self.max_entries:
            self._store.popitem(last=False)   # least recently used
        self._store[key] = (payload, sha)

    def stats(self):
        """Measurable snapshot of the cache's effectiveness.

        Returned dict: ``entries`` / ``max_entries`` (occupancy),
        ``hits`` / ``misses`` / ``n_corrupt`` (lifetime tallies) and
        ``hit_rate`` (0.0 when the cache was never consulted).  The
        same tallies stream into the ``cache.hits`` / ``cache.misses``
        / ``cache.corrupt`` process-wide counters
        (:mod:`repro.obs.counters`); this snapshot is the view of one
        cache, e.g. the run-scoped cache of one refinement run.
        """
        total = self.hits + self.misses
        return {
            "entries": len(self._store),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "n_corrupt": self.n_corrupt,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def clear(self):
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.n_corrupt = 0

    def __len__(self):
        return len(self._store)

    def __contains__(self, key):
        return key in self._store


# -- the runner --------------------------------------------------------------

#: Failures of the parent<->worker pipe itself (config or outcome not
#: picklable).  Such a job re-runs in-process; everything else stays in
#: the pool.  TypeError/AttributeError cover CPython's non-PicklingError
#: "cannot pickle ..." paths; a genuine TypeError from design code ends
#: up re-raised by the in-process re-run with a clean traceback.
_PIPE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


def _kill_pool_workers(pool):
    """Hard-kill every worker process of a pool (deadline escalation)."""
    procs = getattr(pool, "_processes", None)
    if not procs:
        return 0
    n = 0
    for proc in list(procs.values()):
        try:
            proc.kill()
            n += 1
        except Exception:
            pass
    return n


class _BatchExecutor:
    """One batch's pool execution state: harvest, quarantine, retries."""

    def __init__(self, n_workers, policy, on_complete, diagnostics,
                 batch_span):
        self.n_workers = n_workers
        self.policy = policy or PoolPolicy()
        self.on_complete = on_complete
        self.diagnostics = diagnostics
        self.batch_span = batch_span
        self.mp_ctx = multiprocessing.get_context("fork")
        #: jobs that must re-run in-process (pipe failures).
        self.serial_jobs = []
        #: (idx, exception) for catch_errors=False jobs that failed.
        self.fatal = []
        self.n_retries = 0
        self.n_quarantined = 0
        self.n_respawns = 0
        self.recovered = False

    # -- reporting ---------------------------------------------------------

    def _diag(self, category, severity, message, **data):
        if self.diagnostics is not None:
            self.diagnostics.add(category, severity, None, message, **data)

    def _note_retry(self, cfg, attempt, delay):
        self.n_retries += 1
        self.recovered = True
        obs_counters.inc("parallel.retries")
        self.batch_span.event("parallel.retry", label=cfg.label,
                              attempt=attempt, delay=delay)
        self._diag("retry", "info",
                   "worker running job %r died; retry %d/%d after %.3gs "
                   "backoff" % (cfg.label, attempt,
                                self.policy.max_retries, delay),
                   label=cfg.label, attempt=attempt, delay=delay)

    def _note_pipe_fallback(self, cfg, exc):
        self.recovered = True
        obs_counters.inc("parallel.pickling_fallbacks")
        self.batch_span.event("parallel.pipe_fallback", label=cfg.label,
                              exc=str(exc))
        self._diag("retry", "info",
                   "job %r could not cross the worker pipe (%s: %s); "
                   "re-running in-process"
                   % (cfg.label, type(exc).__name__, exc),
                   label=cfg.label)

    def _quarantine(self, idx, key, cfg, attempts, reason):
        self.n_quarantined += 1
        self.recovered = True
        obs_counters.inc("parallel.quarantined")
        self.batch_span.event("parallel.quarantine", label=cfg.label,
                              attempts=attempts, reason=reason)
        self._diag("quarantine", "warning",
                   "job %r quarantined after %d attempt(s): %s"
                   % (cfg.label, attempts, reason),
                   label=cfg.label, attempts=attempts, reason=reason)
        message = ("worker crashed (%s); job quarantined after %d "
                   "attempt(s)" % (reason, attempts))
        if cfg.catch_errors:
            self.on_complete(idx, key, cfg, _quarantine_outcome(cfg, message))
        else:
            self.fatal.append((idx, WorkerCrashError(
                "job %r: %s" % (cfg.label, message), label=cfg.label,
                attempts=attempts)))

    def _note_respawn(self):
        self.n_respawns += 1
        obs_counters.inc("parallel.pool_respawns")

    # -- phase A: shared pool ---------------------------------------------

    def run_shared(self, pending):
        """All jobs through one shared pool; harvested incrementally.

        Returns the (idx-sorted) jobs left uncompleted by a pool break —
        empty on a clean batch.  Completed outcomes are delivered
        through ``on_complete`` the moment they arrive, so they survive
        any later failure.
        """
        leftovers = []
        pool = ProcessPoolExecutor(max_workers=self.n_workers,
                                   mp_context=self.mp_ctx)
        try:
            futures = {}
            try:
                for job in pending:
                    futures[pool.submit(_execute_remote, job[2])] = job
            except BrokenProcessPool:
                submitted = {id(job) for job in futures.values()}
                leftovers.extend(job for job in pending
                                 if id(job) not in submitted)
            not_done = set(futures)
            n_delivered = 0
            while not_done:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
                for fut in done:
                    idx, key, cfg = futures[fut]
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        leftovers.append((idx, key, cfg))
                    except _PIPE_ERRORS as exc:
                        self._note_pipe_fallback(cfg, exc)
                        self.serial_jobs.append((idx, key, cfg))
                    except ReproError as exc:
                        self.fatal.append((idx, exc))
                    else:
                        self.on_complete(idx, key, cfg, outcome)
                        n_delivered += 1
                        hook = chaoshooks.ACTIVE
                        if hook is not None:
                            hook.on_pool_drain(pool, n_delivered)
        finally:
            pool.shutdown(wait=True)
        leftovers.sort(key=lambda job: job[0])
        return leftovers

    # -- phase B: isolation pools -----------------------------------------

    def run_isolated(self, jobs):
        """Suspect jobs in single-worker pools: exact crash attribution.

        Each pool runs one job at a time, so a ``BrokenProcessPool`` on
        a future names its poison job unambiguously.  Healthy suspects
        keep running in parallel (up to ``n_workers`` pools); a crasher
        is retried with backoff, then quarantined.  Jobs with a deadline
        get a parent-side escalation: a worker still alive past
        ``2 * deadline + grace`` is hard-killed and the job aborted as a
        deadline hit.
        """
        policy = self.policy
        backoff = policy.backoff_policy()
        queue = deque((idx, key, cfg, 0) for idx, key, cfg in jobs)
        n_pools = max(1, min(self.n_workers, len(queue)))
        pools = {}
        for slot in range(n_pools):
            pools[slot] = self._make_isolated_pool()
        free = [slot for slot, p in pools.items() if p is not None]
        inflight = {}

        def dispatch():
            while free and queue:
                slot = free.pop()
                idx, key, cfg, attempts = queue.popleft()
                fut = pools[slot].submit(_execute_remote, cfg)
                inflight[fut] = {"slot": slot, "idx": idx, "key": key,
                                 "cfg": cfg, "attempts": attempts,
                                 "t0": time.monotonic(), "killed": False}

        def kill_budget(cfg):
            d = cfg.deadline_seconds
            if d is None or d <= 0:
                return None
            return 2.0 * float(d) + policy.deadline_grace

        dispatch()
        while inflight:
            timeout = None
            now = time.monotonic()
            for info in inflight.values():
                budget = kill_budget(info["cfg"])
                if budget is None or info["killed"]:
                    continue
                left = max(0.1, info["t0"] + budget - now)
                timeout = left if timeout is None else min(timeout, left)
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # No progress within the strictest parent-side budget:
                # hard-kill the overdue worker(s); their futures then
                # resolve as BrokenProcessPool and are handled below.
                now = time.monotonic()
                for fut, info in inflight.items():
                    budget = kill_budget(info["cfg"])
                    if (budget is not None and not info["killed"]
                            and now - info["t0"] >= budget):
                        info["killed"] = True
                        _kill_pool_workers(pools[info["slot"]])
                continue
            for fut in done:
                info = inflight.pop(fut)
                slot = info["slot"]
                idx, key, cfg = info["idx"], info["key"], info["cfg"]
                try:
                    outcome = fut.result()
                except BrokenProcessPool:
                    self._note_respawn()
                    pools[slot].shutdown(wait=False)
                    if self.n_respawns > policy.max_respawns:
                        pools[slot] = None
                    else:
                        pools[slot] = self._make_isolated_pool()
                    if pools[slot] is not None:
                        free.append(slot)
                    if info["killed"]:
                        self._deadline_kill(idx, key, cfg)
                    elif (info["attempts"] < policy.max_retries
                          and pools[slot] is not None):
                        attempts = info["attempts"] + 1
                        delay = backoff.delay(attempts, token=cfg.label)
                        self._note_retry(cfg, attempts, delay)
                        if delay > 0:
                            time.sleep(delay)
                        queue.append((idx, key, cfg, attempts))
                    else:
                        self._quarantine(idx, key, cfg,
                                         info["attempts"] + 1,
                                         "worker process died")
                except _PIPE_ERRORS as exc:
                    self._note_pipe_fallback(cfg, exc)
                    self.serial_jobs.append((idx, key, cfg))
                    free.append(slot)
                except ReproError as exc:
                    self.fatal.append((idx, exc))
                    free.append(slot)
                else:
                    self.on_complete(idx, key, cfg, outcome)
                    free.append(slot)
                dispatch()
        for slot, pool in pools.items():
            if pool is not None:
                pool.shutdown(wait=True)
        # Pool budget exhausted with jobs still queued: quarantine them.
        while queue:
            idx, key, cfg, attempts = queue.popleft()
            self._quarantine(idx, key, cfg, attempts + 1,
                             "pool respawn budget exhausted")

    def _make_isolated_pool(self):
        try:
            return ProcessPoolExecutor(max_workers=1, mp_context=self.mp_ctx)
        except OSError:
            return None

    def _deadline_kill(self, idx, key, cfg):
        """A worker ignored its in-job alarm and was killed by us."""
        message = ("simulation %r exceeded its %.3gs deadline (worker "
                   "killed by the parent)"
                   % (cfg.label, cfg.deadline_seconds))
        if cfg.catch_errors:
            outcome = SimOutcome(cfg.label, {}, None, 0,
                                 tuple(getattr(f, "n_fired", None)
                                       for f in cfg.faults),
                                 message, error_kind="deadline")
            self.on_complete(idx, key, cfg, outcome)
        else:
            self.fatal.append((idx, DeadlineExceeded(
                message, deadline=cfg.deadline_seconds, label=cfg.label)))


def _pool_width(workers, n_jobs):
    """Worker processes the pool path would use for ``n_jobs`` (1: serial)."""
    n = min(workers, n_jobs)
    return n if n >= 2 and _fork_available() else 1


def run_simulations(design_factory, configs, workers=None, cache=None,
                    seeded_factory=None, journal=None, diagnostics=None,
                    pool_policy=None):
    """Run a batch of simulation jobs, in parallel when it pays off.

    ``design_factory`` is called (in each worker) to build a fresh
    design per job; ``configs`` is an iterable of :class:`SimConfig`.
    ``workers=None`` auto-sizes to the visible CPUs (serial on a 1-CPU
    box); any explicit ``workers >= 2`` forces a pool when ``fork`` is
    available.  ``cache`` is an optional :class:`SimCache`.

    ``journal`` (a :class:`repro.robust.recovery.Journal` or a path)
    makes the batch resumable: completed outcomes are appended to the
    journal *as they arrive* and replayed bit-exactly — without
    re-simulating — on any later call that produces the same job
    fingerprints.  ``diagnostics`` (a
    :class:`repro.robust.diagnostics.Diagnostics`) collects stable-coded
    recovery events; ``pool_policy`` tunes retry/quarantine behaviour
    (:class:`PoolPolicy`).

    Returns a list of :class:`SimOutcome` in config order — the same
    values a serial loop would produce, regardless of worker count.
    Jobs whose worker crashed land as ``error_kind="crash"`` outcomes
    (under ``catch_errors``) or raise
    :class:`~repro.core.errors.WorkerCrashError` after the healthy rest
    of the batch has completed and been journaled.
    """
    configs = list(configs)
    results = [None] * len(configs)

    if journal is not None and not hasattr(journal, "append"):
        from repro.robust.recovery import Journal
        journal = Journal(journal)

    need_key = cache is not None or journal is not None
    n_corrupt0 = getattr(cache, "n_corrupt", 0)
    pending = []
    n_cached = 0
    n_replayed = 0
    for idx, cfg in enumerate(configs):
        key = None
        if need_key:
            key = fingerprint(design_factory, cfg, seeded_factory)
            hit = cache.get(key) if cache is not None else None
            if hit is None and journal is not None:
                hit = journal.get(key)
                if hit is not None:
                    n_replayed += 1
                    if cache is not None:
                        cache.put(key, hit)
            else:
                if hit is not None:
                    n_cached += 1
            if hit is not None:
                # Cached/journaled outcomes keep their original label;
                # re-label so the caller sees the name it asked for.
                results[idx] = hit if hit.label == cfg.label \
                    else replace(hit, label=cfg.label)
                continue
        pending.append((idx, key, cfg))

    hook = chaoshooks.ACTIVE
    if hook is not None:
        # Fault injection rewrites jobs *after* fingerprinting, so the
        # cache/journal keys of a chaos run match the fault-free run —
        # recovery must land on the same entries.
        pending = [(idx, key, hook.on_job(pos, cfg))
                   for pos, (idx, key, cfg) in enumerate(pending)]

    with obs_trace.span("parallel.batch", jobs=len(configs),
                        cached=n_cached, replayed=n_replayed) as batch_span:
        if n_replayed:
            obs_counters.inc("journal.replays", n_replayed)
            batch_span.event("journal.replay", count=n_replayed,
                             path=getattr(journal, "path", None))
            if diagnostics is not None:
                diagnostics.add(
                    "journal", "info", None,
                    "replayed %d completed outcome(s) from journal %s; "
                    "%d job(s) still to run"
                    % (n_replayed, getattr(journal, "path", "<memory>"),
                       len(pending)),
                    replayed=n_replayed, pending=len(pending))
        n_corrupt = getattr(cache, "n_corrupt", 0) - n_corrupt0
        if n_corrupt:
            batch_span.event("cache.corrupt", count=n_corrupt)
            if diagnostics is not None:
                diagnostics.add(
                    "cache-corrupt", "warning", None,
                    "%d cached outcome(s) failed checksum verification; "
                    "evicted and recomputed" % n_corrupt,
                    count=n_corrupt)
        if not pending:
            batch_span.set(mode="replayed" if n_replayed else "cached",
                           executed=0)
            return results

        executed = []

        def on_complete(idx, key, cfg, outcome):
            """Deliver one outcome: record, journal, count, diagnose."""
            results[idx] = outcome
            executed.append(idx)
            if outcome.error_kind == "deadline":
                obs_counters.inc("parallel.deadline_hits")
                batch_span.event("parallel.deadline", label=cfg.label,
                                 deadline=cfg.deadline_seconds)
                if diagnostics is not None:
                    diagnostics.add(
                        "deadline", "warning", None,
                        "job %r aborted by its %.3gs deadline: %s"
                        % (cfg.label, cfg.deadline_seconds or 0.0,
                           outcome.error),
                        label=cfg.label, deadline=cfg.deadline_seconds)
            if cache is not None and key is not None:
                cache.put(key, outcome)
            if journal is not None and key is not None:
                journal.append(key, outcome)
                if (getattr(journal, "degraded", False)
                        and not getattr(journal, "_degrade_noted", True)):
                    # One warning for the whole fan-out, not one per job.
                    journal._degrade_noted = True
                    batch_span.event("journal.degraded",
                                     path=journal.path,
                                     error=str(journal.io_error))
                    if diagnostics is not None:
                        diagnostics.add(
                            "journal-degraded", "warning", None,
                            "journal %s hit an I/O error (%s); continuing "
                            "in-memory — completed outcomes replay within "
                            "this process but will not survive it"
                            % (journal.path, journal.io_error),
                            path=journal.path, error=str(journal.io_error))

        def run_serial(jobs):
            for idx, key, cfg in jobs:
                on_complete(idx, key, cfg,
                            _execute(cfg, design_factory, seeded_factory))

        mode = "serial"
        fatal = []
        max_workers = default_workers() if workers is None else int(workers)
        n_workers = min(max_workers, len(pending))
        if _pool_width(max_workers, len(pending)) >= 2:
            exe = _BatchExecutor(n_workers, pool_policy, on_complete,
                                 diagnostics, batch_span)
            _WORKER_STATE["factory"] = design_factory
            _WORKER_STATE["seeded_factory"] = seeded_factory
            _WORKER_STATE["parent_pid"] = os.getpid()
            try:
                mode = "pool"
                leftovers = exe.run_shared(pending)
                if leftovers:
                    exe._note_respawn()
                    exe.run_isolated(leftovers)
                if exe.serial_jobs:
                    exe.serial_jobs.sort(key=lambda job: job[0])
                    run_serial(exe.serial_jobs)
                if exe.recovered:
                    mode = "pool-recovered"
                fatal = exe.fatal
                batch_span.set(retries=exe.n_retries,
                               quarantined=exe.n_quarantined,
                               respawns=exe.n_respawns)
            except OSError:
                # Pool infrastructure unavailable (fork failure):
                # jobs are pure, so running the remainder serially
                # is safe — and everything already completed stays
                # completed.
                mode = "serial-fallback"
                remaining = [job for job in pending
                             if results[job[0]] is None]
                run_serial(remaining)
            finally:
                _WORKER_STATE["factory"] = None
                _WORKER_STATE["seeded_factory"] = None
                _WORKER_STATE["parent_pid"] = None
        else:
            run_serial(pending)
        batch_span.set(mode=mode, workers=n_workers,
                       executed=len(executed))

        rec = obs_trace.current_recorder()
        if rec is not None:
            # Merge worker-recorded events into the parent trace, in job
            # order (worker span ids embed the worker pid, so they
            # cannot collide with ids minted here).  Only freshly
            # executed outcomes merge — replayed ones already did, in
            # the run that produced them.
            for idx in sorted(executed):
                outcome = results[idx]
                if outcome is not None and outcome.obs_events:
                    rec.extend(outcome.obs_events)

        if journal is not None:
            skipped_before = getattr(journal, "n_compact_skipped", 0)
            dropped = getattr(journal, "maybe_compact", lambda: 0)()
            if dropped:
                batch_span.event("journal.compact", dropped=dropped)
                if diagnostics is not None:
                    diagnostics.add(
                        "journal-compact", "info", None,
                        "journal %s compacted: %d superseded record(s) "
                        "dropped" % (journal.path, dropped),
                        dropped=dropped)
            elif getattr(journal, "n_compact_skipped", 0) > skipped_before:
                batch_span.event("journal.compact_contended")
                if diagnostics is not None:
                    diagnostics.add(
                        "journal-compact", "warning", None,
                        "journal %s compaction skipped: another process "
                        "holds the compaction lock (their rewrite serves "
                        "both)" % journal.path, contended=True)

        if fatal:
            # The rest of the batch is complete (and journaled); now
            # surface the first failure in job order, as a serial loop
            # would have.
            fatal.sort(key=lambda pair: pair[0])
            raise fatal[0][1]
    return results

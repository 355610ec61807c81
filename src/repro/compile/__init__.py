"""Compiled simulation engine: batched, vectorized re-simulation.

The interpreted engine walks every sample through the Python
``Sig``/``Expr`` hot path — flexible, but each monitored assignment
costs microseconds of pure dispatch.  This package trades that
per-sample Python for per-sample *NumPy*: it records one stub run of
the design as a straight-line instruction tape
(:mod:`repro.compile.tape`), freezes the tape into vector closures over
a ``(B,)`` **batch axis** (:mod:`repro.compile.executor`), and then
simulates all ``B`` (seed, parameter-point, dtype-assignment) variants
of a group in one pass — bit-identically to running each variant
through the interpreted engine.

Entry points
------------
* ``run_simulations(..., engine="compiled")``
  (:mod:`repro.parallel.runner`) — the normal route: eligible configs
  are grouped and batched here, everything else (and every group the
  compiler refuses) falls back to the interpreted path automatically.
  ``engine="auto"`` does the same but lowers only groups of at least
  ``COMPILE_MIN_LANES`` lanes per interpreted worker process; smaller
  groups run interpreted, where they are faster.
* :func:`compile_design` — a direct handle used by tools and
  benchmarks: ``compile_design(factory).run(configs)``.

Eligibility and grouping
------------------------
Configs batch together when they share ``(n_samples, seed,
factory_seed, overflow_action, guard_action)`` — everything that shapes
the control flow and stimulus of the stub run.  Within a group, lanes
may differ arbitrarily in ``label``, ``dtypes``, ``ranges`` and
``catch_errors``.  A config is *ineligible* (never batched, silently
interpreted) when it carries faults, ``error()`` annotations, a
deadline, a watchdog budget, a mid-run error snapshot request,
``monitors="stats"`` or ``"output"`` (the engine always propagates
ranges and monitors every signal, and per-lane interpreted output-only
runs beat it at sweep widths), a dtype
with ``n > 53``, or while :mod:`repro.obs.metrics` collection is
enabled.

Fallback semantics
------------------
Lowering is conservative: any construct the vector engine cannot
reproduce bit-exactly — value-dependent control flow (``if w > 0:``
over signals), signals created inside ``run()``, cross-sample
expression caching, division by zero, non-finite values, error-mode
overflow under ``overflow_action="raise"`` — raises
:class:`CompileFallback`.  The driver then re-runs every config of the
group through the interpreted ``_execute`` path (identical to
``engine="interpreted"``), records a ``DG209`` diagnostic and bumps the
``compile.fallbacks`` counter.  Results are therefore *always* the
interpreted engine's results; the compiled path is purely an
accelerator.

Known contract caveats (documented in ``docs/compilation.md``): design
code that reads ``.fx``/``.fl`` as plain floats observes the stub's
scalar values (fine for logging, wrong to feed back into signals — the
relational/bool hooks catch the feedback cases that steer control
flow), and the per-entry ``DesignContext.overflow_log`` is not
reproduced (``overflow_count`` per signal is exact; no library consumer
reads the log entries).
"""

from __future__ import annotations

import numpy as np

from repro.compile.executor import BatchExecutor
from repro.compile.tape import (CompileFallback, StubContext, TapeStreamer,
                                value_branch_guard)
from repro.obs import counters as obs_counters
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.signal.context import DesignContext

__all__ = ["COMPILER_VERSION", "COMPILE_MIN_LANES", "CompileFallback",
           "CompiledSim", "compile_design", "config_eligible", "group_key",
           "run_compiled_pending"]

#: Version of the lowering scheme; part of the cache/journal fingerprint
#: of compiled runs, so a future compiler change can never serve stale
#: cached outcomes.  Bump on any change to tape/executor semantics.
COMPILER_VERSION = 1

#: Lane crossover of ``engine="auto"``: a group is lowered only when it
#: has at least this many lanes per worker process the interpreted path
#: would use.  A compiled group costs about as much as 12 interpreted
#: runs whatever its width (measured in "Choosing the engine",
#: ``docs/compilation.md``).
COMPILE_MIN_LANES = 12


def config_eligible(cfg):
    """True when ``cfg`` can join a compiled batch at all."""
    if cfg.faults or cfg.errors or cfg.deadline_seconds is not None:
        return False
    if cfg.monitors != "all":
        return False
    if (cfg.snapshot_errors or cfg.max_watchdog_cycles is not None
            or cfg.max_wall_seconds is not None):
        return False
    for dt in cfg.dtypes.values():
        if dt is not None and dt.n > 53:
            return False
    return True


def group_key(cfg):
    """Batch key: everything that shapes the stub run's control flow."""
    return (cfg.n_samples, cfg.seed, cfg.factory_seed,
            cfg.overflow_action, cfg.guard_action)


def _build_lane(design_factory, seeded_factory, cfg):
    """Mirror ``_execute``'s setup phase for one lane (build, no run)."""
    from repro.refine.flow import Annotations

    ctx = DesignContext(cfg.label, seed=cfg.seed,
                        overflow_action=cfg.overflow_action,
                        guard_action=cfg.guard_action)
    with ctx:
        if cfg.factory_seed is not None and seeded_factory is not None:
            design = seeded_factory(cfg.factory_seed)
        else:
            design = design_factory()
        design.build(ctx)
        Annotations(dtypes=cfg.dtypes, ranges=cfg.ranges,
                    errors=cfg.errors).apply(ctx)
    return ctx, design


def _run_group(design_factory, seeded_factory, cfgs):
    """Compile and run one batch; returns (outcomes, n_instructions).

    Raises :class:`CompileFallback` (or lets any unexpected exception
    surface as one via the caller) when the group cannot be lowered.
    """
    from repro.refine.monitors import collect
    from repro.parallel.runner import SimOutcome, overflow_total

    base = cfgs[0]
    lanes = [_build_lane(design_factory, seeded_factory, cfg)
             for cfg in cfgs]
    exe = BatchExecutor([ctx for ctx, _ in lanes], base.overflow_action)

    # The stub re-runs the same build (same factory seed, same context
    # seed — so ctx.rng draws the sequence every lane would draw) and
    # streams its run() through the tape.  It gets *no* annotations:
    # stub values feed only guarded control flow and streamed constants,
    # neither of which annotations may touch.
    stub_ctx = StubContext(base.label, seed=base.seed,
                           overflow_action=base.overflow_action,
                           guard_action=base.guard_action)
    with stub_ctx:
        if base.factory_seed is not None and seeded_factory is not None:
            stub_design = seeded_factory(base.factory_seed)
        else:
            stub_design = design_factory()
        stub_design.build(stub_ctx)
    streamer = TapeStreamer(exe)
    stub_ctx.tracer = streamer
    stub_ctx.streamer = streamer
    try:
        # Scalar Python float arithmetic overflows silently to inf where
        # NumPy would emit RuntimeWarnings; silence them so the vector
        # path warns exactly as much as the interpreted path (never) —
        # non-finite values are caught explicitly and fall back.
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore", under="ignore"):
            with value_branch_guard():
                with stub_ctx:
                    stub_design.run(stub_ctx, base.n_samples)
            streamer.finalize()
    except CompileFallback:
        raise
    except Exception as exc:
        # Anything the stub run raises, the interpreted re-run will
        # raise (or catch) identically — with per-config catch_errors
        # semantics the vector engine cannot reproduce lane-by-lane.
        raise CompileFallback(
            "stub run raised %s: %s" % (type(exc).__name__, exc)) from exc

    exe.write_back()
    outcomes = []
    for cfg, (ctx, design) in zip(cfgs, lanes):
        ctx.cycle = stub_ctx.cycle
        records = collect(ctx)
        obs_metrics.emit(ctx, label=cfg.label)
        outcomes.append(SimOutcome(cfg.label, records,
                                   getattr(design, "output", None),
                                   0, (), None,
                                   overflows=overflow_total(ctx)))
    return outcomes, len(streamer.tape)


def run_compiled_pending(design_factory, seeded_factory, pending,
                         on_complete, diagnostics, execute_fn, min_lanes=1):
    """Batch-execute the eligible jobs of a pending list.

    ``pending`` is the runner's ``[(idx, key, cfg), ...]`` work list;
    completed jobs are delivered through ``on_complete(idx, key, cfg,
    outcome)`` exactly like the interpreted paths.  Groups with fewer
    than ``min_lanes`` lanes are not lowered.

    Returns ``(leftover, compiled_groups, small_groups)``: the jobs
    that must still run interpreted, in pending order (ineligible ones
    and the lanes of small groups — fallen-back groups are re-run here
    via ``execute_fn`` and do not return), the number of groups sent to
    the compiler and the number of groups kept back as too small.
    """
    if obs_metrics.enabled():
        obs_counters.inc("compile.ineligible", len(pending))
        return pending, 0, 0

    leftover = []
    groups = {}
    for job in pending:
        cfg = job[2]
        if config_eligible(cfg):
            groups.setdefault(group_key(cfg), []).append(job)
        else:
            leftover.append(job)
    if leftover:
        obs_counters.inc("compile.ineligible", len(leftover))
    small = [key for key, jobs in groups.items() if len(jobs) < min_lanes]
    if small:
        lanes = [job for key in small for job in groups.pop(key)]
        obs_counters.inc("compile.small_groups", len(lanes))
        leftover = sorted(leftover + lanes, key=lambda job: job[0])

    for key, jobs in groups.items():
        cfgs = [cfg for _idx, _key, cfg in jobs]
        with obs_trace.span("compile.batch", lanes=len(cfgs),
                            samples=key[0]) as sp:
            try:
                outcomes, n_instr = _run_group(design_factory,
                                               seeded_factory, cfgs)
            except CompileFallback as exc:
                obs_counters.inc("compile.fallbacks")
                sp.set(fallback=str(exc))
                sp.event("compile.fallback", reason=str(exc))
                if diagnostics is not None:
                    diagnostics.add(
                        "compile-fallback", "info", None,
                        "compiled batch of %d lanes fell back to the "
                        "interpreted engine: %s" % (len(cfgs), exc))
                for idx, jkey, cfg in jobs:
                    on_complete(idx, jkey, cfg, execute_fn(cfg))
                continue
            obs_counters.inc("compile.batches")
            obs_counters.inc("compile.lanes", len(cfgs))
            obs_counters.inc("compile.samples", key[0] * len(cfgs))
            sp.set(instructions=n_instr)
            for (idx, jkey, cfg), outcome in zip(jobs, outcomes):
                on_complete(idx, jkey, cfg, outcome)
    return leftover, len(groups), len(small)


class CompiledSim:
    """Handle for compiling and batch-running one design factory.

    Thin convenience wrapper over ``run_simulations(engine="compiled")``
    — grouping, fallback and caching behave exactly as there.
    """

    def __init__(self, design_factory, base_config=None,
                 seeded_factory=None):
        from repro.parallel.runner import SimConfig

        self.design_factory = design_factory
        self.seeded_factory = seeded_factory
        self.base_config = base_config if base_config is not None \
            else SimConfig()

    def run(self, configs=None, **kwargs):
        """Simulate ``configs`` (default: the base config) batched.

        Extra keyword arguments are forwarded to
        :func:`repro.parallel.runner.run_simulations`.
        """
        from repro.parallel.runner import run_simulations

        if configs is None:
            configs = [self.base_config]
        return run_simulations(self.design_factory, configs,
                               seeded_factory=self.seeded_factory,
                               engine="compiled", **kwargs)

    def describe(self):
        """Probe lowerability of the base config (1-lane trial compile).

        Returns a dict: ``lowered`` (bool), ``instructions`` (tape
        length when lowered), ``reason`` (fallback reason otherwise),
        ``signals`` and ``compiler_version``.
        """
        cfg = self.base_config
        info = {"compiler_version": COMPILER_VERSION,
                "eligible": config_eligible(cfg)}
        if not info["eligible"]:
            info.update(lowered=False,
                        reason="config ineligible for batching")
            return info
        try:
            outcomes, n_instr = _run_group(self.design_factory,
                                           self.seeded_factory, [cfg])
        except CompileFallback as exc:
            info.update(lowered=False, reason=str(exc))
            return info
        info.update(lowered=True, instructions=n_instr,
                    signals=len(outcomes[0].records), reason=None)
        return info


def compile_design(design_factory, base_config=None, seeded_factory=None):
    """Compile a design factory into a batch-simulation handle.

    >>> from repro.dsp.lms import LmsEqualizerDesign
    >>> sim = compile_design(LmsEqualizerDesign)
    >>> sim.describe()["lowered"]
    True
    """
    return CompiledSim(design_factory, base_config=base_config,
                       seeded_factory=seeded_factory)

"""Simulation engine: schedules processors and drives the clock.

Each engine cycle advances every processor's behaviour generator by one
``yield`` and then commits all registers of the design context (one
clock edge).  Processors communicate through :class:`Channel` FIFOs, so
the schedule order inside a cycle only affects FIFO latencies, never
correctness.

This module also owns the *execution-engine* selection shared by the
batch runner (:func:`repro.parallel.runner.run_simulations`) and the
layers above it (sensitivity analysis, wordlength optimization, fault
campaigns): ``"interpreted"`` walks every sample through the scalar
``Sig`` hot path, ``"compiled"`` lowers the design to batched NumPy
kernels (:mod:`repro.compile`) with automatic per-group fallback, and
``"auto"`` lowers only the groups wide enough to beat the interpreted
path (``repro.compile.COMPILE_MIN_LANES``).  The process default is
``"interpreted"`` unless the ``REPRO_ENGINE`` environment variable or
:func:`set_default_engine` says otherwise; an explicit ``engine=``
argument always wins.
"""

from __future__ import annotations

import os

from repro.core.errors import DeadlockError, SimulationError
from repro.obs import trace as obs_trace
from repro.sim.channel import Channel

__all__ = ["Engine", "ENGINES", "ENGINE_CHOICES", "default_engine",
           "set_default_engine", "resolve_engine"]

#: The execution engines a simulation actually runs on.
ENGINES = ("interpreted", "compiled")

#: Every accepted ``engine=`` value: the engines above plus ``"auto"``,
#: which picks one of them per compiled group.
ENGINE_CHOICES = ENGINES + ("auto",)

_DEFAULT_ENGINE = None   # None -> consult REPRO_ENGINE, else "interpreted"


def default_engine():
    """The engine used when callers pass ``engine=None``.

    Resolution order: :func:`set_default_engine` override, then the
    ``REPRO_ENGINE`` environment variable, then ``"interpreted"``.

    >>> default_engine()
    'interpreted'
    """
    if _DEFAULT_ENGINE is not None:
        return _DEFAULT_ENGINE
    env = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if env in ENGINE_CHOICES:
        return env
    return "interpreted"


def set_default_engine(engine):
    """Set (or with ``None``, clear) the process-wide engine default.

    Returns the previous override so callers can restore it.
    """
    global _DEFAULT_ENGINE
    if engine is not None:
        resolve_engine(engine)
    prev = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return prev


def resolve_engine(engine):
    """Validate an explicit ``engine=`` argument, defaulting ``None``.

    >>> resolve_engine(None)
    'interpreted'
    >>> resolve_engine("auto")
    'auto'
    """
    if engine is None:
        return default_engine()
    if engine not in ENGINE_CHOICES:
        raise ValueError("engine must be one of %s, got %r"
                         % (", ".join(ENGINE_CHOICES), engine))
    return engine


class Engine:
    """Runs a set of processors against one design context.

    ``stall_limit`` arms the deadlock/stall detector: when that many
    consecutive cycles pass with zero channel activity while processors
    are still alive, :class:`~repro.core.errors.DeadlockError` is raised
    instead of spinning forever on a stalled FIFO.
    """

    def __init__(self, ctx, processors=(), stall_limit=None):
        self.ctx = ctx
        self.processors = list(processors)
        self.channels = []
        self.stall_limit = stall_limit
        self._started = False

    def add(self, processor):
        self.processors.append(processor)
        return processor

    def channel(self, name, capacity=None, record=False):
        """Create a channel owned by this engine (for reporting)."""
        ch = Channel(name, capacity=capacity, record=record)
        self.channels.append(ch)
        return ch

    def connect(self, producer, out_port, consumer, in_port, name=None,
                capacity=None, record=False):
        """Wire ``producer.out_port -> consumer.in_port`` with a new FIFO."""
        name = name or "%s.%s->%s.%s" % (producer.name, out_port,
                                         consumer.name, in_port)
        ch = self.channel(name, capacity=capacity, record=record)
        producer.connect_output(out_port, ch)
        consumer.connect_input(in_port, ch)
        return ch

    def build(self):
        """Create all processor signals inside the design context."""
        if not self.processors:
            raise SimulationError("engine has no processors")
        with self.ctx:
            for p in self.processors:
                p.build(self.ctx)
        return self

    def start(self):
        for p in self.processors:
            p.start()
        self._started = True
        return self

    def run(self, cycles=None, until_done=False, watchdog=None,
            stall_limit=None):
        """Advance the simulation.

        ``cycles`` bounds the number of clock edges; with
        ``until_done=True`` the engine additionally stops as soon as
        every processor has finished, or as soon as a whole cycle passes
        with no channel activity (free-running transform processors never
        terminate by themselves — an idle cycle means the pipeline has
        drained).  Returns the number of cycles run.

        ``watchdog`` (any object with ``start()`` and ``check(cycles)``,
        typically :class:`repro.robust.guards.Watchdog`) bounds the run
        by cycle count and wall-clock budget.  ``stall_limit`` overrides
        the engine-level stall detector for this run.
        """
        if not self._started:
            self.build()
            self.start()
        if cycles is None and not until_done and watchdog is None:
            raise SimulationError("run() needs a cycle bound, a watchdog "
                                  "or until_done=True")
        if stall_limit is None:
            stall_limit = self.stall_limit
        if watchdog is not None:
            watchdog.start()
        n = 0
        idle = 0
        # One span per run() call — never per cycle; the hot loop below
        # stays untouched when tracing is disabled.
        with obs_trace.span("sim.engine.run",
                            processors=len(self.processors),
                            channels=len(self.channels)) as sp:
            with self.ctx:
                while cycles is None or n < cycles:
                    activity_before = sum(c.n_put + c.n_get
                                          for c in self.channels)
                    any_alive = False
                    for p in self.processors:
                        if p.step():
                            any_alive = True
                    self.ctx.tick()
                    n += 1
                    if watchdog is not None:
                        watchdog.check(n)
                    activity_after = sum(c.n_put + c.n_get
                                         for c in self.channels)
                    stalled = (self.channels and any_alive
                               and activity_after == activity_before)
                    if until_done:
                        if not any_alive:
                            break
                        if stalled:
                            break
                    idle = idle + 1 if stalled else 0
                    if stall_limit is not None and idle >= stall_limit:
                        alive = [p.name for p in self.processors
                                 if not p.done]
                        raise DeadlockError(
                            "no channel activity for %d consecutive "
                            "cycles; processors still alive: %s"
                            % (idle, ", ".join(alive)),
                            processors=alive, cycles=self.ctx.cycle)
            sp.set(cycles=n)
        return n

    def __repr__(self):
        return "Engine(%d processors, %d channels, cycle=%d)" % (
            len(self.processors), len(self.channels), self.ctx.cycle)

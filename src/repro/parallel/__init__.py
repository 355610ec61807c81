"""Parallel re-simulation runner (see :mod:`repro.parallel.runner`)."""

from repro.parallel.runner import (PoolPolicy, SimConfig, SimOutcome,
                                   default_workers, fingerprint, in_worker,
                                   run_simulations)

__all__ = ["SimConfig", "SimOutcome", "SimCache", "PoolPolicy",
           "run_simulations", "default_workers", "fingerprint",
           "in_worker"]


def __getattr__(name):
    # ``SimCache`` is the outcome store's older name: the path-less
    # :class:`repro.robust.recovery.Journal`.  It resolves on first use,
    # so importing this package does not import ``repro.robust`` (and,
    # through it, ``repro.refine``).
    if name == "SimCache":
        from repro.robust.recovery import Journal
        return Journal
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

"""Removed: the compiled batch engine.

Every simulation runs on the interpreted ``Sig`` path through
:func:`repro.parallel.run_simulations`.  This stub stays only because
the benchmark's layer table still imports the package and wraps
:func:`run_compiled_pending`; nothing in ``repro`` imports it.
"""

__all__ = ["run_compiled_pending"]


def run_compiled_pending(*args, **kwargs):
    """Always raises: there is no compiled engine any more."""
    raise RuntimeError("the compiled engine has been removed; every "
                       "simulation runs interpreted")

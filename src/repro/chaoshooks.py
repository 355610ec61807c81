"""Zero-overhead-when-disabled chaos hook slots for the durability layer.

The durability machinery (the write-ahead
:class:`~repro.robust.recovery.Journal` and the parallel runner's pool
loop) exposes a handful of *fault-injection points* at its I/O and
process boundaries.  Each point costs exactly one module-attribute load
plus an ``is None`` check when no injector is installed::

    hook = chaoshooks.ACTIVE
    if hook is not None:
        data = hook.on_journal_write(self, data)

so production runs pay nothing measurable, while
:class:`repro.robust.chaos.ChaosInjector` can deterministically tear a
journal write, fail an fsync or kill a pool worker — all addressed by a
``(site, trigger, seed)`` triple.

This module deliberately imports **nothing** from the rest of the
package: it is shared by :mod:`repro.parallel.runner` and
:mod:`repro.robust.recovery`, which sit on opposite sides of the
``repro.parallel`` <-> ``repro.robust`` boundary, and must be safely
importable from either while the other is mid-import.

Hooks are *advisory for values, authoritative for failures*: a hook may
rewrite the value it is passed (a journal line, a job config) or
raise — :class:`ChaosCrash` to simulate sudden process death,
:class:`OSError` to simulate an infrastructure error the caller is
expected to survive.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["ACTIVE", "ChaosCrash", "ChaosHooks", "install", "uninstall",
           "armed"]


class ChaosCrash(BaseException):
    """Simulated sudden process death (``kill -9`` / power loss).

    Deliberately a :class:`BaseException`: the durability layer's
    ``except Exception`` / ``except OSError`` recovery paths must *not*
    be able to swallow it — a real ``SIGKILL`` gives no such chance.
    The chaos scenario runner catches it at the entry-point boundary
    and then exercises recovery exactly as a restarted process would.
    """


class ChaosHooks:
    """Protocol of the injectable fault sites (all no-ops by default).

    Subclass and override the sites you want to perturb, then arm the
    instance with :func:`install` / :func:`armed`.  Every method is
    called from the *parent* process (the one running the batch), with
    one exception: a rewritten job config from :meth:`on_job` travels
    into the worker, which is how worker-kill faults reach the far side
    of the fork.
    """

    # -- parallel runner ---------------------------------------------------

    def on_job(self, position, config):
        """A job is about to execute; return the (possibly rewritten)
        config.  ``position`` counts executed jobs of the batch (store
        hits excluded), in submission order."""
        return config

    def on_pool_drain(self, pool, n_delivered):
        """One outcome was harvested from the shared pool; may kill the
        pool's workers to simulate a mid-drain ``BrokenProcessPool``."""

    # -- write-ahead journal ----------------------------------------------

    def on_journal_write(self, journal, data):
        """A record line (newline included) is about to be written;
        return the bytes-to-write, or write a prefix + raise
        :class:`ChaosCrash` for a torn write, or raise :class:`OSError`
        (``ENOSPC``) for a failed write."""
        return data

    def on_journal_fsync(self, journal):
        """``fsync`` is about to run; may raise :class:`OSError`."""

    def on_journal_replace(self, journal):
        """The torn-tail repair is about to ``os.replace`` the journal
        file; may raise :class:`ChaosCrash`."""


#: The installed injector, or None (the fast path).  Read it once into a
#: local before checking — see the module docstring for the idiom.
ACTIVE = None


def install(hooks):
    """Install ``hooks`` as the process-wide injector (returns it)."""
    global ACTIVE
    ACTIVE = hooks
    return hooks


def uninstall():
    """Disarm chaos injection (idempotent)."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def armed(hooks):
    """Context manager: install ``hooks``, always uninstall on exit.

    >>> import repro.chaoshooks as ch
    >>> class Noisy(ChaosHooks):
    ...     def on_journal_fsync(self, journal):
    ...         raise OSError("fsync failed")
    >>> with armed(Noisy()) as h:
    ...     ch.ACTIVE is h
    True
    >>> ch.ACTIVE is None
    True
    """
    install(hooks)
    try:
        yield hooks
    finally:
        uninstall()

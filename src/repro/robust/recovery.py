"""The one outcome store: an in-memory cache or a write-ahead journal.

A refinement campaign is hours of independent simulations, and most of
its loops re-ask for jobs they have already run; a killed process must
not lose the ones that already finished.  One store answers both:
:class:`Journal`, keyed by :func:`repro.parallel.runner.fingerprint`.
``Journal()`` (no path) is the in-memory result store of one call or
session, bounded by ``max_entries`` (least recently used first).
``Journal(path)`` also writes every outcome ahead to a file:
:func:`repro.parallel.run_simulations` appends every completed
:class:`~repro.parallel.runner.SimOutcome` *as the outcome arrives*
(not at batch end), so after a ``kill -9`` the same call replays the
finished jobs bit-exactly from disk and re-runs only the missing ones.
Every entry point that fans out takes ``journal=`` (a store or a path;
:func:`opened` turns a path into a journal for the length of the call):
``optimize_wordlengths``, ``analyze_sensitivity``, ``FaultCampaign.run``,
``run_matrix`` and ``RefinementFlow.run``, whose Fig. 4 loop is a chain
of one-job batches.  The file is append-only JSONL with a versioned
header; every record carries its own SHA-256, so a torn tail (the one
way an append-only file can legitimately be damaged) is detected and
dropped on reopen instead of poisoning the replay.

Two robustness behaviors are part of the journal's contract (and are
exercised by the chaos matrix, :mod:`repro.robust.chaos`):

* **Graceful ENOSPC** — an :class:`OSError` while appending (disk full,
  permission lost, file system gone read-only) *degrades* the journal
  to in-memory-only operation instead of aborting the fan-out: the
  batch finishes, results stay replayable within the process, and the
  runner emits a single ``DG205`` warning.  Pass
  ``on_io_error="raise"`` to get the old fail-fast behavior.
* **Torn-tail repair** — reopening a journal whose last record is torn
  or corrupt atomically rewrites the file without that tail (temp file,
  fsync, ``os.replace``), so a crash during the repair leaves the old
  file intact.

Every I/O boundary consults :data:`repro.chaoshooks.ACTIVE` (one
attribute load + ``is None`` test when disarmed) so the chaos injector
can tear a write, fail an fsync or crash mid-rename deterministically.

Outcome payloads are pickled (then base64-wrapped into the JSON line):
a :class:`SimOutcome` holds full :class:`~repro.refine.monitors.SignalRecord`
snapshots whose floats must replay to the last ulp — a lossy textual
encoding would break the bit-identical-resume contract.  In memory the
store keeps the outcome objects themselves: outcomes and their records
are frozen, so a served outcome is the stored one.

The journal never imports the parallel runner, so
``repro.parallel`` <-> ``repro.robust`` stays acyclic: the runner takes
an already-built journal object and only calls ``get``/``append``.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager

from repro import chaoshooks
from repro.core.errors import JournalError
from repro.obs import counters as obs_counters

__all__ = ["Journal", "JOURNAL_FORMAT", "JOURNAL_VERSION", "opened"]

JOURNAL_FORMAT = "repro-journal"
JOURNAL_VERSION = 1


def _encode(obj):
    payload = base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")
    sha = hashlib.sha256(payload.encode("ascii")).hexdigest()
    return payload, sha


class Journal:
    """Fingerprint-keyed store of completed outcomes, optionally on disk.

    Without a ``path`` the journal is the in-memory result store of
    :func:`repro.parallel.run_simulations`: pass the same instance
    across :func:`analyze_sensitivity` / :func:`optimize_wordlengths`
    calls to skip re-measuring type maps already probed.  At
    ``max_entries`` the least-recently-*used* entry is evicted (a hit
    or a re-append refreshes its recency), so a long-running optimizer
    keeps its working set even when the total probe count far exceeds
    the capacity.

    With a ``path`` it is also a write-ahead journal: the file is
    created (with its parent directory) on first use; an existing
    journal is loaded and its records become immediately replayable
    through :meth:`get`.  A file-backed journal keeps every entry
    (``max_entries`` does not apply).
    ``sync=True`` (default) fsyncs after every append — one completed
    simulation outcome survives even a machine crash; pass
    ``sync=False`` to trade that for lower latency (a ``kill -9`` still
    loses nothing, only an OS crash can).

    Only *completed* outcomes (``outcome.error is None``) are stored:
    errors may be environment-dependent (a deadline hit on a loaded
    machine, a crashed worker) and must re-run on resume.

    The journal is design-agnostic — keys are
    :func:`repro.parallel.runner.fingerprint` digests, which already
    encode the design factory identity — so one journal file can back
    any number of sweeps over any number of designs.

    Lookups are tallied on the instance (:meth:`stats`) and in
    :mod:`repro.obs.counters`: a miss counts ``cache.misses``; a hit
    counts ``journal.replays`` the first time it serves an entry loaded
    from the file, ``cache.hits`` otherwise.

    ``on_io_error`` selects what an :class:`OSError` during an append
    does: ``"degrade"`` (default) switches to in-memory-only operation
    (:attr:`degraded` set, original error kept in :attr:`io_error`),
    ``"raise"`` wraps it in a :class:`JournalError`.

    A reopened journal replays what an earlier process appended (any
    picklable outcome; the runner stores ``SimOutcome``):

    >>> import os, tempfile
    >>> tmp = tempfile.TemporaryDirectory()
    >>> path = os.path.join(tmp.name, "runs", "flow.jsonl")
    >>> with Journal(path) as journal:
    ...     journal.append("job-key", {"sqnr_db": 40.8})
    True
    >>> reopened = Journal(path)
    >>> reopened.get("job-key"), reopened.get("other-key")
    ({'sqnr_db': 40.8}, None)
    >>> reopened.replays, reopened.stats()["hit_rate"]
    (1, 0.5)
    >>> reopened.close()
    >>> tmp.cleanup()
    """

    def __init__(self, path=None, sync=True, on_io_error="degrade",
                 max_entries=4096):
        if on_io_error not in ("degrade", "raise"):
            raise ValueError("on_io_error must be 'degrade' or 'raise', "
                             "got %r" % (on_io_error,))
        if path is None and int(max_entries) < 1:
            raise ValueError("max_entries must be >= 1, got %r"
                             % (max_entries,))
        self.path = None if path is None else os.fspath(path)
        #: LRU capacity of a path-less store (None: unbounded, on disk).
        self.max_entries = int(max_entries) if path is None else None
        self.sync = bool(sync)
        #: the header's ``meta`` map.
        self.meta = {}
        self.on_io_error = on_io_error
        self.hits = 0
        self.misses = 0
        #: hits that served an entry loaded from the file, first time.
        self.replays = 0
        #: records dropped on load because of a torn/corrupt tail.
        self.n_dropped = 0
        #: True once an append-time OSError demoted this journal to
        #: in-memory-only operation (see ``on_io_error``).
        self.degraded = False
        #: the OSError that caused the degrade, for diagnostics.
        self.io_error = None
        self._degrade_noted = False   # runner emitted DG205 already
        self._entries = OrderedDict()
        self._unserved = set()        # loaded keys no lookup served yet
        self._fh = None
        if self.path is not None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._load()
            self._open_append()

    # -- loading -----------------------------------------------------------

    def _load(self):
        if not os.path.exists(self.path):
            return
        with io.open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            return
        header = self._parse_header(lines[0])
        if header is None:
            # Torn header: the process died inside the very first write.
            # Nothing recoverable is in the file — start fresh.
            self.n_dropped = len(lines)
            self._note_dropped()
            os.remove(self.path)
            return
        for i, line in enumerate(lines[1:], start=1):
            rec = self._parse_record(line)
            if rec is None:
                # Append-only files can only be damaged at the tail:
                # drop this record and everything after it.
                self.n_dropped = len(lines) - i
                self._note_dropped()
                self._truncate_to(lines[:i])
                break
            key, label, outcome = rec
            self._entries[key] = outcome
            self._unserved.add(key)

    def _parse_header(self, line):
        try:
            h = json.loads(line)
        except ValueError:
            return None
        if not isinstance(h, dict) or h.get("kind") != "header":
            raise JournalError("%s is not a %s file (first line is not a "
                               "journal header)" % (self.path,
                                                    JOURNAL_FORMAT))
        if h.get("format") != JOURNAL_FORMAT:
            raise JournalError("%s has unknown journal format %r"
                               % (self.path, h.get("format")))
        if h.get("v") != JOURNAL_VERSION:
            raise JournalError(
                "%s is journal version %r; this build reads version %d"
                % (self.path, h.get("v"), JOURNAL_VERSION))
        self.meta = dict(h.get("meta") or {})
        return h

    def _parse_record(self, line):
        try:
            rec = json.loads(line)
            if rec.get("kind") != "outcome":
                return None
            payload = rec["payload"]
            sha = hashlib.sha256(payload.encode("ascii")).hexdigest()
            if sha != rec["sha"]:
                return None
            outcome = pickle.loads(base64.b64decode(payload))
        except Exception:
            return None
        return rec["key"], rec.get("label"), outcome

    def _truncate_to(self, good_lines):
        """Rewrite the file without the torn tail (atomic)."""
        text = "\n".join(good_lines) + "\n"
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(
            os.path.abspath(self.path)), prefix=".journal-", suffix=".tmp")
        try:
            with io.open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            hook = chaoshooks.ACTIVE
            if hook is not None:
                hook.on_journal_replace(self)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def _note_dropped(self):
        if self.n_dropped:
            obs_counters.inc("journal.dropped_records", self.n_dropped)

    # -- appending ---------------------------------------------------------

    def _open_append(self):
        # A 0-byte file counts as fresh: a crash (or ENOSPC) between
        # file creation and the header write must not leave a journal
        # that appends records under no header.
        fresh = not os.path.exists(self.path) \
            or os.path.getsize(self.path) == 0
        try:
            self._fh = io.open(self.path, "a", encoding="utf-8")
            if fresh:
                header = {"v": JOURNAL_VERSION, "format": JOURNAL_FORMAT,
                          "kind": "header", "meta": self.meta}
                self._write_line(json.dumps(header, sort_keys=True))
        except OSError as exc:
            self._degrade(exc)

    def _write_line(self, line):
        data = line + "\n"
        hook = chaoshooks.ACTIVE
        if hook is not None:
            data = hook.on_journal_write(self, data)
        self._fh.write(data)
        self._fh.flush()
        if self.sync:
            if hook is not None:
                hook.on_journal_fsync(self)
            os.fsync(self._fh.fileno())

    def _degrade(self, exc):
        """Demote to in-memory-only after an append-time OSError."""
        obs_counters.inc("journal.io_errors")
        self.degraded = True
        self.io_error = exc
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self.on_io_error == "raise":
            raise JournalError("journal %s: write failed (%s); pass "
                               "on_io_error='degrade' to continue "
                               "in-memory" % (self.path, exc)) from exc

    def append(self, key, outcome):
        """Store one completed outcome (no-op for failed outcomes).

        A file-backed journal writes it ahead first.  Returns True when
        the outcome is replayable through :meth:`get` afterwards —
        including on the degraded in-memory path; only the
        ``journal.appends`` counter distinguishes a durable append.
        """
        if getattr(outcome, "error", None) is not None:
            return False
        if self.path is not None and not self.degraded:
            self._write_record(key, outcome)
        self._unserved.discard(key)
        self._entries[key] = outcome
        if self.max_entries is not None:
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)   # least recently used
        return True

    def _write_record(self, key, outcome):
        if self._fh is None:
            raise JournalError("journal %s is closed" % self.path)
        payload, sha = _encode(outcome)
        rec = {"kind": "outcome", "key": key,
               "label": getattr(outcome, "label", None),
               "sha": sha, "payload": payload}
        try:
            self._write_line(json.dumps(rec, sort_keys=True))
        except OSError as exc:
            self._degrade(exc)
            return
        obs_counters.inc("journal.appends")

    # -- lookup ------------------------------------------------------------

    def get(self, key):
        """The stored outcome of ``key``, or None (see the class doc
        for how each lookup is counted)."""
        outcome = self._entries.get(key)
        if outcome is None:
            self.misses += 1
            obs_counters.inc("cache.misses")
            return None
        self.hits += 1
        if key in self._unserved:
            self._unserved.discard(key)
            self.replays += 1
            obs_counters.inc("journal.replays")
        else:
            obs_counters.inc("cache.hits")
        if self.max_entries is not None:
            self._entries.move_to_end(key)
        return outcome

    def stats(self):
        """Measurable snapshot of the store's effectiveness.

        Returned dict: ``entries`` / ``max_entries`` (occupancy; None
        for a file-backed journal), ``hits`` / ``misses`` (lifetime
        lookup tallies, replays included in ``hits``), ``n_corrupt``
        (records dropped on load, :attr:`n_dropped`) and ``hit_rate``
        (0.0 when the store was never consulted).
        """
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "n_corrupt": self.n_dropped,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def entries(self):
        """Snapshot of all replayable outcomes, ``{key: outcome}``."""
        return dict(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def __len__(self):
        return len(self._entries)

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self):
        return "Journal(%r, %d entrie(s), %d dropped)" % (
            self.path, len(self._entries), self.n_dropped)


@contextmanager
def opened(journal=None, cache=None):
    """The one outcome store of a call: a :class:`Journal` or None.

    ``journal`` and ``cache`` are two names for that store (``cache=``
    is the older one); naming two different objects raises
    :class:`ValueError`.  A path is opened here, once, and closed when
    the block exits; a journal object passes through and stays open, as
    its owner opened it.

    >>> store = Journal()
    >>> with opened(cache=store) as s:
    ...     s is store
    True
    >>> with opened(Journal(), Journal()):
    ...     pass
    Traceback (most recent call last):
    ...
    ValueError: journal= and cache= name one store; got two objects
    """
    if cache is not None:
        if journal is not None and journal is not cache:
            raise ValueError("journal= and cache= name one store; got "
                             "two objects")
        journal = cache
    if journal is None or isinstance(journal, Journal):
        yield journal
        return
    store = Journal(journal)
    try:
        yield store
    finally:
        store.close()

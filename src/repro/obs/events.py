"""Event model and recorder of the observability layer.

Everything the tracer, the metric counters and the profiler emit is a
plain dict — one **event** — collected by a :class:`Recorder`.  These
event kinds exist:

``span_start`` / ``span_end``
    One pair per :func:`repro.obs.trace.span`.  ``span_end`` carries the
    wall-clock duration (``dur``), the final status (``ok`` /
    ``error``) and the span attributes.
``event``
    A point-in-time occurrence inside the current span (e.g. one
    refinement-progress update per MSB iteration).
``metric``
    A per-signal quantization-metrics snapshot (see
    :mod:`repro.obs.metrics`).
``diag``
    One diagnostic (:func:`repro.robust.diagnostics.report`): ``name``
    is its category, plus ``code``, ``severity``, ``signal``,
    ``message`` and the event's data keys.

Events are dicts rather than objects so they cross the fork-pool pipe
(:mod:`repro.parallel.runner`) and the JSONL boundary without any
custom serialization.  Field layout::

    {"ts": <unix time>, "kind": ..., "name": ...,
     "span": <span id or None>, "parent": <parent span id or None>,
     ...attribute keys...}

Span ids embed the producing process id (``"<pid>.<n>"``), so ids
minted inside fork-pool workers never collide with the parent's and the
parent/child chain stays intact when worker events are merged back.
"""

from __future__ import annotations

import json
import os
import time

__all__ = ["Recorder", "new_span_id", "read_jsonl", "write_jsonl"]

#: Monotonic per-process id source; reset lazily after a fork so worker
#: processes mint ids under their own pid.
_IDGEN = {"pid": os.getpid(), "n": 0}


def new_span_id():
    """Mint a process-unique span id (fork-safe)."""
    pid = os.getpid()
    if pid != _IDGEN["pid"]:
        _IDGEN["pid"] = pid
        _IDGEN["n"] = 0
    _IDGEN["n"] += 1
    return "%x.%x" % (pid, _IDGEN["n"])


class Recorder:
    """Bounded in-memory event sink.

    ``capacity`` caps the retained event list; once full, further events
    only increment :attr:`dropped` (the cap protects long refinement
    runs from unbounded growth — raise it for deep traces).
    """

    def __init__(self, capacity=200_000):
        self.capacity = int(capacity)
        self.events = []
        self.dropped = 0
        self.epoch = time.time()
        self.meta = {
            "kind": "meta",
            "schema": 1,
            "epoch": self.epoch,
            "pid": os.getpid(),
        }

    def record(self, event):
        """Append one event dict (drops beyond capacity)."""
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def extend(self, events):
        """Merge a batch of foreign events (e.g. from a fork worker)."""
        for ev in events:
            self.record(ev)

    def mark(self):
        """Current position, for :meth:`events_since`."""
        return len(self.events)

    def events_since(self, mark):
        """Events recorded after a :meth:`mark` (a shallow copy)."""
        return list(self.events[mark:])

    def clear(self):
        self.events.clear()
        self.dropped = 0

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- persistence --------------------------------------------------------

    def to_jsonl(self, dest):
        """Write the meta header plus every event to ``dest``.

        ``dest`` is a path or a writable text file object.  Returns the
        number of events written.
        """
        return write_jsonl(self.events, dest, meta=self.meta)

    def __repr__(self):
        return "Recorder(%d events%s)" % (
            len(self.events),
            ", %d dropped" % self.dropped if self.dropped else "")


def write_jsonl(events, dest, meta=None):
    """Serialize ``events`` as one JSON object per line.

    Attribute values that are not JSON-serializable are repr()-ed so a
    trace can always be written.  Returns the number of event lines.
    """
    own = isinstance(dest, (str, os.PathLike))
    fh = open(dest, "w") if own else dest
    n = 0
    try:
        if meta is not None:
            fh.write(json.dumps(meta, default=repr) + "\n")
        for ev in events:
            fh.write(json.dumps(ev, default=repr) + "\n")
            n += 1
    finally:
        if own:
            fh.close()
    return n


def read_jsonl(src):
    """Read a JSONL trace; returns ``(meta, events)``.

    ``meta`` is the header dict (or ``{}`` when the file has none);
    blank lines are skipped.  ``src`` is a path or a readable text file
    object.
    """
    own = isinstance(src, (str, os.PathLike))
    fh = open(src) if own else src
    meta = {}
    events = []
    try:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("kind") == "meta" and not events and not meta:
                meta = obj
            else:
                events.append(obj)
    finally:
        if own:
            fh.close()
    return meta, events

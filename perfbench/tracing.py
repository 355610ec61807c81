"""In-memory span tracing from outside the program.

The benchmark times the layers of ``repro`` without any tracing code
inside ``src/``: :meth:`Tracer.wrap` replaces a public function (or
method) *where its caller looks it up* with a wrapper that records one
span per call, and :meth:`Tracer.restore` puts every original back.
Spans stay in memory (name, start, end, parent) and are written out
once, when the benchmark ends.

Everything here is single-threaded: spans opened in a forked pool
worker land in the worker's copy of the tracer and are dropped with
it, so only parent-side layers are attributed.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

__all__ = ["Tracer", "self_times", "format_self_times", "covered_below"]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []        # dicts: id, parent, name, start, end, attrs
        self._stack = []
        self._patches = []     # (owner, attr, original)
        self._epoch = perf_counter()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans),
               "parent": self._stack[-1]["id"] if self._stack else None,
               "name": name, "start": perf_counter() - self._epoch,
               "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - self._epoch
            self._stack.pop()

    def wrap(self, owner, attr, name, describe=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``owner`` is the module or class the *caller* resolves ``attr``
        through (a name imported with ``from x import f`` lives in the
        importing module).  ``describe(args, kwargs)`` may return span
        attributes, e.g. the batch size of a runner call.
        """
        original = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = describe(args, kwargs) if describe is not None else {}
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans):
    """``{name: (calls, inclusive_s, self_s)}`` over closed spans.

    A span's self time is its duration minus the part covered by its
    direct children (which never overlap in a single-threaded trace).
    """
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = (covered.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        calls, incl, self_s = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (calls + 1, incl + dur,
                            self_s + dur - covered.get(s["id"], 0.0))
    return table


def format_self_times(spans, title):
    """Self-time table, largest first, with shares of the root spans."""
    table = self_times(spans)
    wall = covered_below(spans, 0) or 1e-12
    lines = [title,
             "%-24s %7s %11s %11s %7s" % ("span", "calls", "incl s",
                                          "self s", "self %")]
    for name, (calls, incl, self_s) in sorted(table.items(),
                                              key=lambda kv: -kv[1][2]):
        lines.append("%-24s %7d %11.4f %11.4f %6.1f%%"
                     % (name, calls, incl, self_s, 100.0 * self_s / wall))
    return "\n".join(lines)


def covered_below(spans, depth):
    """Seconds of root-span time covered by spans at ``depth`` or deeper.

    Depth 0 is a root span, depth 1 its direct children.  Because
    children never overlap, the time covered at depth >= d is the sum
    of the durations of the spans at exactly depth d.
    """
    depth_of = {}
    total = 0.0
    for s in spans:   # parents are always recorded before children
        d = 0 if s["parent"] is None else depth_of[s["parent"]] + 1
        depth_of[s["id"]] = d
        if d == depth:
            total += s["end"] - s["start"]
    return total

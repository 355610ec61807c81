"""Trace exporters: span-tree text, JSONL, and a static HTML timeline.

All exporters consume the plain event dicts of
:mod:`repro.obs.events` — either live from a
:class:`~repro.obs.events.Recorder` or re-read from a JSONL file — and
none of them needs anything beyond the standard library, so a trace
captured on a build box renders anywhere.

* :func:`build_spans` reassembles ``span_start`` / ``span_end`` pairs
  into a :class:`SpanView` forest (children nested under parents,
  cross-process links included).
* :func:`render_text` prints the forest with durations, inline point
  and ``diag`` events (a diagnostic shows its ``DG``/``FX`` code) and a
  per-signal quantization-metrics table.
* :func:`render_html` emits one self-contained HTML file: summary
  cards, a proportional span timeline (hover for attributes), the
  metrics table and the event log.
"""

from __future__ import annotations

import html as _html
import json

__all__ = ["SpanView", "build_spans", "render_text", "render_html",
           "summarize"]

_SPAN_FIELDS = ("ts", "kind", "name", "span", "parent", "dur", "status",
                "exc")
_METRIC_FIELDS = ("ts", "kind", "name", "span", "parent", "signal", "ctx",
                  "label")


class SpanView:
    """One reassembled span: timing, attributes, children, point events."""

    __slots__ = ("name", "span_id", "parent_id", "ts", "dur", "status",
                 "attrs", "children", "events")

    def __init__(self, name, span_id, parent_id, ts):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.ts = ts
        self.dur = None          # None: span never closed (crash/cap)
        self.status = "open"
        self.attrs = {}
        self.children = []
        self.events = []

    def walk(self, depth=0):
        """Yield ``(span, depth)`` depth-first."""
        yield self, depth
        for c in self.children:
            yield from c.walk(depth + 1)

    def __repr__(self):
        return "SpanView(%r, dur=%s, %d children)" % (
            self.name, "%.4fs" % self.dur if self.dur is not None
            else "open", len(self.children))


def build_spans(events):
    """Reassemble the span forest; returns ``(roots, orphans)``.

    ``orphans`` are spans whose parent id never appears in the trace
    (e.g. the parent's events were dropped at the recorder cap); they
    are *also* appended to ``roots`` so nothing silently disappears.
    """
    spans = {}
    roots = []
    orphans = []
    for ev in events:
        kind = ev.get("kind")
        sid = ev.get("span")
        if kind == "span_start":
            sv = SpanView(ev.get("name", "?"), sid, ev.get("parent"),
                          ev.get("ts", 0.0))
            sv.attrs = {k: v for k, v in ev.items()
                        if k not in _SPAN_FIELDS}
            spans[sid] = sv
        elif kind == "span_end":
            sv = spans.get(sid)
            if sv is None:       # start was dropped; synthesize
                sv = SpanView(ev.get("name", "?"), sid, ev.get("parent"),
                              ev.get("ts", 0.0))
                spans[sid] = sv
            sv.dur = ev.get("dur")
            sv.status = ev.get("status", "ok")
            sv.attrs.update({k: v for k, v in ev.items()
                             if k not in _SPAN_FIELDS})
        elif kind in ("event", "diag"):
            sv = spans.get(sid)
            if sv is not None:
                sv.events.append(ev)
    for sv in spans.values():
        parent = spans.get(sv.parent_id)
        if parent is not None:
            parent.children.append(sv)
        else:
            roots.append(sv)
            if sv.parent_id is not None:
                orphans.append(sv)
    for sv in spans.values():
        sv.children.sort(key=lambda s: s.ts)
    roots.sort(key=lambda s: s.ts)
    return roots, orphans


def _collect_metrics(events):
    """Aggregate ``metric`` events per signal (later snapshots win)."""
    per_signal = {}
    for ev in events:
        if ev.get("kind") != "metric":
            continue
        name = ev.get("signal", "?")
        per_signal[name] = ev
    return per_signal


def summarize(events):
    """Headline counts of a trace (dict, JSON-friendly)."""
    kinds = {}
    t_min = t_max = None
    for ev in events:
        kinds[ev.get("kind", "?")] = kinds.get(ev.get("kind", "?"), 0) + 1
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            t_min = ts if t_min is None else min(t_min, ts)
            end = ts + ev.get("dur", 0.0) \
                if isinstance(ev.get("dur"), (int, float)) else ts
            t_max = end if t_max is None else max(t_max, end)
    roots, orphans = build_spans(events)
    n_spans = sum(1 for r in roots for _ in r.walk())
    errors = sum(1 for r in roots for s, _ in r.walk()
                 if s.status == "error")
    return {
        "events": len(events),
        "by_kind": kinds,
        "spans": n_spans,
        "root_spans": len(roots) - len(orphans),
        "orphan_spans": len(orphans),
        "error_spans": errors,
        "wall_s": (t_max - t_min) if t_min is not None else 0.0,
    }


def _fmt_attrs(attrs, limit=6):
    items = list(attrs.items())[:limit]
    return ", ".join("%s=%s" % (k, _short(v)) for k, v in items)


def _short(v, n=48):
    s = "%.4g" % v if isinstance(v, float) else str(v)
    return s if len(s) <= n else s[:n - 1] + "…"


def _point(ev, drop):
    """``(name, attributes)`` of an event, without the ``drop`` fields;
    a diagnostic is named by its code and category."""
    if ev.get("kind") == "diag":
        return ("%s %s" % (ev["code"], ev["name"]),
                {k: v for k, v in ev.items()
                 if k not in _SPAN_FIELDS and k != "code"})
    return (str(ev.get("name", "?")),
            {k: v for k, v in ev.items() if k not in drop})


def render_text(events, max_events_per_span=4):
    """Human-readable span tree + metrics table (one big string).

    Every diagnostic (``diag`` event) is printed; at most
    ``max_events_per_span`` other point events per span are, and a
    line counts the rest."""
    roots, _ = build_spans(events)
    summary = summarize(events)
    out = ["trace: %d event(s), %d span(s), %.4f s wall%s"
           % (summary["events"], summary["spans"], summary["wall_s"],
              ", %d ERROR span(s)" % summary["error_spans"]
              if summary["error_spans"] else "")]
    for root in roots:
        for sv, depth in root.walk():
            dur = "   open " if sv.dur is None else "%7.4fs" % sv.dur
            flag = "" if sv.status in ("ok", "open") else "  [%s]" % sv.status
            attrs = _fmt_attrs(sv.attrs)
            out.append("  %s %s%-s%s%s"
                       % (dur, "  " * depth, sv.name,
                          "  (%s)" % attrs if attrs else "", flag))
            shown = hidden = 0
            for ev in sv.events:
                if ev.get("kind") != "diag":
                    if shown == max_events_per_span:
                        hidden += 1
                        continue
                    shown += 1
                name, ev_attrs = _point(ev, _SPAN_FIELDS)
                extra = _fmt_attrs(ev_attrs)
                out.append("           %s· %s%s"
                           % ("  " * depth, name,
                              "  (%s)" % extra if extra else ""))
            if hidden:
                out.append("           %s· … %d more event(s)"
                           % ("  " * depth, hidden))
    metrics = _collect_metrics(events)
    if metrics:
        out.append("")
        out.append("quantization metrics (%d signal(s)):" % len(metrics))
        out.append("  %-14s %8s %6s %6s %6s %12s %12s %6s %6s"
                   % ("signal", "assigns", "ovf", "sat", "wrap",
                      "rnd-err-mean", "rnd-err-max", "min~", "max~"))
        for name in sorted(metrics):
            m = metrics[name]
            n = m.get("n", 0) or 1
            out.append("  %-14s %8d %6d %6d %6d %12.3g %12.3g %6d %6d"
                       % (name, m.get("n", 0), m.get("overflow", 0),
                          m.get("saturate", 0), m.get("wrap", 0),
                          m.get("round_err_sum", 0.0) / n,
                          m.get("round_err_max", 0.0),
                          m.get("min_churn", 0), m.get("max_churn", 0)))
    return "\n".join(out)


# -- HTML ---------------------------------------------------------------------

_PALETTE = ("#4878cf", "#6acc65", "#d65f5f", "#b47cc7", "#c4ad66",
            "#77bedb", "#e38744", "#8b8b8b")

_CSS = """
body{font:13px/1.45 -apple-system,'Segoe UI',Roboto,sans-serif;
     margin:24px;color:#222;background:#fff}
h1{font-size:18px} h2{font-size:15px;margin-top:28px}
.cards{display:flex;gap:12px;flex-wrap:wrap}
.card{border:1px solid #ddd;border-radius:6px;padding:10px 16px;
      min-width:110px}
.card b{display:block;font-size:20px}
.tl{position:relative;border:1px solid #eee;border-radius:4px;
    margin-top:8px}
.row{position:relative;height:20px;border-bottom:1px solid #f5f5f5}
.bar{position:absolute;top:2px;height:16px;border-radius:3px;
     color:#fff;font-size:10px;overflow:hidden;white-space:nowrap;
     padding:1px 4px;box-sizing:border-box;min-width:2px}
.bar.err{outline:2px solid #d62728}
table{border-collapse:collapse;margin-top:8px}
td,th{border:1px solid #e3e3e3;padding:3px 9px;font-size:12px;
      text-align:right}
td:first-child,th:first-child{text-align:left}
.mono{font-family:ui-monospace,Menlo,Consolas,monospace}
"""


def _root_key(sv):
    return sv.name.split(".", 1)[0]


def render_html(events, title="repro observability report"):
    """Self-contained HTML report (summary, timeline, metrics, log)."""
    roots, _ = build_spans(events)
    summary = summarize(events)
    esc = _html.escape

    flat = [(sv, depth) for root in roots for sv, depth in root.walk()]
    t0 = min((sv.ts for sv, _ in flat), default=0.0)
    t1 = max((sv.ts + (sv.dur or 0.0) for sv, _ in flat), default=1.0)
    scale = max(t1 - t0, 1e-9)
    color_keys = []
    rows = []
    for sv, depth in flat:
        key = _root_key(sv)
        if key not in color_keys:
            color_keys.append(key)
        color = _PALETTE[color_keys.index(key) % len(_PALETTE)]
        left = 100.0 * (sv.ts - t0) / scale
        width = 100.0 * ((sv.dur or 0.0) / scale)
        tip = "%s — %s%s" % (sv.name,
                             "open" if sv.dur is None
                             else "%.4f s" % sv.dur,
                             "; " + _fmt_attrs(sv.attrs, 10)
                             if sv.attrs else "")
        rows.append(
            '<div class="row"><div class="bar%s" '
            'style="left:%.3f%%;width:%.3f%%;background:%s;'
            'margin-left:%dpx" title="%s">%s</div></div>'
            % (" err" if sv.status == "error" else "",
               left, max(width, 0.15), color, 0,
               esc(tip, quote=True), esc(sv.name)))

    metrics = _collect_metrics(events)
    metric_rows = []
    for name in sorted(metrics):
        m = metrics[name]
        n = m.get("n", 0) or 1
        metric_rows.append(
            "<tr><td class=mono>%s</td><td>%d</td><td>%d</td><td>%d</td>"
            "<td>%d</td><td>%.3g</td><td>%.3g</td><td>%d</td><td>%d</td>"
            "</tr>"
            % (esc(str(name)), m.get("n", 0), m.get("overflow", 0),
               m.get("saturate", 0), m.get("wrap", 0),
               m.get("round_err_sum", 0.0) / n,
               m.get("round_err_max", 0.0),
               m.get("min_churn", 0), m.get("max_churn", 0)))

    log_rows = []
    for ev in events[:400]:
        if ev.get("kind") not in ("event", "diag", "span_end"):
            continue
        name, attrs = _point(ev, _SPAN_FIELDS + _METRIC_FIELDS)
        log_rows.append(
            "<tr><td>%.4f</td><td>%s</td><td class=mono>%s</td>"
            "<td style='text-align:left'>%s</td></tr>"
            % (ev.get("ts", 0.0) - t0, esc(ev.get("kind", "?")),
               esc(name), esc(_fmt_attrs(attrs, 10))))

    cards = "".join(
        '<div class="card"><b>%s</b>%s</div>' % (esc(str(v)), esc(k))
        for k, v in (("spans", summary["spans"]),
                     ("events", summary["events"]),
                     ("wall", "%.3f s" % summary["wall_s"]),
                     ("errors", summary["error_spans"]),
                     ("signals", len(metrics))))

    return ("<!doctype html><html><head><meta charset='utf-8'>"
            "<title>%(title)s</title><style>%(css)s</style></head><body>"
            "<h1>%(title)s</h1>"
            "<div class='cards'>%(cards)s</div>"
            "<h2>Span timeline</h2><div class='tl'>%(rows)s</div>"
            "<h2>Quantization metrics</h2>"
            "<table><tr><th>signal</th><th>assigns</th><th>ovf</th>"
            "<th>sat</th><th>wrap</th><th>rnd-err-mean</th>"
            "<th>rnd-err-max</th><th>min churn</th><th>max churn</th>"
            "</tr>%(metrics)s</table>"
            "<h2>Event log</h2>"
            "<table><tr><th>t (s)</th><th>kind</th><th>name</th>"
            "<th>attributes</th></tr>%(log)s</table>"
            "<p style='color:#999'>summary: <span class=mono>%(sum)s"
            "</span></p>"
            "</body></html>") % {
        "title": esc(title), "css": _CSS, "cards": cards,
        "rows": "".join(rows),
        "metrics": "".join(metric_rows) or
                   "<tr><td colspan=9>no metric events "
                   "(enable repro.obs.metrics)</td></tr>",
        "log": "".join(log_rows),
        "sum": esc(json.dumps(summary)),
    }

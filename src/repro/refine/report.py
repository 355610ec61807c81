"""Tabular reports mirroring the paper's Table 1 (MSB) and Table 2 (LSB)."""

from __future__ import annotations

import math

__all__ = ["format_msb_table", "format_lsb_table", "format_types_table",
           "format_diagnostics_table", "format_lint_table", "format_table"]


def format_table(headers, rows, title=None):
    """Plain fixed-width ASCII table."""
    cols = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [
        [str(h)] for h in headers]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(map(str, headers),
                                                       widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt_msb(m):
    if m is None:
        return "-"
    if isinstance(m, float) and math.isinf(m):
        return "?"       # the paper prints '?' for exploded propagation
    return "%d" % m


def _fmt_val(v, nd=4):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "-"
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return "%.*g" % (nd, v)


def _fmt_sci(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "-"
    return "%.2e" % v


def format_msb_table(records, decisions, title="MSB analysis"):
    """Paper Table 1: name, #n, stat min/max/msb, prop min/max/msb, MSB.

    ``records`` maps name -> SignalRecord; ``decisions`` maps name ->
    MsbDecision.  Rows follow declaration order of ``records``.
    """
    headers = ["name", "#n", "min", "max", "msb",
               "prop.min", "prop.max", "prop.msb", "MSB", "mode", "case"]
    rows = []
    for name, rec in records.items():
        dec = decisions.get(name)
        if dec is None:
            continue
        prop = rec.prop
        exploded = dec.case == "explosion"
        rows.append([
            name,
            rec.n_assign,
            _fmt_val(rec.stat_min),
            _fmt_val(rec.stat_max),
            _fmt_msb(dec.stat_msb),
            "?" if exploded else _fmt_val(None if prop.is_empty else prop.lo),
            "?" if exploded else _fmt_val(None if prop.is_empty else prop.hi),
            "?" if exploded else _fmt_msb(dec.prop_msb),
            _fmt_msb(dec.msb),
            dec.mode[:3],
            dec.case,
        ])
    return format_table(headers, rows, title=title)


def format_lsb_table(records, decisions, title="LSB analysis"):
    """Paper Table 2: name, #n, max|e|, mean, std, LSB."""
    headers = ["name", "#n", "max|e|", "mean", "sigma", "LSB", "mode"]
    rows = []
    for name, rec in records.items():
        dec = decisions.get(name)
        if dec is None:
            continue
        lsb = "?" if dec.divergent else ("-" if dec.lsb is None else dec.lsb)
        rows.append([
            name,
            dec.count,
            _fmt_sci(dec.max_abs),
            _fmt_sci(dec.mean),
            _fmt_sci(dec.std),
            lsb,
            dec.mode[:2],
        ])
    return format_table(headers, rows, title=title)


def format_diagnostics_table(events, title="Diagnostics"):
    """Event table of a run's :class:`~repro.robust.diagnostics.Diagnostics`.

    Accepts anything iterable over objects with ``severity``, ``category``,
    ``signal`` and ``message`` attributes.
    """
    headers = ["severity", "category", "signal", "message"]
    rows = [[e.severity, e.category,
             "-" if e.signal is None else e.signal, e.message]
            for e in events]
    return format_table(headers, rows, title=title)


def format_lint_table(findings, title="Lint findings"):
    """Static-analysis findings of :mod:`repro.lint`, one row each."""
    headers = ["rule", "severity", "signal", "message", "fix"]
    rows = [[f.rule_id, f.severity,
             "-" if f.signal is None else f.signal, f.message,
             f.hint or "-"]
            for f in findings]
    if not rows:
        return "%s\n(no findings)" % title if title else "(no findings)"
    return format_table(headers, rows, title=title)


def format_types_table(types, title="Synthesized fixed-point types"):
    """Final type assignment: name, <n,f,...>, range."""
    headers = ["name", "spec", "n", "f", "msb", "min", "max"]
    rows = []
    for name, dt in types.items():
        rows.append([name, dt.spec(), dt.n, dt.f, dt.msb,
                     _fmt_val(dt.min_value), _fmt_val(dt.max_value)])
    return format_table(headers, rows, title=title)

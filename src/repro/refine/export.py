"""Serialization of refinement results (JSON / CSV).

A refinement run is a design decision record: teams check it in next to
the RTL.  This module flattens a :class:`RefinementResult` into plain
dictionaries (JSON-ready) and CSV tables, and can restore the type map
from the JSON form.
"""

from __future__ import annotations

import csv
import io
import json
import math

from repro.core.dtype import DType

__all__ = ["types_to_dict", "types_from_dict", "result_to_dict",
           "result_to_json", "types_to_csv", "lsb_table_to_csv",
           "msb_table_to_csv"]


def _clean(v):
    """JSON-safe scalar (inf/nan become strings)."""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    return v


def types_to_dict(types):
    """``{signal: {"spec": "<n,f,...>", ...}}`` from a type map."""
    out = {}
    for name, dt in types.items():
        out[name] = {
            "spec": dt.spec(),
            "n": dt.n,
            "f": dt.f,
            "vtype": dt.vtype,
            "msbspec": dt.msbspec,
            "lsbspec": dt.lsbspec,
            "min": dt.min_value,
            "max": dt.max_value,
        }
    return out


def types_from_dict(data):
    """Inverse of :func:`types_to_dict` (only the spec is needed)."""
    return {name: DType.from_spec(entry["spec"], name="%s_t" % name)
            for name, entry in data.items()}


def _msb_decision_dict(d):
    return {
        "stat_msb": _clean(d.stat_msb),
        "prop_msb": _clean(d.prop_msb),
        "msb": _clean(d.msb),
        "mode": d.mode,
        "case": d.case,
        "guard_msb": _clean(d.guard_msb),
        "note": d.note,
    }


def _lsb_decision_dict(d):
    return {
        "count": d.count,
        "max_abs": _clean(d.max_abs),
        "mean": _clean(d.mean),
        "std": _clean(d.std),
        "lsb": d.lsb,
        "mode": d.mode,
        "divergent": d.divergent,
        "note": d.note,
    }


def result_to_dict(result):
    """Flatten a :class:`RefinementResult` to a JSON-ready dict."""
    out = {
        "msb": {
            "iterations": result.msb.n_iterations,
            "resolved": result.msb.resolved,
            "annotations": {k: list(v)
                            for k, v in result.msb.annotations.items()},
            "decisions": {name: _msb_decision_dict(d)
                          for name, d in result.msb.final.decisions.items()},
        },
        "lsb": {
            "iterations": result.lsb.n_iterations,
            "resolved": result.lsb.resolved,
            "annotations": dict(result.lsb.annotations),
            "decisions": {name: _lsb_decision_dict(d)
                          for name, d in result.lsb.final.decisions.items()},
        },
        "types": types_to_dict(result.types),
        "verification": {
            "output": result.verification.output,
            "output_sqnr_db": _clean(result.verification.output_sqnr_db),
            "total_overflows": result.verification.total_overflows,
            "overflow_signals": dict(result.verification.overflow_signals),
            "wrap_events": dict(result.verification.wrap_events),
        },
        "baseline_sqnr_db": _clean(result.baseline_sqnr_db),
        "total_bits": result.total_bits(),
    }
    fallbacks = getattr(result, "fallbacks", None)
    if fallbacks:
        out["fallbacks"] = types_to_dict(fallbacks)
    diag = getattr(result, "diagnostics", None)
    if diag:
        out["diagnostics"] = diag.to_dict()
    return out


def result_to_json(result, indent=2):
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def _csv_text(headers, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def types_to_csv(types):
    """CSV of the synthesized type map."""
    rows = [(name, dt.spec(), dt.n, dt.f, dt.msb, dt.vtype, dt.msbspec,
             dt.lsbspec) for name, dt in types.items()]
    return _csv_text(("signal", "spec", "n", "f", "msb", "vtype",
                      "msbspec", "lsbspec"), rows)


def msb_table_to_csv(records, decisions):
    """CSV form of the Table-1-style MSB analysis."""
    rows = []
    for name, rec in records.items():
        d = decisions.get(name)
        if d is None:
            continue
        rows.append((name, rec.n_assign, _clean(rec.stat_min),
                     _clean(rec.stat_max), _clean(d.stat_msb),
                     _clean(d.prop_msb), _clean(d.msb), d.mode, d.case))
    return _csv_text(("signal", "n_assign", "stat_min", "stat_max",
                      "stat_msb", "prop_msb", "msb", "mode", "case"), rows)


def lsb_table_to_csv(records, decisions):
    """CSV form of the Table-2-style LSB analysis."""
    rows = []
    for name in records:
        d = decisions.get(name)
        if d is None:
            continue
        rows.append((name, d.count, _clean(d.max_abs), _clean(d.mean),
                     _clean(d.std), d.lsb, d.mode, d.divergent))
    return _csv_text(("signal", "count", "max_abs", "mean", "std", "lsb",
                      "mode", "divergent"), rows)

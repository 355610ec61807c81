"""JSON and SARIF 2.1.0 serialization of lint reports.

SARIF output carries everything CI annotation needs: an automation run
id, full per-rule metadata (``tool.driver.rules``) and a physical
location for every result — the declaration site of the recorded
signal when there is one, the design's source file otherwise.
"""

from __future__ import annotations

from repro.lint.core import LintReport, all_rules

__all__ = ["to_json_dict", "to_sarif_dict", "SARIF_SCHEMA_URI",
           "SARIF_VERSION"]

SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

#: repro severity -> SARIF result level
_SARIF_LEVEL = {"info": "note", "warning": "warning", "error": "error"}


def to_json_dict(reports):
    """Plain-JSON payload of one or more :class:`LintReport`."""
    reports = _as_list(reports)
    return {
        "tool": "repro-lint",
        "designs": [r.to_dict() for r in reports],
        "totals": {
            "findings": sum(len(r) for r in reports),
            "errors": sum(len(r.errors) for r in reports),
            "warnings": sum(len(r.warnings) for r in reports),
            "suppressed": sum(r.suppressed for r in reports),
        },
    }


def to_sarif_dict(reports, tool_version="1.0.0", extra_rules=()):
    """SARIF 2.1.0 payload of one or more :class:`LintReport`.

    One SARIF *run* per linted design, each with a stable
    ``automationDetails.id`` (no timestamps — output is deterministic
    and diffable in CI).  ``extra_rules`` appends rule metadata beyond
    the registered lint rules — rule-shaped objects with ``id`` /
    ``title`` / ``severity`` / ``description`` / ``hint`` attributes
    (e.g. ``repro.verify.verdict.VERIFY_RULE_METAS`` for the DG210–
    DG212 verdict findings).
    """
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [_sarif_run(r, tool_version, extra_rules)
                 for r in _as_list(reports)],
    }


def _as_list(reports):
    if isinstance(reports, LintReport):
        return [reports]
    return list(reports)


def _rule_metadata(cls):
    return {
        "id": cls.id,
        "name": cls.title or cls.id,
        "shortDescription": {"text": cls.title or cls.id},
        "fullDescription": {"text": cls.description or cls.title},
        "help": {"text": cls.hint or cls.description},
        "defaultConfiguration": {
            "level": _SARIF_LEVEL.get(cls.severity, "warning"),
        },
    }


def _sarif_run(report, tool_version, extra_rules=()):
    rules = list(all_rules()) + list(extra_rules)
    rule_index = {cls.id: i for i, cls in enumerate(rules)}
    return {
        "automationDetails": {"id": "repro-lint/%s" % report.design_name},
        "tool": {
            "driver": {
                "name": "repro-lint",
                "version": tool_version,
                "informationUri":
                    "https://github.com/repro/repro/blob/main/docs/"
                    "static_analysis.md",
                "rules": [_rule_metadata(cls) for cls in rules],
            },
        },
        "results": [_sarif_result(report, f, rule_index)
                    for f in report.findings],
    }


def _sarif_result(report, finding, rule_index):
    if finding.site is not None:
        uri, line = finding.site
    else:
        uri, line = (report.artifact or "unknown"), 1
    location = {
        "physicalLocation": {
            "artifactLocation": {"uri": str(uri)},
            "region": {"startLine": max(1, int(line))},
        },
    }
    if finding.signal is not None:
        location["logicalLocations"] = [
            {"name": finding.signal, "kind": "variable"},
        ]
    message = finding.message
    if finding.hint:
        message += " (fix: %s)" % finding.hint
    result = {
        "ruleId": finding.rule_id,
        "level": _SARIF_LEVEL.get(finding.severity, "warning"),
        "message": {"text": message},
        "locations": [location],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint()},
    }
    if finding.rule_id in rule_index:
        result["ruleIndex"] = rule_index[finding.rule_id]
    return result

"""``python -m repro.lint`` — lint the bundled designs (or your own).

The CLI traces each requested design for a handful of samples (tracing
captures the *static* structure; the sample values are irrelevant), then
runs every registered rule over the captured SFG.  The bundled designs
carry the knowledge-based annotations the paper derives for them (e.g.
``b.range(-0.2, 0.2)`` on the LMS feedback coefficient), so an
unmodified checkout lints clean of error-severity findings — CI treats
any new error as a regression.

Exit status: 0 when no kept finding reaches ``--fail-on`` (default
``error``), 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass, field

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.core import SEVERITY_ORDER, LintConfig, run_lint
from repro.lint.output import to_json_dict, to_sarif_dict
from repro.refine.flow import Annotations
from repro.sfg import record_design

__all__ = ["main", "lint_design", "DesignEntry", "design_registry"]

#: samples to run under trace; structure converges after a few ticks.
DEFAULT_SAMPLES = 16


@dataclass
class DesignEntry:
    """One lintable bundled design plus its a-priori annotations."""

    name: str
    factory: object
    description: str
    #: seed ranges of the primary inputs (AD-converter knowledge).
    input_ranges: dict = field(default_factory=dict)
    #: knowledge-based ``range()`` annotations (paper Section 4.1 style);
    #: keys may be array bases (``"c"`` covers every element).
    ranges: dict = field(default_factory=dict)
    #: secondary sinks that are outputs by intent (not write-only waste).
    extra_outputs: tuple = ()
    samples: int = DEFAULT_SAMPLES


def design_registry():
    """Bundled ``repro.dsp`` designs, keyed by CLI name."""
    from repro.dsp import (AdaptiveLmsDesign, BiquadDesign, CordicDesign,
                           LmsEqualizerDesign, TimingRecoveryDesign)
    entries = [
        DesignEntry(
            "lms", LmsEqualizerDesign,
            "paper Section 4.1 single-coefficient LMS equalizer",
            input_ranges={"x": (-1.5, 1.5)},
            ranges={"b": (-0.2, 0.2)}),
        DesignEntry(
            "adaptive-lms", AdaptiveLmsDesign,
            "fully adaptive N-tap LMS equalizer",
            input_ranges={"x": (-1.5, 1.5)},
            ranges={"c": (-1.0, 1.0)},
            extra_outputs=("y",)),
        DesignEntry(
            "biquad", BiquadDesign,
            "direct-form-II biquad (limit-cycle substrate)",
            input_ranges={"x": (-1.0, 1.0)},
            ranges={"bq.w": (-4.0, 4.0)}),
        DesignEntry(
            "cordic", CordicDesign,
            "unrolled rotation-mode CORDIC",
            input_ranges={"xi": (-1.0, 1.0), "yi": (-1.0, 1.0),
                          "zi": (-1.5, 1.5)},
            extra_outputs=("cr.yo", "cr.z[12]")),
        DesignEntry(
            "timing-recovery", TimingRecoveryDesign,
            "paper Figure 5 timing-recovery loop",
            input_ranges={"in": (-2.0, 2.0)},
            ranges={"nco.eta": (-0.6, 1.1), "nco.mu": (0.0, 1.0),
                    "lf.i": (-0.05, 0.05)},
            extra_outputs=("y", "nco.strobe2"),
            samples=64),
    ]
    return {e.name: e for e in entries}


def _artifact_of(design):
    """Repo-relative source file of a design instance (or None)."""
    try:
        path = inspect.getsourcefile(type(design))
    except TypeError:
        return None
    if path is None:
        return None
    path = os.path.abspath(path)
    rel = os.path.relpath(path, os.getcwd())
    return rel if not rel.startswith("..") else path


def lint_design(entry, config=None, samples=None):
    """Record and lint one :class:`DesignEntry`
    (:func:`~repro.sfg.build.record_design`)."""
    n = samples if samples is not None else entry.samples
    sfg, design = record_design(entry.factory, n,
                                Annotations(ranges=entry.ranges).apply)
    outputs = set(entry.extra_outputs)
    if getattr(design, "output", None):
        outputs.add(design.output)
    return run_lint(sfg, input_ranges=entry.input_ranges,
                    outputs=outputs, design_name=entry.name,
                    artifact=_artifact_of(design), config=config)


def _parse_severity_overrides(pairs):
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(2)
        rule, _, sev = pair.partition("=")
        overrides[rule.strip()] = sev.strip()
    return overrides


def _split_csv(values):
    out = []
    for v in values:
        out.extend(p.strip() for p in v.split(",") if p.strip())
    return out


def build_parser():
    p = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Simulation-free fixed-point hazard linter over the "
                    "traced signal flow graph.")
    p.add_argument("designs", nargs="*",
                   help="bundled design name(s); default: all")
    p.add_argument("--all", action="store_true",
                   help="lint every bundled design")
    p.add_argument("--list", action="store_true",
                   help="list bundled designs and exit")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default: text)")
    p.add_argument("--output", metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--baseline", metavar="PATH",
                   help="suppress findings recorded in this baseline file")
    p.add_argument("--write-baseline", metavar="PATH",
                   help="record all current findings as the new baseline")
    p.add_argument("--fail-on", choices=SEVERITY_ORDER + ("never",),
                   default="error",
                   help="exit 1 when a finding of at least this severity "
                        "survives the baseline (default: error)")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULE", help="disable a rule id (repeatable, "
                                        "comma-separated ok)")
    p.add_argument("--select", action="append", default=[],
                   metavar="RULE", help="run only these rule ids")
    p.add_argument("--severity", action="append", default=[],
                   metavar="RULE=LEVEL",
                   help="override a rule's severity (e.g. FX003=error)")
    p.add_argument("--samples", type=int, default=None,
                   help="samples to run under trace (default: per design)")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    registry = design_registry()
    if args.list:
        width = max(len(n) for n in registry)
        for name, entry in sorted(registry.items()):
            print("%-*s  %s" % (width, name, entry.description))
        return 0

    names = args.designs or sorted(registry)
    if args.all:
        names = sorted(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print("unknown design(s): %s (try --list)" % ", ".join(unknown),
              file=sys.stderr)
        return 2

    config = LintConfig(
        disabled=_split_csv(args.disable),
        enabled_only=_split_csv(args.select) or None,
        severities=_parse_severity_overrides(args.severity))

    reports = [lint_design(registry[n], config=config, samples=args.samples)
               for n in names]

    if args.write_baseline:
        write_baseline(args.write_baseline, reports)
        print("baseline with %d finding(s) written to %s"
              % (sum(len(r) for r in reports), args.write_baseline),
              file=sys.stderr)
    if args.baseline:
        fingerprints = load_baseline(args.baseline)
        reports = [apply_baseline(r, fingerprints) for r in reports]

    if args.format == "json":
        text = json.dumps(to_json_dict(reports), indent=2, sort_keys=True)
    elif args.format == "sarif":
        text = json.dumps(to_sarif_dict(reports), indent=2, sort_keys=True)
    else:
        blocks = []
        for r in reports:
            blocks.append(r.table())
            blocks.append(r.summary())
        blocks.append("total: %d finding(s) across %d design(s)"
                      % (sum(len(r) for r in reports), len(reports)))
        text = "\n\n".join(blocks)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)

    if args.fail_on == "never":
        return 0
    threshold = SEVERITY_ORDER.index(args.fail_on)
    failing = sum(
        1 for r in reports for f in r
        if SEVERITY_ORDER.index(f.severity) >= threshold)
    if failing:
        print("%d finding(s) at or above %r severity"
              % (failing, args.fail_on), file=sys.stderr)
        return 1
    return 0

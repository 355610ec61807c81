"""The scenario matrix: {designs} x {channels} x {faults} x {seeds}.

``run_matrix`` fans every cell of the requested grid through
:func:`repro.parallel.run_simulations` — one batch per (design,
channel) group, and a shared write-ahead
:class:`~repro.robust.recovery.Journal` makes the whole matrix
resumable bit-exactly (kill it mid-run, call again with the same
journal: completed cells replay, the rest execute).  A cell reads only
its design's output statistics plus the run's overflow and guard
totals, so every cell is an output-only job
(``SimConfig(monitors="output")``) and runs interpreted.  Each
design additionally gets an analysis pass — lint cleanliness, the
documented verify pre-flight verdicts and the float reference-model
agreement — all recorded in the artifact.

The committed artifact ``GALLERY_MATRIX.json`` (repo root, next to
``BENCH_throughput.json``) is the CI contract: its ``digest`` covers
the *structural* cell facts (completion, error kinds, fault
attribution, lint/verify statuses) so it is reproducible across
platforms, while measured SQNRs are compared within a tolerance —
see :func:`check_artifact`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.gallery.registry import (factory, gallery, lint_entry,
                                    reference_check, seeded_factory,
                                    verify_entry)
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.parallel import SimConfig, run_simulations
from repro.robust.faults import BitFlip, InputScale, NanInject
from repro.robust.invariants import digest as _digest
from repro.robust.recovery import opened

__all__ = [
    "CHANNEL_MODELS", "FAULT_CAMPAIGNS",
    "SMOKE_AXES", "FULL_AXES",
    "MatrixResult", "run_matrix",
    "matrix_digest", "check_artifact", "write_artifact", "load_artifact",
]

#: named channel models: ``None`` or ``(taps, noise_std, salt)`` specs
#: realised per stimulus column as a :class:`repro.dsp.chan.Channel`.
CHANNEL_MODELS = {
    "clean": None,
    "awgn": ((1.0,), 0.02, 11),
    "multipath": ((1.0, 0.25, -0.1), 0.01, 13),
}


def _faults_clean(entry, n):
    return ()


def _faults_bitflip(entry, n):
    """One storage upset: flip the output word's LSB mid-run."""
    return (BitFlip(entry.output, bit=0, at=n // 2),)


def _faults_input_scale(entry, n):
    """Overdrive the first input by 1.35x (range-headroom stress)."""
    return (InputScale(entry.inputs[0], 1.35),)


def _faults_nan(entry, n):
    """Push one NaN through the first input (guard-layer stress)."""
    return (NanInject(entry.inputs[0], at=n // 3),)


#: named fault campaigns: callables ``(entry, n_samples) -> faults``.
FAULT_CAMPAIGNS = {
    "clean": _faults_clean,
    "bitflip-lsb": _faults_bitflip,
    "input-scale": _faults_input_scale,
    "nan-inject": _faults_nan,
}

#: the pinned CI smoke grid (every axis >= 2 where the ISSUE demands).
SMOKE_AXES = {
    "channels": ("clean", "awgn"),
    "campaigns": ("clean", "bitflip-lsb"),
    "seeds": (101, 202),
    "n_samples": 1024,
}

#: the full grid, CI's ``slow`` lane.
FULL_AXES = {
    "channels": ("clean", "awgn", "multipath"),
    "campaigns": ("clean", "bitflip-lsb", "input-scale", "nan-inject"),
    "seeds": (101, 202, 303),
    "n_samples": 4096,
}

#: artifact schema identifier.
SCHEMA = "repro.gallery.matrix/v1"


class MatrixResult:
    """Everything one matrix run produced.

    ``cells`` are JSON-ready per-cell records (in grid order);
    ``outcomes`` keeps the raw :class:`~repro.parallel.SimOutcome`
    objects aligned with ``cells`` for digest/resume assertions;
    ``design_reports`` maps design name to its analysis summary.
    """

    def __init__(self, mode, axes, cells, outcomes, design_reports):
        self.mode = mode
        self.axes = axes
        self.cells = list(cells)
        self.outcomes = list(outcomes)
        self.design_reports = dict(design_reports)

    def digest(self):
        return matrix_digest(self.cells, self.design_reports)

    @property
    def all_targets_met(self):
        return all(r["meets_target"]
                   for r in self.design_reports.values())

    def to_artifact(self):
        """The committed ``GALLERY_MATRIX.json`` payload."""
        completed = sum(1 for c in self.cells if c["completed"])
        faulted = sum(1 for c in self.cells if c["fault_fired"])
        return {
            "schema": SCHEMA,
            "mode": self.mode,
            "generated_by": "python -m repro.gallery matrix --%s"
                            % self.mode,
            "axes": self.axes,
            "cells": self.cells,
            "designs": self.design_reports,
            "counts": {
                "cells": len(self.cells),
                "completed": completed,
                "fault_fired": faulted,
                "designs": len(self.design_reports),
            },
            "digest": self.digest(),
        }

    def summary(self):
        lines = ["gallery matrix [%s]: %d cell(s), %d design(s)"
                 % (self.mode, len(self.cells),
                    len(self.design_reports))]
        for name in sorted(self.design_reports):
            r = self.design_reports[name]
            lines.append(
                "  %-14s sqnr %6.1f dB (target %5.1f, %s)  lint:%s  "
                "verify:%s"
                % (name, r["sqnr_db_min_clean"], r["sqnr_target_db"],
                   "ok" if r["meets_target"] else "MISS",
                   "clean" if r["lint_clean"] else "FINDINGS",
                   ",".join(v["status"] for v in r["verify"])))
        return "\n".join(lines)


def _structural_cell(cell):
    """The platform-independent subset of one cell record."""
    keys = ("design", "channel", "campaign", "seed", "n_samples",
            "engine", "completed", "error_kind", "fault_fired")
    return {k: cell[k] for k in keys}


def matrix_digest(cells, design_reports):
    """Canonical digest of the matrix's structural facts.

    Measured floats (SQNRs, reference errors) are deliberately outside
    the digest — they are compared within tolerance instead, so the
    committed artifact survives BLAS/libm differences across platforms
    while any change in coverage, completion, fault attribution, lint
    cleanliness or verify status changes the digest.
    """
    structural = {
        "cells": [_structural_cell(c) for c in cells],
        "designs": {
            name: {
                "sqnr_target_db": r["sqnr_target_db"],
                "meets_target": r["meets_target"],
                "lint_clean": r["lint_clean"],
                "verify": [
                    {"property": v["property"], "status": v["status"],
                     "k": v["k"]}
                    for v in r["verify"]],
            }
            for name, r in design_reports.items()},
    }
    return _digest(structural)


def run_matrix(designs=None, channels=None, campaigns=None, seeds=None,
               n_samples=None, smoke=True, journal=None, workers=None,
               analyze=True, verify_backend="enumeration"):
    """Run the scenario matrix; returns a :class:`MatrixResult`.

    Axes default to :data:`SMOKE_AXES` (``smoke=True``, the pinned CI
    grid) or :data:`FULL_AXES`.  ``journal`` (path or Journal) makes
    the run resumable: completed cells replay bit-exactly on a rerun.
    A path is opened once for the whole grid and closed on return.
    ``analyze=False`` skips the per-design lint/verify/reference pass
    (the resume tests exercise only the simulation grid).
    """
    axes = SMOKE_AXES if smoke else FULL_AXES
    reg = gallery()
    names = list(designs) if designs else sorted(reg)
    channels = list(channels) if channels else list(axes["channels"])
    campaigns = list(campaigns) if campaigns else list(axes["campaigns"])
    seeds = [int(s) for s in seeds] if seeds else list(axes["seeds"])
    n = int(n_samples) if n_samples else axes["n_samples"]
    mode = "smoke" if smoke else "full"

    for name in names:
        if name not in reg:
            raise KeyError("unknown gallery design %r (known: %s)"
                           % (name, ", ".join(sorted(reg))))
    for ch in channels:
        if ch not in CHANNEL_MODELS:
            raise KeyError("unknown channel model %r (known: %s)"
                           % (ch, ", ".join(sorted(CHANNEL_MODELS))))
    for camp in campaigns:
        if camp not in FAULT_CAMPAIGNS:
            raise KeyError("unknown fault campaign %r (known: %s)"
                           % (camp, ", ".join(sorted(FAULT_CAMPAIGNS))))

    cells = []
    outcomes = []
    with opened(journal) as store, obs_trace.span(
            "gallery.matrix", mode=mode, designs=len(names),
            channels=len(channels), campaigns=len(campaigns),
            seeds=len(seeds)) as span:
        for name in names:
            entry = reg[name]
            with obs_trace.span("gallery.design", design=name):
                for ch_name in channels:
                    spec = CHANNEL_MODELS[ch_name]
                    grid = [(camp, seed) for camp in campaigns
                            for seed in seeds]
                    configs = []
                    for camp, seed in grid:
                        faults = FAULT_CAMPAIGNS[camp](entry, n)
                        configs.append(SimConfig(
                            label="%s|%s|%s|%d" % (name, ch_name, camp,
                                                   seed),
                            dtypes=entry.dtypes, ranges=entry.ranges,
                            errors=entry.errors, n_samples=n,
                            overflow_action="record",
                            guard_action="record",
                            faults=faults, factory_seed=seed,
                            catch_errors=True, monitors="output"))
                    outs = run_simulations(
                        factory(entry, spec), configs,
                        seeded_factory=seeded_factory(entry, spec),
                        journal=store, workers=workers)
                    for (camp, seed), out in zip(grid, outs):
                        cells.append(_cell_record(
                            entry, ch_name, camp, seed, n, out))
                        outcomes.append(out)
                    obs_counters.inc("gallery.cells", len(configs))
        span.set(cells=len(cells))

        design_reports = {}
        if analyze:
            for name in names:
                with obs_trace.span("gallery.analyze", design=name):
                    design_reports[name] = _analyze_design(
                        reg[name], cells, verify_backend)
                obs_counters.inc("gallery.analyzed")

    return MatrixResult(mode,
                        {"designs": names, "channels": channels,
                         "campaigns": campaigns, "seeds": seeds,
                         "n_samples": n},
                        cells, outcomes, design_reports)


def _cell_record(entry, ch_name, camp, seed, n, out):
    sqnr = None
    overflows = None
    if out.completed:
        try:
            v = out.sqnr_db()
            sqnr = None if not np.isfinite(v) else round(float(v), 2)
        except KeyError:
            sqnr = None
        overflows = out.overflows
    return {
        "design": entry.name,
        "channel": ch_name,
        "campaign": camp,
        "seed": seed,
        "n_samples": n,
        # Every job runs interpreted; the field is kept because the
        # matrix digest and the benchmark's structural check read it.
        "engine": "interpreted",
        "completed": out.completed,
        "error_kind": out.error_kind,
        "fault_fired": bool(out.fault_fired) and any(out.fault_fired),
        "sqnr_db": sqnr,
        "overflows": overflows,
        "guard_trips": int(out.guard_trips) if out.completed else None,
    }


def _analyze_design(entry, cells, verify_backend):
    """Lint + verify + reference agreement + clean-cell SQNR summary."""
    clean = [c["sqnr_db"] for c in cells
             if c["design"] == entry.name and c["campaign"] == "clean"
             and c["channel"] == "clean" and c["sqnr_db"] is not None]
    sqnr_min = round(min(clean), 2) if clean else float("nan")
    sqnr_mean = round(float(np.mean(clean)), 2) if clean else float("nan")
    lint_report = lint_entry(entry)
    lint_errors = [f for f in lint_report if f.severity == "error"]
    verdicts = verify_entry(entry, backend=verify_backend)
    ref_err = reference_check(entry)
    return {
        "description": entry.description,
        "output": entry.output,
        "sqnr_target_db": entry.sqnr_target_db,
        "sqnr_db_min_clean": sqnr_min,
        "sqnr_db_mean_clean": sqnr_mean,
        "meets_target": bool(clean) and sqnr_min >= entry.sqnr_target_db,
        "lint_clean": not lint_errors,
        "lint_findings": len(lint_report),
        "verify": [
            {"property": v.property, "status": v.status, "k": v.k,
             "backend": v.backend, "reason": v.reason}
            for v in verdicts],
        "reference_max_abs_err": float(ref_err),
    }


def write_artifact(result, path):
    """Write the matrix artifact atomically; returns the payload."""
    payload = result.to_artifact()
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return payload


def load_artifact(path):
    with open(path) as fh:
        return json.load(fh)


def check_artifact(fresh, committed, tol_db=0.5):
    """Compare a fresh artifact against the committed one.

    Returns a list of human-readable problems (empty = pass):

    * structural digest mismatch (coverage/completion/lint/verify
      drift),
    * any design missing its documented SQNR target in the fresh run,
    * clean-cell SQNRs drifting more than ``tol_db`` from the committed
      measurement.
    """
    problems = []
    if fresh.get("schema") != committed.get("schema"):
        problems.append("schema mismatch: %r != %r"
                        % (fresh.get("schema"), committed.get("schema")))
        return problems
    if fresh.get("digest") != committed.get("digest"):
        problems.append("matrix digest mismatch: %s != %s (structural "
                        "regression: coverage, completion, lint or "
                        "verify status changed)"
                        % (fresh.get("digest"), committed.get("digest")))
    for name, rep in sorted(fresh.get("designs", {}).items()):
        if not rep.get("meets_target"):
            problems.append(
                "%s: SQNR %.2f dB misses its documented target %.1f dB"
                % (name, rep.get("sqnr_db_min_clean", float("nan")),
                   rep.get("sqnr_target_db", float("nan"))))
    committed_cells = {
        (c["design"], c["channel"], c["campaign"], c["seed"]): c
        for c in committed.get("cells", ())}
    for c in fresh.get("cells", ()):
        if c["campaign"] != "clean" or c["sqnr_db"] is None:
            continue
        key = (c["design"], c["channel"], c["campaign"], c["seed"])
        old = committed_cells.get(key)
        if old is None or old.get("sqnr_db") is None:
            continue
        drift = abs(c["sqnr_db"] - old["sqnr_db"])
        if drift > tol_db:
            problems.append(
                "%s|%s|%s|%d: SQNR drifted %.2f dB (%.2f -> %.2f, "
                "tolerance %.2f)"
                % (key + (drift, old["sqnr_db"], c["sqnr_db"], tol_db)))
    return problems

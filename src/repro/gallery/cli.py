"""``python -m repro.gallery`` — list designs, run one, run the matrix.

Three subcommands:

* ``list`` — the registry with targets and verify expectations,
* ``run NAME`` — one fully annotated simulation (plus lint + verify
  pre-flight) of a single design,
* ``matrix`` — the scenario matrix; ``--out`` writes
  ``GALLERY_MATRIX.json``, ``--check PATH`` re-runs the grid and exits
  1 when the fresh result regresses against the committed artifact
  (digest, SQNR targets, per-cell SQNR drift).

Exit status: 0 ok, 1 regression/SQNR miss, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.gallery.matrix import (CHANNEL_MODELS, FAULT_CAMPAIGNS,
                                  check_artifact, load_artifact,
                                  run_matrix, write_artifact)
from repro.gallery.registry import (gallery, lint_entry, single_run,
                                    verify_entry)

__all__ = ["main", "build_parser"]


def _split_csv(values):
    out = []
    for v in values or ():
        out.extend(p.strip() for p in v.split(",") if p.strip())
    return out


def build_parser():
    p = argparse.ArgumentParser(
        prog="python -m repro.gallery",
        description="Design gallery: registry, single runs and the "
                    "scenario matrix.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sub.add_parser("list", help="list registered designs")

    pr = sub.add_parser("run", help="run one design (sim+lint+verify)")
    pr.add_argument("design", help="gallery design name")
    pr.add_argument("--samples", type=int, default=None,
                    help="override the entry's sample count")
    pr.add_argument("--seed", type=int, default=None,
                    help="stimulus seed (default: entry base seed)")
    pr.add_argument("--channel", choices=sorted(CHANNEL_MODELS),
                    default="clean", help="channel model (default: clean)")
    pr.add_argument("--json", action="store_true",
                    help="machine-readable output")

    pm = sub.add_parser("matrix", help="run the scenario matrix")
    grid = pm.add_mutually_exclusive_group()
    grid.add_argument("--smoke", action="store_true", default=True,
                      help="pinned small grid (default)")
    grid.add_argument("--full", action="store_true",
                      help="full grid (slow)")
    pm.add_argument("--out", metavar="PATH",
                    help="write the artifact JSON here")
    pm.add_argument("--check", metavar="PATH",
                    help="compare against a committed artifact; exit 1 "
                         "on regression")
    pm.add_argument("--journal", metavar="PATH",
                    help="write-ahead journal for bit-exact resume")
    pm.add_argument("--designs", action="append", default=[],
                    metavar="NAME", help="subset of designs (csv ok)")
    pm.add_argument("--channels", action="append", default=[],
                    metavar="CH", help="subset of channel models")
    pm.add_argument("--campaigns", action="append", default=[],
                    metavar="CAMP", help="subset of fault campaigns")
    pm.add_argument("--seeds", action="append", default=[],
                    metavar="SEED", help="subset of seeds")
    pm.add_argument("--samples", type=int, default=None,
                    help="override samples per cell")
    pm.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: auto)")
    return p


def _cmd_list():
    entries = gallery()
    width = max(len(n) for n in entries)
    for name in sorted(entries):
        e = entries[name]
        verify = (", ".join("%s@k=%d" % (prop, k)
                            for prop, k, _ in e.verify_checks)
                  or "skipped")
        print("%-*s  target %5.1f dB  verify %-28s  %s"
              % (width, name, e.sqnr_target_db, verify, e.description))
    return 0


def _cmd_run(args):
    entries = gallery()
    if args.design not in entries:
        print("unknown design %r (try `list`)" % args.design,
              file=sys.stderr)
        return 2
    entry = entries[args.design]
    channel = CHANNEL_MODELS[args.channel]
    out = single_run(entry, seed=args.seed, channel=channel,
                     n_samples=args.samples)
    lint_report = lint_entry(entry)
    verdicts = verify_entry(entry)
    sqnr = out.sqnr_db()
    ok = out.completed and sqnr >= entry.sqnr_target_db
    if args.json:
        print(json.dumps({
            "design": entry.name,
            "channel": args.channel,
            "completed": out.completed,
            "sqnr_db": round(float(sqnr), 2),
            "sqnr_target_db": entry.sqnr_target_db,
            "meets_target": bool(ok),
            "lint_findings": len(lint_report),
            "verify": [v.to_dict() for v in verdicts],
        }, indent=2, sort_keys=True))
    else:
        print("%s [%s]: SQNR %.2f dB (target %.1f dB) -> %s"
              % (entry.name, args.channel, sqnr, entry.sqnr_target_db,
                 "ok" if ok else "MISS"))
        print(lint_report.summary())
        for v in verdicts:
            print("  " + v.describe())
    return 0 if ok else 1


def _cmd_matrix(args):
    result = run_matrix(
        designs=_split_csv(args.designs) or None,
        channels=_split_csv(args.channels) or None,
        campaigns=_split_csv(args.campaigns) or None,
        seeds=[int(s) for s in _split_csv(args.seeds)] or None,
        n_samples=args.samples, smoke=not args.full, journal=args.journal,
        workers=args.workers)
    print(result.summary())
    if args.out:
        write_artifact(result, args.out)
        print("artifact written to %s" % args.out)
    status = 0
    if not result.all_targets_met:
        print("SQNR target missed", file=sys.stderr)
        status = 1
    if args.check:
        problems = check_artifact(result.to_artifact(),
                                  load_artifact(args.check))
        for p in problems:
            print("REGRESSION: %s" % p, file=sys.stderr)
        if problems:
            status = 1
        else:
            print("artifact check against %s: ok" % args.check)
    return status


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.cmd == "list":
        return _cmd_list()
    if args.cmd == "run":
        return _cmd_run(args)
    return _cmd_matrix(args)

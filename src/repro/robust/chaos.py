"""Deterministic infrastructure-fault injection + recovery verification.

The simulator's durability machinery is a write-ahead outcome journal
and poison-job quarantine.  This module is its proof layer: instead of
trusting a handful of hand-picked crash tests, it injects faults
*deterministically* at every I/O and process boundary the durability
layer depends on, then machine-checks the recovery against the five
invariants of :mod:`repro.robust.invariants` (durability, exactness,
attribution, monotonicity, termination).

Every fault is addressed by a ``(site, trigger, seed)`` triple:

* ``site`` — which boundary to perturb (see :data:`SITES`);
* ``trigger`` — the 0-based *occurrence* of that boundary event at
  which the fault fires (the 3rd journal write, the 2nd fsync, ...);
* ``seed`` — drives the fault's free choices (where to cut a torn
  write, which byte to flip) through a private ``random.Random``.

Nothing else is random: re-running a scenario replays byte-identical
damage, so any red matrix cell reproduces locally with::

    python -m repro.robust.chaos replay run_simulations:journal.torn_write:2:1

A scenario runs one *entry point* (``run_simulations``,
``optimize_wordlengths``, ``analyze_sensitivity``, ``FaultCampaign.run``
or ``RefinementFlow.run``) twice against one working directory:
**phase 1** armed (the fault fires; the entry may complete degraded,
raise, or "die" via :class:`~repro.chaoshooks.ChaosCrash`), then
**phase 2** disarmed — the restarted process, recovering from whatever
the journal survived.  Phase 2's results must be bit-identical to a
memoized fault-free reference run.

CLI::

    python -m repro.robust.chaos list            # the scenario matrix
    python -m repro.robust.chaos run --smoke     # pinned CI subset
    python -m repro.robust.chaos run --full      # everything
    python -m repro.robust.chaos replay SID      # one scenario, verbose
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import chaoshooks
from repro.chaoshooks import ChaosCrash, ChaosHooks
from repro.core.dtype import DType
from repro.core.errors import ReproError
from repro.obs import counters as obs_counters
from repro.parallel.runner import PoolPolicy, SimConfig, run_simulations
from repro.refine.flow import Design, FlowConfig, RefinementFlow
from repro.refine.optimizer import optimize_wordlengths
from repro.refine.sensitivity import analyze_sensitivity
from repro.robust.diagnostics import Diagnostics, report
from repro.robust.faults import BitFlip, FaultCampaign, SeedPerturb, \
    WorkerCrash, WorkerHang
from repro.robust.invariants import (InvariantCheck, batch_digest,
                                     check_attribution, check_durability,
                                     check_exactness, check_monotonicity,
                                     check_termination, digest,
                                     journal_digests)
from repro.robust.recovery import Journal
from repro.robust.retry import BackoffPolicy
from repro.signal import Reg, Sig

__all__ = ["SITES", "ENTRIES", "ChaosInjector", "ChaosScenario",
           "ScenarioReport", "run_scenario", "build_matrix", "run_matrix",
           "main"]

#: Every injectable fault site, named ``boundary.failure``.
SITES = (
    "journal.torn_write",      # append dies mid-write (partial line)
    "journal.enospc",          # append write raises ENOSPC
    "journal.fsync_fail",      # fsync after a good write raises EIO
    "journal.corrupt_record",  # record bytes garbled on the way to disk
    "journal.compact_crash",   # process dies during an atomic rewrite
    "worker.crash",            # pool worker os._exit mid-job
    "worker.hang",             # pool worker sleeps past its deadline
    "pool.break",              # all workers SIGKILLed mid-drain
)

#: Sites where phase 1 legitimately blames the victim job.
_BLAMING_SITES = ("worker.crash", "worker.hang")

#: Sites that need a real fork pool (workers=2); the rest run serial so
#: an injected crash propagates cleanly through the in-process path.
_POOL_SITES = ("worker.crash", "worker.hang", "pool.break")


class ChaosInjector(ChaosHooks):
    """Fires exactly one fault, at one boundary occurrence, repeatably.

    Occurrences are counted per *stream* (all journal writes share one
    stream, all fsyncs another); the fault fires once, when the stream
    count reaches ``trigger``.

    All free choices come from a private PRNG seeded by the
    ``(site, trigger, seed)`` triple, so the injected damage is
    byte-identical across replays.
    """

    #: the signal name worker faults latch onto — assigned once per
    #: sample by :class:`ChaosProbeDesign`.
    CRASH_SIGNAL = "y"

    def __init__(self, site, trigger=0, seed=0):
        if site not in SITES:
            raise ValueError("unknown chaos site %r (see chaos.SITES)"
                             % (site,))
        self.site = site
        self.trigger = int(trigger)
        self.seed = int(seed)
        blob = hashlib.sha256(("%s:%d:%d" % (site, trigger, seed))
                              .encode("ascii")).digest()
        self.rng = random.Random(int.from_bytes(blob[:8], "big"))
        self.counts = {}
        #: structured log of every injection this instance performed.
        self.events = []
        #: label of the job the fault was injected into (None for
        #: infrastructure-level sites — nothing may be blamed then).
        self.victim = None

    def _tick(self, stream):
        n = self.counts.get(stream, 0)
        self.counts[stream] = n + 1
        return n

    def _record(self, stream, occurrence, **detail):
        obs_counters.inc("chaos.injected")
        self.events.append(dict(site=self.site, stream=stream,
                                occurrence=occurrence, **detail))

    # -- journal -----------------------------------------------------------

    def on_journal_write(self, journal, data):
        if self.site not in ("journal.torn_write", "journal.enospc",
                             "journal.corrupt_record"):
            return data
        n = self._tick("journal.write")
        if n != self.trigger:
            return data
        if self.site == "journal.torn_write":
            cut = self.rng.randrange(1, max(2, len(data) - 1))
            journal._fh.write(data[:cut])
            journal._fh.flush()
            self._record("journal.write", n, action="torn", cut=cut,
                         length=len(data))
            raise ChaosCrash("torn journal write (%d of %d bytes hit "
                             "disk)" % (cut, len(data)))
        if self.site == "journal.enospc":
            self._record("journal.write", n, action="enospc")
            raise OSError(errno.ENOSPC,
                          "No space left on device (injected)")
        # journal.corrupt_record: garble bytes inside the payload so the
        # line stays parseable JSON but fails its sha — the torn-tail
        # detector must drop it (and everything after) on reopen.
        marker = '"payload": "'
        pos = data.find(marker)
        if pos >= 0:
            start = pos + len(marker) + 8 + self.rng.randrange(8)
        else:
            start = max(1, len(data) // 2)   # header line: tear it up
        garbled = data[:start] + "!!CHAOS!!" + data[start + 9:]
        self._record("journal.write", n, action="corrupt", offset=start)
        return garbled

    def on_journal_fsync(self, journal):
        if self.site != "journal.fsync_fail":
            return
        n = self._tick("journal.fsync")
        if n == self.trigger:
            self._record("journal.fsync", n, action="eio")
            raise OSError(errno.EIO, "fsync failed (injected)")

    def on_journal_replace(self, journal):
        if self.site != "journal.compact_crash":
            return
        n = self._tick("journal.replace")
        if n == self.trigger:
            self._record("journal.replace", n, action="crash")
            raise ChaosCrash("process died during atomic journal rewrite")

    # -- workers / pool ----------------------------------------------------

    def on_job(self, position, config):
        if self.site not in ("worker.crash", "worker.hang"):
            return config
        n = self._tick("job")
        if n != self.trigger:
            return config
        self.victim = config.label
        if self.site == "worker.crash":
            fault = WorkerCrash(self.CRASH_SIGNAL, at=5)
            self._record("job", n, action="worker_crash",
                         label=config.label)
            return replace(config, faults=config.faults + (fault,))
        fault = WorkerHang(self.CRASH_SIGNAL, at=5, seconds=8.0)
        self._record("job", n, action="worker_hang", label=config.label)
        # The hang needs a deadline to be survivable; 1.5s bounds the
        # job, the parent's 2*deadline+grace kill bounds even a worker
        # that blocks its alarm.
        return replace(config, faults=config.faults + (fault,),
                       deadline_seconds=1.5)

    def on_pool_drain(self, pool, n_delivered):
        if self.site != "pool.break":
            return
        n = self._tick("pool.drain")
        if n == self.trigger:
            from repro.parallel.runner import _kill_pool_workers
            killed = _kill_pool_workers(pool)
            self._record("pool.drain", n, action="kill_workers",
                         workers=killed, delivered=n_delivered)


# -- the probe workload ------------------------------------------------------

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
T_P = DType("T_p", 10, 8, "tc", "saturate", "round")
T_ACC = DType("T_acc", 12, 9, "tc", "saturate", "round")

PROBE_TYPES = {"x": T_IN, "p": T_P, "acc": T_ACC, "y": T_ACC}


class ChaosProbeDesign(Design):
    """Small leaky-accumulator probe: cheap, feedback, 4 signals.

    ``y`` is assigned exactly once per sample, which is what the
    worker-crash/hang faults latch onto
    (:attr:`ChaosInjector.CRASH_SIGNAL`).
    """

    name = "chaos-probe"
    inputs = ("x",)
    output = "y"

    def __init__(self, seed=2024):
        self.seed = seed

    def build(self, ctx):
        self.x = Sig("x")
        self.p = Sig("p")
        self.acc = Reg("acc")
        self.y = Sig("y")
        rng = np.random.default_rng(self.seed)
        self._stim = iter(rng.uniform(-1, 1, size=65536).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.p.assign(self.x * 0.5)
            self.acc.assign(self.acc * 0.75 + self.p)
            self.y.assign(self.acc + self.x * 0.125)
            ctx.tick()


def probe_factory():
    return ChaosProbeDesign()


def probe_seeded(seed):
    return ChaosProbeDesign(seed=seed)


# Explicit identities: journal keys must be stable across the reference
# run, phase 1 and phase 2 — and across processes.
probe_factory.fingerprint = "chaos-probe-v1"
probe_seeded.fingerprint = "chaos-probe-seeded-v1"

#: Fast, jitter-free retries so scenario wall-clock stays test-sized.
FAST_POLICY = PoolPolicy(max_retries=1,
                         backoff=BackoffPolicy(base=0.01, cap=0.05,
                                               jitter=0.0),
                         deadline_grace=2.0)

_JOURNAL_NAME = "journal.jsonl"


# -- entry-point adapters ----------------------------------------------------
#
# Each adapter runs one public fan-out entry against a working directory
# (owning that directory's journal file) and reduces the caller-observable
# result to a canonical digest.  Recovery events reach the collector the
# scenario opens around the call.

def _entry_run_simulations(workdir, workers):
    """Two passes over one batch through one journal.

    The second pass is served from the journal the first one filled, so
    a fault that degraded or damaged it must still give bit-identical
    outcomes.
    """
    journal = Journal(os.path.join(workdir, _JOURNAL_NAME),
                      compact_threshold=4096)
    try:
        configs = [SimConfig(label="job%d" % i, dtypes=PROBE_TYPES,
                             n_samples=96, seed=100 + i)
                   for i in range(6)]
        first = run_simulations(probe_factory, configs, workers=workers,
                                journal=journal, pool_policy=FAST_POLICY)
        second = run_simulations(probe_factory, configs, workers=workers,
                                 journal=journal, pool_policy=FAST_POLICY)
    finally:
        journal.close()
    return digest([batch_digest(first), batch_digest(second)])


def _entry_optimize(workdir, workers):
    journal = Journal(os.path.join(workdir, _JOURNAL_NAME))
    try:
        result = optimize_wordlengths(
            probe_factory, {"p": T_P, "acc": T_ACC, "y": T_ACC},
            {"x": T_IN}, target_db=30.0, n_samples=64, seed=11,
            max_moves=6, workers=workers, journal=journal)
    finally:
        journal.close()
    return digest(result)


def _entry_sensitivity(workdir, workers):
    journal = Journal(os.path.join(workdir, _JOURNAL_NAME))
    try:
        sens = analyze_sensitivity(
            probe_factory, {"p": T_P, "acc": T_ACC, "y": T_ACC},
            {"x": T_IN}, n_samples=64, seed=11, workers=workers,
            journal=journal)
    finally:
        journal.close()
    return digest(sens)


def _entry_campaign(workdir, workers):
    journal = Journal(os.path.join(workdir, _JOURNAL_NAME))
    try:
        campaign = FaultCampaign(probe_factory, PROBE_TYPES, n_samples=96,
                                 seed=5, seeded_factory=probe_seeded)
        # One fault per kind, so job labels stay unique and blame is
        # unambiguous for the attribution invariant.
        result = campaign.run([BitFlip("y", bit=2, at=10),
                               SeedPerturb(4242)],
                              workers=workers, journal=journal,
                              pool_policy=FAST_POLICY)
    finally:
        journal.close()
    return digest(result)


def _entry_flow(workdir, workers):
    flow = RefinementFlow(probe_factory, input_types={"x": T_IN},
                          input_ranges={"x": (-1.0, 1.0)},
                          config=FlowConfig(n_samples=256, seed=9,
                                            lint_design=False))
    result = flow.run(strict=True,
                      journal=os.path.join(workdir, _JOURNAL_NAME))
    return digest(result.types)


ENTRIES = {
    "run_simulations": _entry_run_simulations,
    "optimize_wordlengths": _entry_optimize,
    "analyze_sensitivity": _entry_sensitivity,
    "fault_campaign": _entry_campaign,
    "refinement_flow": _entry_flow,
}

#: Which sites make sense against which entry.  Journal sites run the
#: entries that take ``journal=``.
SITE_ENTRIES = {
    "journal.torn_write": ("run_simulations", "optimize_wordlengths",
                           "analyze_sensitivity", "fault_campaign",
                           "refinement_flow"),
    "journal.enospc": ("run_simulations", "optimize_wordlengths",
                       "analyze_sensitivity", "fault_campaign",
                       "refinement_flow"),
    "journal.fsync_fail": ("run_simulations", "optimize_wordlengths",
                           "analyze_sensitivity", "fault_campaign",
                           "refinement_flow"),
    "journal.corrupt_record": ("run_simulations", "fault_campaign",
                               "analyze_sensitivity", "refinement_flow"),
    "journal.compact_crash": ("run_simulations",),
    "worker.crash": ("run_simulations", "fault_campaign"),
    "worker.hang": ("run_simulations",),
    "pool.break": ("run_simulations", "fault_campaign"),
}


# -- scenarios ---------------------------------------------------------------

@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the matrix: an entry point under one addressed fault."""

    entry: str
    site: str
    trigger: int
    seed: int
    workers: int = 1
    #: termination budget (seconds) for fault + recovery together.
    budget: float = 120.0

    @property
    def sid(self):
        return "%s:%s:%d:%d" % (self.entry, self.site, self.trigger,
                                self.seed)


def make_scenario(entry, site, trigger, seed):
    """Build a scenario with the canonical workers/budget for its site."""
    if entry not in ENTRIES:
        raise ValueError("unknown entry %r (one of %s)"
                         % (entry, sorted(ENTRIES)))
    workers = 2 if site in _POOL_SITES else 1
    budget = 60.0 if site == "worker.hang" else 120.0
    return ChaosScenario(entry, site, trigger, seed, workers=workers,
                         budget=budget)


def scenario_from_sid(sid):
    """Parse ``entry:site:trigger:seed`` back into a scenario.

    >>> s = scenario_from_sid("run_simulations:pool.break:1:10")
    >>> (s.entry, s.site, s.trigger, s.seed, s.workers)
    ('run_simulations', 'pool.break', 1, 10, 2)
    """
    parts = sid.split(":")
    if len(parts) != 4:
        raise ValueError("scenario id must be entry:site:trigger:seed, "
                         "got %r" % (sid,))
    return make_scenario(parts[0], parts[1], int(parts[2]), int(parts[3]))


@dataclass
class ScenarioReport:
    """Everything one scenario produced, checks included."""

    scenario: ChaosScenario
    checks: list = field(default_factory=list)
    injections: list = field(default_factory=list)
    phase1: str = ""
    elapsed: float = 0.0

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def describe(self):
        lines = ["%s  [%s]" % (self.scenario.sid,
                               "PASS" if self.ok else "FAIL")]
        lines.append("  phase 1: %s; %d injection(s); %.2fs"
                     % (self.phase1, len(self.injections), self.elapsed))
        for chk in self.checks:
            lines.append("  %s" % chk)
        return "\n".join(lines)

    def to_dict(self):
        return {"sid": self.scenario.sid, "ok": self.ok,
                "phase1": self.phase1, "elapsed": round(self.elapsed, 3),
                "injections": self.injections,
                "checks": [{"name": c.name, "ok": c.ok,
                            "detail": c.detail} for c in self.checks]}


# Fault-free references, memoized per (entry, workers): the digest the
# recovered run must reproduce, and the journal content it may survive
# a subset of.
_REFERENCE_CACHE = {}


def _reference(entry, workers):
    key = (entry, workers)
    ref = _REFERENCE_CACHE.get(key)
    if ref is not None:
        return ref
    with tempfile.TemporaryDirectory(prefix="chaos-ref-") as workdir:
        dg = ENTRIES[entry](workdir, workers)
        jpath = os.path.join(workdir, _JOURNAL_NAME)
        journal = journal_digests(jpath) if os.path.exists(jpath) else {}
    ref = {"digest": dg, "journal": journal}
    _REFERENCE_CACHE[key] = ref
    return ref


def _attributed(diag, exc):
    """Labels the system blamed during phase 1 (quarantine/deadline)."""
    blamed = set()
    for ev in diag.events:
        if ev.category in ("quarantine", "deadline"):
            label = ev.data.get("label")
            if label:
                blamed.add(label)
    label = getattr(exc, "label", None)
    if label:
        blamed.add(label)
    return blamed


def run_scenario(scenario, keep_dir=None):
    """Execute one scenario end to end; returns a :class:`ScenarioReport`.

    ``keep_dir`` pins the working directory (for debugging); by default
    a temporary directory is used and removed.
    """
    obs_counters.inc("chaos.scenarios_run")
    ref = _reference(scenario.entry, scenario.workers)
    adapter = ENTRIES[scenario.entry]
    scn_report = ScenarioReport(scenario)

    tmp = None
    if keep_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="chaos-")
        workdir = tmp.name
    else:
        os.makedirs(keep_dir, exist_ok=True)
        workdir = keep_dir
    jpath = os.path.join(workdir, _JOURNAL_NAME)
    try:
        injector = ChaosInjector(scenario.site, scenario.trigger,
                                 scenario.seed)
        phase1_exc = None
        t0 = time.monotonic()
        with Diagnostics() as diag1, chaoshooks.armed(injector):
            try:
                adapter(workdir, scenario.workers)
                scn_report.phase1 = "completed"
            except ChaosCrash as exc:
                scn_report.phase1 = "died: %s" % exc
            except (ReproError, OSError) as exc:
                phase1_exc = exc
                scn_report.phase1 = "raised %s: %s" % (type(exc).__name__,
                                                       exc)
            for ev in injector.events:
                report("chaos", "info",
                       "injected %s at %s occurrence %d"
                       % (ev["site"], ev["stream"], ev["occurrence"]),
                       **{k: v for k, v in ev.items()
                          if k not in ("site", "stream", "occurrence")})
        scn_report.injections = list(injector.events)

        # What a restarted process would find on disk after the fault.
        surviving = journal_digests(jpath) if os.path.exists(jpath) else {}

        # Phase 2: the restarted process — same directory, no faults.
        final_digest = adapter(workdir, scenario.workers)
        elapsed = time.monotonic() - t0
        post = journal_digests(jpath) if os.path.exists(jpath) else {}

        victim = injector.victim if scenario.site in _BLAMING_SITES \
            else None
        scn_report.elapsed = elapsed
        scn_report.checks = [
            InvariantCheck("injected", bool(injector.events),
                           "" if injector.events else
                           "fault never fired — trigger %d beyond the "
                           "run's %r occurrences"
                           % (scenario.trigger, scenario.site)),
            check_durability(surviving, ref["journal"]),
            check_exactness(final_digest, ref["digest"]),
            check_attribution(victim, _attributed(diag1, phase1_exc)),
            check_monotonicity(surviving, post),
            check_termination(elapsed, scenario.budget),
        ]
    finally:
        if tmp is not None:
            tmp.cleanup()
    for chk in scn_report.checks:
        if not chk.ok:
            obs_counters.inc("chaos.invariant_failures")
    return scn_report


# -- the matrix --------------------------------------------------------------

#: Pinned CI smoke subset: every entry point, every fault site, fixed
#: (trigger, seed) so failures reproduce byte-identically.  Kept small
#: enough to run on every PR.
SMOKE_MATRIX = (
    ("run_simulations", "journal.torn_write", 2, 1),
    ("run_simulations", "journal.enospc", 3, 2),
    ("run_simulations", "journal.fsync_fail", 2, 3),
    ("run_simulations", "journal.corrupt_record", 2, 4),
    ("run_simulations", "journal.compact_crash", 0, 5),
    ("run_simulations", "worker.crash", 1, 8),
    ("run_simulations", "worker.hang", 2, 9),
    ("run_simulations", "pool.break", 1, 10),
    ("optimize_wordlengths", "journal.torn_write", 3, 11),
    ("optimize_wordlengths", "journal.enospc", 1, 12),
    ("analyze_sensitivity", "journal.torn_write", 2, 13),
    ("fault_campaign", "worker.crash", 2, 14),
    ("fault_campaign", "journal.corrupt_record", 1, 15),
    ("refinement_flow", "journal.torn_write", 2, 16),
    ("refinement_flow", "journal.corrupt_record", 1, 17),
)

#: Extra cells for the full (slow-marked) matrix: wider trigger and
#: seed coverage, plus the entry x site combinations smoke skips.
FULL_EXTRA = (
    ("run_simulations", "journal.torn_write", 1, 21),
    ("run_simulations", "journal.torn_write", 4, 22),
    ("run_simulations", "journal.enospc", 0, 23),
    ("run_simulations", "journal.corrupt_record", 4, 24),
    ("run_simulations", "worker.crash", 4, 26),
    ("run_simulations", "pool.break", 3, 27),
    ("optimize_wordlengths", "journal.fsync_fail", 2, 28),
    ("analyze_sensitivity", "journal.enospc", 2, 29),
    ("analyze_sensitivity", "journal.corrupt_record", 3, 30),
    ("fault_campaign", "journal.torn_write", 1, 31),
    ("fault_campaign", "journal.enospc", 2, 32),
    ("fault_campaign", "journal.fsync_fail", 1, 33),
    ("fault_campaign", "pool.break", 0, 34),
    ("refinement_flow", "journal.torn_write", 1, 35),
    ("refinement_flow", "journal.enospc", 1, 36),
    ("refinement_flow", "journal.fsync_fail", 0, 37),
)


def build_matrix(full=False, entry=None, site=None):
    """The scenario list, optionally filtered by entry / site."""
    cells = SMOKE_MATRIX + (FULL_EXTRA if full else ())
    scenarios = [make_scenario(*cell) for cell in cells]
    if entry is not None:
        scenarios = [s for s in scenarios if s.entry == entry]
    if site is not None:
        scenarios = [s for s in scenarios if s.site == site]
    return scenarios


def run_matrix(scenarios, verbose=True, stream=None):
    """Run scenarios in order; returns the list of reports."""
    out = stream if stream is not None else sys.stdout
    reports = []
    for scn in scenarios:
        report = run_scenario(scn)
        reports.append(report)
        if verbose:
            status = "pass" if report.ok else "FAIL"
            print("%-55s %s  (%.2fs, %d injection(s))"
                  % (scn.sid, status, report.elapsed,
                     len(report.injections)), file=out)
            if not report.ok:
                for chk in report.checks:
                    if not chk.ok:
                        print("    %s" % chk, file=out)
    return reports


# -- CLI ---------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.robust.chaos",
        description="Deterministic chaos matrix for the durability "
                    "layer: inject infrastructure faults, verify the "
                    "recovery invariants.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="print the scenario matrix")
    p_run = sub.add_parser("run", help="run the scenario matrix")
    p_run.add_argument("--smoke", action="store_true",
                       help="run the pinned smoke subset (the default)")
    p_run.add_argument("--full", action="store_true",
                       help="run the full matrix (default: smoke subset)")
    p_run.add_argument("--entry", choices=sorted(ENTRIES),
                       help="only scenarios for this entry point")
    p_run.add_argument("--site", choices=SITES,
                       help="only scenarios for this fault site")
    p_run.add_argument("--json", metavar="PATH",
                       help="also write the reports as JSON")
    p_replay = sub.add_parser(
        "replay", help="re-run one scenario by id, verbosely")
    p_replay.add_argument("sid", help="entry:site:trigger:seed")
    p_replay.add_argument("--keep-dir", metavar="DIR",
                          help="keep the working directory for autopsy")
    args = parser.parse_args(argv)

    if args.command == "list":
        for scn in build_matrix(full=True):
            tag = "smoke" if (scn.entry, scn.site, scn.trigger,
                              scn.seed) in SMOKE_MATRIX else "full "
            print("%s  %-55s workers=%d budget=%gs"
                  % (tag, scn.sid, scn.workers, scn.budget))
        return 0
    if args.command == "replay":
        scn = scenario_from_sid(args.sid)
        report = run_scenario(scn, keep_dir=args.keep_dir)
        print(report.describe())
        for ev in report.injections:
            print("  injected: %s" % json.dumps(ev, sort_keys=True))
        return 0 if report.ok else 1
    if args.command == "run":
        scenarios = build_matrix(full=args.full, entry=args.entry,
                                 site=args.site)
        reports = run_matrix(scenarios)
        n_bad = sum(1 for r in reports if not r.ok)
        print("%d scenario(s), %d violation(s)" % (len(reports), n_bad))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump([r.to_dict() for r in reports], fh, indent=2,
                          sort_keys=True)
        return 1 if n_bad else 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Crash tolerance of the parallel batch layer, end to end.

A batch containing a crashing job and a hanging job must complete every
healthy job in parallel, quarantine the crasher with a diagnosable
outcome, abort the hanger at its deadline — and a batch killed outright
(``kill -9``) must resume from its write-ahead journal to a
bit-identical result.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.dtype import DType
from repro.core.errors import DeadlineExceeded, WorkerCrashError
from repro.dsp.lms import LmsEqualizerDesign
from repro.obs import counters
from repro.parallel import PoolPolicy, SimConfig, run_simulations
from repro.robust.diagnostics import Diagnostics
from repro.robust.faults import (BitFlip, FaultCampaign, WorkerCrash,
                                 WorkerHang)
from repro.robust.retry import BackoffPolicy

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")

# Quick retries in tests: default backoff would sleep up to a second.
FAST = PoolPolicy(max_retries=1,
                  backoff=BackoffPolicy(base=0.01, cap=0.05, jitter=0.0))


def lms_factory():
    return LmsEqualizerDesign(seed=2024)


lms_factory.fingerprint = "test-pool-recovery-lms"


def _ok_configs(n, n_samples=60):
    return [SimConfig(label="ok%d" % i, dtypes={"x": T_IN},
                      n_samples=n_samples, seed=i) for i in range(n)]


class TestPoisonJobQuarantine:
    def test_crasher_quarantined_others_keep_results(self):
        """Regression: a pool break must not discard completed jobs or
        re-run the whole batch serially (the old fallback)."""
        counters.reset()
        configs = _ok_configs(3)
        configs.append(SimConfig(label="boom", dtypes={"x": T_IN},
                                 n_samples=60, seed=9,
                                 faults=(WorkerCrash("y", at=10),),
                                 catch_errors=True))
        with Diagnostics() as diag:
            outcomes = run_simulations(lms_factory, configs, workers=2,
                                       pool_policy=FAST)
        # Healthy jobs: bit-identical to an undisturbed serial run.
        serial = run_simulations(lms_factory, _ok_configs(3), workers=1)
        for got, want in zip(outcomes[:3], serial):
            assert got.completed
            assert got.sqnr_db() == want.sqnr_db()
        # The poison job was quarantined after an actual worker death —
        # error_kind "crash" proves it was never re-run in-process (an
        # in-process run would degrade to a caught SimulationError,
        # error_kind "error").
        boom = outcomes[3]
        assert not boom.completed and boom.error_kind == "crash"
        assert counters.get("parallel.quarantined") == 1
        assert counters.get("parallel.retries") == 1
        assert counters.get("parallel.pool_respawns") >= 1
        codes = [e.code for e in diag.events]
        assert "DG202" in codes and "DG204" in codes

    def test_crasher_raises_without_catch_errors(self):
        counters.reset()
        configs = _ok_configs(2)
        configs.append(SimConfig(label="boom", dtypes={"x": T_IN},
                                 n_samples=60, seed=9,
                                 faults=(WorkerCrash("y", at=10),)))
        with pytest.raises(WorkerCrashError):
            run_simulations(lms_factory, configs, workers=2,
                            pool_policy=FAST)
        assert counters.get("parallel.quarantined") == 1

    def test_unpicklable_job_falls_back_in_process(self):
        from repro.robust.faults import Fault

        class UnpicklableNoop(Fault):
            kind = "noop"

            def __init__(self):
                self.fn = lambda v: v     # lambdas cannot cross the pipe

            def describe(self):
                return "noop"

        counters.reset()
        configs = _ok_configs(2)
        configs.append(SimConfig(label="local", dtypes={"x": T_IN},
                                 n_samples=60, seed=5,
                                 faults=(UnpicklableNoop(),)))
        outcomes = run_simulations(lms_factory, configs, workers=2,
                                   pool_policy=FAST)
        assert all(o.completed for o in outcomes)
        assert counters.get("parallel.pickling_fallbacks") == 1
        assert counters.get("parallel.quarantined") == 0


class TestDeadlines:
    def test_hanging_job_aborted_at_deadline_others_fine(self):
        counters.reset()
        configs = _ok_configs(3)
        configs.append(SimConfig(label="hang", dtypes={"x": T_IN},
                                 n_samples=60, seed=8,
                                 faults=(WorkerHang("y", at=10,
                                                    seconds=60.0),),
                                 catch_errors=True, deadline_seconds=0.5))
        t0 = time.monotonic()
        with Diagnostics() as diag:
            outcomes = run_simulations(lms_factory, configs, workers=2,
                                       pool_policy=FAST)
        assert time.monotonic() - t0 < 30.0   # nowhere near the 60s hang
        assert all(o.completed for o in outcomes[:3])
        hang = outcomes[3]
        assert not hang.completed and hang.error_kind == "deadline"
        assert "deadline" in hang.error
        assert counters.get("parallel.deadline_hits") == 1
        assert "DG201" in [e.code for e in diag.events]

    def test_serial_deadline_caught(self):
        counters.reset()
        cfg = SimConfig(label="hang", dtypes={"x": T_IN}, n_samples=60,
                        seed=8, faults=(WorkerHang("y", at=10,
                                                   seconds=60.0),),
                        catch_errors=True, deadline_seconds=0.5)
        out = run_simulations(lms_factory, [cfg], workers=1)[0]
        assert out.error_kind == "deadline"
        assert counters.get("parallel.deadline_hits") == 1

    def test_serial_deadline_raises_without_catch_errors(self):
        cfg = SimConfig(label="hang", dtypes={"x": T_IN}, n_samples=60,
                        seed=8, faults=(WorkerHang("y", at=10,
                                                   seconds=60.0),),
                        deadline_seconds=0.5)
        with pytest.raises(DeadlineExceeded):
            run_simulations(lms_factory, [cfg], workers=1)

    def test_no_deadline_runs_unbounded(self):
        out = run_simulations(lms_factory, _ok_configs(1), workers=1)[0]
        assert out.completed and out.error_kind is None


class TestCampaignWithInfrastructureFaults:
    def test_campaign_survives_crash_and_hang(self):
        """Satellite check: a campaign whose fault list includes
        worker_crash and worker_hang still completes, with quarantine /
        deadline diagnostics and every other fault measured."""
        counters.reset()
        types = {"y": DType("T_w", 12, 10, "tc", "saturate", "round")}
        campaign = FaultCampaign(lms_factory, {**types, "x": T_IN},
                                 n_samples=80, seed=7,
                                 deadline_seconds=2.0)
        faults = [BitFlip("y", bit=0, at=30),
                  WorkerCrash("y", at=20),
                  WorkerHang("y", at=20, seconds=60.0)]
        with Diagnostics() as diag:
            result = campaign.run(faults, workers=2, pool_policy=FAST)
        assert len(result.outcomes) == 3
        flip, crash, hang = result.outcomes
        assert flip.completed and flip.triggered
        assert not crash.completed and "quarantined" in crash.error
        assert not hang.completed and "deadline" in hang.error
        codes = [e.code for e in diag.events]
        assert "DG201" in codes and "DG202" in codes

    def test_campaign_journal_resume_bit_identical(self, tmp_path):
        types = {"y": DType("T_w", 12, 10, "tc", "saturate", "round")}
        campaign = FaultCampaign(lms_factory, {**types, "x": T_IN},
                                 n_samples=80, seed=7)
        faults = [BitFlip("y", bit=0, at=30), BitFlip("y", bit=11, at=30)]
        path = tmp_path / "campaign.jsonl"
        first = campaign.run(faults, workers=1, journal=str(path))
        counters.reset()
        second = campaign.run(faults, workers=1, journal=str(path))
        assert counters.get("journal.replays") == 3   # baseline + 2 faults
        assert first.baseline_sqnr_db == second.baseline_sqnr_db
        for a, b in zip(first.outcomes, second.outcomes):
            assert (a.sqnr_db, a.degradation_db) == \
                (b.sqnr_db, b.degradation_db)


HELPER = '''
import sys
from repro.core.dtype import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.refine.optimizer import optimize_wordlengths

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
T_W = DType("T_w", 10, 8, "tc", "saturate", "round")


def factory():
    return LmsEqualizerDesign(seed=2024)


# Shared across the killed child and the resuming parent: journal keys
# must match between processes.
factory.fingerprint = "resume-test-lms"


def search(journal):
    return optimize_wordlengths(
        factory, {"y": T_W, "w": T_W, "d": T_W}, {"x": T_IN},
        target_db=40.0, n_samples=500, seed=7, max_moves=8,
        workers=1, journal=journal)


if __name__ == "__main__":
    search(sys.argv[1])
'''


class TestKillAndResume:
    def test_killed_search_resumes_bit_identical(self, tmp_path):
        """Start a wordlength search in a child process, SIGKILL it
        mid-search, resume from the journal: same result as an
        uninterrupted run, and the journaled probes are not re-run."""
        helper = tmp_path / "resume_helper.py"
        helper.write_text(HELPER)
        journal = tmp_path / "search.jsonl"

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_PARALLEL"] = "0"
        child = subprocess.Popen(
            [sys.executable, str(helper), str(journal)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait until at least two probe outcomes hit the disk, then
            # kill without any chance of cleanup.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("search finished before it could be "
                                "killed; slow the helper down")
                if journal.exists() and \
                        journal.read_text().count('"outcome"') >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("journal never accumulated two outcomes")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait()

        # Import the same helper the child ran, so the resumed and the
        # fresh search are the very call that was killed.
        import importlib.util
        spec = importlib.util.spec_from_file_location("resume_helper",
                                                      str(helper))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        counters.reset()
        resumed = mod.search(str(journal))
        replays = counters.get("journal.replays")
        assert replays >= 2   # the killed child's completed probes

        fresh = mod.search(None)
        assert resumed.types == fresh.types
        assert resumed.sqnr_db == fresh.sqnr_db
        assert resumed.moves == fresh.moves
        # The resumed search re-ran fewer simulations than it replayed.
        assert resumed.n_simulations == fresh.n_simulations


class TestFlowJournal:
    """``RefinementFlow.run(journal=)`` resumes through the runner's
    journal: every simulation of the Fig. 4 loop, the interval-tape
    replays included, is one journaled job."""

    @staticmethod
    def _flow(seed=7):
        from repro.refine.flow import FlowConfig, RefinementFlow
        # The user range on ``b`` makes the baseline record an interval
        # tape and serves msb-iter-2 from it, as in E8.
        return RefinementFlow(lms_factory, input_types={"x": T_IN},
                              input_ranges={"x": (-1.5, 1.5)},
                              user_ranges={"b": (-0.2, 0.2)},
                              config=FlowConfig(n_samples=400, seed=seed,
                                                auto_range=False))

    @staticmethod
    def _executions(monkeypatch):
        """Labels of the simulations executed from now on."""
        from repro.parallel import runner
        executed = []
        execute = runner._execute

        def counting(config, factory, seeded):
            executed.append(config.label)
            return execute(config, factory, seeded)

        monkeypatch.setattr(runner, "_execute", counting)
        return executed

    @staticmethod
    def _same(a, b):
        assert a.types == b.types
        assert a.types_table() == b.types_table()
        assert a.verification.output_sqnr_db == \
            b.verification.output_sqnr_db
        assert a.baseline_sqnr_db == b.baseline_sqnr_db

    def test_completed_flow_resumes_without_simulating(self, tmp_path,
                                                       monkeypatch):
        path = str(tmp_path / "flow.jsonl")
        executed = self._executions(monkeypatch)
        first = self._flow().run(journal=path)
        assert "msb-iter-2" not in executed      # served by tape replay
        del executed[:]
        counters.reset()
        again = self._flow().run(journal=path)
        assert executed == []
        assert counters.get("journal.replays") >= 3
        self._same(again, first)
        codes = [e.code for e in again.diagnostics.events]
        assert "DG219" not in codes
        # One DG203 per run, not one per journal-served one-job batch.
        replays = [e for e in again.diagnostics.events if e.code == "DG203"]
        assert len(replays) == 1
        assert replays[0].data["replayed"] == 3

    def test_fresh_journaled_flow_reports_no_replay(self, tmp_path):
        # Stages that repeat an earlier stage's job (msb-iter-1,
        # lsb-iter-1) are served from the entries this run appended:
        # cache hits, not journal replays.
        counters.reset()
        result = self._flow().run(journal=str(tmp_path / "flow.jsonl"))
        assert all(e.code != "DG203" for e in result.diagnostics.events)
        assert counters.get("journal.replays") == 0
        assert counters.get("cache.hits") == 2

    def test_foreign_journal_replays_nothing(self, tmp_path):
        path = str(tmp_path / "flow.jsonl")
        self._flow(seed=7).run(journal=path)
        counters.reset()
        # Different seed => different job fingerprints => no replay.
        result = self._flow(seed=8).run(journal=path)
        assert counters.get("journal.replays") == 0
        assert all(e.code != "DG203" for e in result.diagnostics.events)
        self._same(result, self._flow(seed=8).run())

    def test_graceful_run_resumes_bit_identically(self, tmp_path,
                                                  monkeypatch):
        from repro.robust.invariants import digest

        def numbers(result):
            return digest((result.types, result.fallbacks,
                           result.baseline_sqnr_db,
                           result.verification.records))

        path = str(tmp_path / "flow.jsonl")
        first = self._flow().run(strict=False, journal=path)
        executed = self._executions(monkeypatch)
        again = self._flow().run(strict=False, journal=path)
        assert executed == []
        assert numbers(again) == numbers(first)
        assert numbers(again) == numbers(self._flow().run(strict=False))

"""Direct unit tests for the individual fault sites and the
durability-layer hardening they exercise: journal degrade-on-ENOSPC,
journal compaction, and the chaos hook protocol."""

import errno
import json
import os

import numpy as np
import pytest

from repro import chaoshooks
from repro.chaoshooks import ChaosCrash, ChaosHooks, armed
from repro.core.dtype import DType
from repro.obs import counters as obs_counters
from repro.parallel.runner import SimConfig, SimOutcome, run_simulations
from repro.robust.chaos import ChaosInjector
from repro.robust.recovery import Journal
from repro.signal import Sig
from repro.refine import Design

T8 = DType("T8", 8, 6, "tc", "saturate", "round")


class Tiny(Design):
    name = "tiny"
    inputs = ("x",)
    output = "y"

    def build(self, ctx):
        self.x = Sig("x")
        self.y = Sig("y")
        rng = np.random.default_rng(7)
        self._stim = iter(rng.uniform(-1, 1, 4096).tolist())

    def run(self, ctx, n):
        for _ in range(n):
            self.x.assign(next(self._stim))
            self.y.assign(self.x * 0.5)
            ctx.tick()


def _outcome(label="a", value=0.5):
    return SimOutcome(label=label, records={"v": value}, output="v")


class TestJournalDegrade:
    def test_enospc_degrades_to_memory(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        assert j.append("a", _outcome("a"))
        os.close(j._fh.fileno())           # every later write -> EBADF
        assert j.append("b", _outcome("b"))
        assert j.degraded and isinstance(j.io_error, OSError)
        assert j.get("b") is not None      # in-memory copy retained
        j.close()
        assert list(Journal(path).entries()) == ["a"]   # disk has phase 1

    def test_on_io_error_raise_mode(self, tmp_path):
        from repro.robust.recovery import JournalError
        j = Journal(str(tmp_path / "j.jsonl"), on_io_error="raise")
        os.close(j._fh.fileno())
        with pytest.raises(JournalError):
            j.append("a", _outcome())

    def test_degraded_run_still_returns_outcomes(self, tmp_path):
        """run_simulations survives a dead journal and emits DG205."""
        from repro.robust.diagnostics import Diagnostics

        class Enospc(ChaosHooks):
            def on_journal_write(self, journal, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        journal = Journal(str(tmp_path / "j.jsonl"))
        cfgs = [SimConfig(label="t%d" % i, dtypes={"x": T8},
                          n_samples=64, seed=i) for i in range(3)]
        with armed(Enospc()), Diagnostics() as diag:
            outs = run_simulations(Tiny, cfgs, workers=1, journal=journal)
        assert all(o.completed for o in outs)
        assert journal.degraded
        events = [e for e in diag.events if e.code == "DG205"]
        assert len(events) == 1, "exactly one degrade warning expected"
        journal.close()


class TestJournalCompaction:
    def test_compact_drops_stale_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        for i in range(4):
            j.append("k", _outcome("k", float(i)))     # same key 4x
        j.append("other", _outcome("other"))
        size_before = j.size_bytes()
        assert j.compact() == 3
        assert j.size_bytes() < size_before
        assert len(j) == 2
        j.append("post", _outcome("post"))             # handle still live
        j.close()
        reloaded = Journal(path)
        assert set(reloaded.entries()) == {"k", "other", "post"}
        assert reloaded.get("k").records["v"] == 3.0   # latest won

    def test_maybe_compact_respects_threshold(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"),
                    compact_threshold=10 ** 9)
        for i in range(3):
            j.append("k", _outcome("k", float(i)))
        assert j.maybe_compact() == 0          # under threshold: no-op
        j.close()

    def test_maybe_compact_skips_when_nothing_stale(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"), compact_threshold=1)
        j.append("a", _outcome("a"))
        j.append("b", _outcome("b"))
        assert j.maybe_compact() == 0          # all records are live
        j.close()

    def test_degrade_after_compaction_keeps_the_compacted_file(self,
                                                               tmp_path):
        path = str(tmp_path / "j.jsonl")
        cfg = SimConfig(label="c", dtypes={"x": T8}, n_samples=64, seed=6)
        out = run_simulations(Tiny, [cfg], workers=1, journal=path)[0]
        j = Journal(path, compact_threshold=1)
        key = next(iter(j.entries()))
        j.append(key, out)                     # superseding duplicate
        assert j.maybe_compact() == 1
        os.close(j._fh.fileno())               # the rewritten handle dies
        assert j.append(key + "-x", out)
        assert j.degraded and j.get(key + "-x") is not None
        j.close()
        assert len(Journal(path)) == 1         # compacted file reloads

    def test_compaction_keeps_an_existing_header_meta(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(str(path))
        j.append("a", _outcome("a"))
        j.close()
        lines = path.read_text().split("\n")
        header = json.loads(lines[0])
        assert header["meta"] == {}            # what new journals write
        header["meta"] = {"role": "results"}   # a journal written elsewhere
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines))
        j = Journal(str(path))
        j.append("a", _outcome("a", 2.0))
        assert j.compact() == 1
        j.close()
        assert path.read_text().split("\n")[0] == lines[0]

    def test_runner_autocompacts_over_threshold(self, tmp_path):
        """A re-run batch with a tiny threshold triggers DG208."""
        from repro.robust.diagnostics import Diagnostics
        journal = Journal(str(tmp_path / "j.jsonl"), compact_threshold=64)
        cfg = SimConfig(label="t", dtypes={"x": T8}, n_samples=64, seed=1)
        run_simulations(Tiny, [cfg], workers=1, journal=journal)
        # Force a stale duplicate, then re-run to trip maybe_compact().
        journal.append(next(iter(journal.entries())),
                       _outcome("stale"))
        with Diagnostics() as diag:
            run_simulations(Tiny, [SimConfig(label="t2", dtypes={"x": T8},
                                             n_samples=64, seed=2)],
                            workers=1, journal=journal)
        assert any(e.code == "DG208" for e in diag.events)
        journal.close()


class TestInjectorDeterminism:
    def test_same_triple_same_damage(self):
        a = ChaosInjector("journal.torn_write", trigger=1, seed=9)
        b = ChaosInjector("journal.torn_write", trigger=1, seed=9)
        assert a.rng.random() == b.rng.random()

    def test_different_seed_different_stream(self):
        a = ChaosInjector("journal.torn_write", trigger=1, seed=9)
        b = ChaosInjector("journal.torn_write", trigger=1, seed=10)
        assert a.rng.random() != b.rng.random()

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            ChaosInjector("journal.not_a_site")


class TestHookProtocol:
    def test_defaults_are_noops(self, tmp_path):
        hooks = ChaosHooks()
        assert hooks.on_journal_write(None, b"data") == b"data"
        assert hooks.on_job(0, "cfg") == "cfg"

    def test_armed_always_uninstalls(self):
        class Boom(ChaosHooks):
            pass

        with pytest.raises(RuntimeError):
            with armed(Boom()):
                assert chaoshooks.ACTIVE is not None
                raise RuntimeError("x")
        assert chaoshooks.ACTIVE is None

    def test_chaoscrash_bypasses_except_exception(self):
        with pytest.raises(ChaosCrash):
            try:
                raise ChaosCrash("simulated death")
            except Exception:                  # noqa: BLE001
                pytest.fail("ChaosCrash must not be an Exception")


class TestCompactContention:
    """Two processes sharing a journal must not compact concurrently:
    the loser degrades to a counted no-op, never a second rewrite."""

    def _hold_lock(self, path):
        import fcntl
        fh = open(path + ".lock", "a")
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fh

    def test_contended_compact_is_a_noop(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path)
        for i in range(4):
            j.append("k", _outcome("k", float(i)))
        before = obs_counters.get("journal.compact_contended")
        holder = self._hold_lock(path)
        try:
            assert j.compact() == 0
            assert j.n_compact_skipped == 1
            assert obs_counters.get("journal.compact_contended") \
                == before + 1
            # The file was left exactly as it was (stale lines intact)
            # and the append handle is still live.
            assert j._n_records == 4
            assert j.append("post", _outcome("post"))
        finally:
            holder.close()
        # Lock released: the same journal compacts normally again.
        assert j.compact() == 3
        assert j.n_compact_skipped == 1
        j.close()

    def test_runner_surfaces_contention_as_diagnostic(self, tmp_path):
        from repro.robust.diagnostics import Diagnostics
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, compact_threshold=64)
        run_simulations(Tiny, [SimConfig(label="t", dtypes={"x": T8},
                                         n_samples=64, seed=1)],
                        workers=1, journal=journal)
        journal.append(next(iter(journal.entries())), _outcome("stale"))
        holder = self._hold_lock(path)
        try:
            with Diagnostics() as diag:
                run_simulations(Tiny, [SimConfig(label="t2",
                                                 dtypes={"x": T8},
                                                 n_samples=64, seed=2)],
                                workers=1, journal=journal)
        finally:
            holder.close()
        contended = [e for e in diag.events
                     if e.category == "journal-compact"
                     and e.data.get("contended")]
        assert len(contended) == 1
        assert journal.n_compact_skipped == 1
        journal.close()

    def test_uncontended_compact_leaves_no_skip(self, tmp_path):
        j = Journal(str(tmp_path / "j.jsonl"))
        j.append("a", _outcome("a"))
        j.append("a", _outcome("a", 2.0))
        assert j.compact() == 1
        assert j.n_compact_skipped == 0
        j.close()


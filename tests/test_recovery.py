"""Persistence primitives of the crash-tolerance layer.

The write-ahead :class:`Journal` must replay completed outcomes
bit-exactly, detect and drop a torn tail (the only damage an
append-only file can suffer), and refuse files it cannot have written.
A path-less ``Journal()`` (the runner's in-memory result store) must
evict by *recency of use*, not insertion order, so a long-running
optimizer keeps its working set.  An entry point given a
path opens one journal for the call and closes it.
"""

import json

import pytest

from repro.chaoshooks import ChaosCrash, ChaosHooks, armed
from repro.core.dtype import DType
from repro.core.errors import JournalError
from repro.dsp.lms import LmsEqualizerDesign
from repro.obs import counters
from repro.parallel import SimConfig, fingerprint, run_simulations
from repro.robust.recovery import JOURNAL_FORMAT, JOURNAL_VERSION, Journal

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")


def lms_factory():
    return LmsEqualizerDesign(seed=2024)


# A stable factory identity: journal keys must match across processes
# and across re-imports of this module.
lms_factory.fingerprint = "test-recovery-lms"


def _outcomes(n, n_samples=60):
    configs = [SimConfig(label="r%d" % i, dtypes={"x": T_IN},
                         n_samples=n_samples, seed=i) for i in range(n)]
    outs = run_simulations(lms_factory, configs, workers=1)
    keys = [fingerprint(lms_factory, cfg) for cfg in configs]
    return keys, outs


def _record_tuple(o):
    return {name: (rec.stat_min, rec.stat_max, rec.err_produced,
                   rec.overflow_count)
            for name, rec in o.records.items()}


class TestJournalRoundTrip:
    def test_write_reopen_replay_bit_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        keys, outs = _outcomes(3)
        with Journal(path) as j:
            for k, o in zip(keys, outs):
                assert j.append(k, o)
        again = Journal(path)
        assert len(again) == 3 and again.n_dropped == 0
        for k, o in zip(keys, outs):
            replayed = again.get(k)
            assert replayed.sqnr_db() == o.sqnr_db()
            assert _record_tuple(replayed) == _record_tuple(o)
        assert again.hits == 3

    def test_failed_outcomes_are_not_journaled(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        keys, outs = _outcomes(1)
        from dataclasses import replace
        bad = replace(outs[0], error="boom", error_kind="crash")
        assert not j.append("k-bad", bad)
        assert "k-bad" not in j and len(j) == 0

    def test_runner_appends_as_outcomes_arrive(self, tmp_path):
        counters.reset()
        path = tmp_path / "j.jsonl"
        keys, outs = _outcomes(2)
        configs = [SimConfig(label="r%d" % i, dtypes={"x": T_IN},
                             n_samples=60, seed=i) for i in range(2)]
        with Journal(path) as j:
            run_simulations(lms_factory, configs, workers=1, journal=j)
        assert counters.get("journal.appends") == 2
        # Second run, as a restarted process: everything replays from
        # the file, nothing executes.
        counters.reset()
        with Journal(path) as j:
            replayed = run_simulations(lms_factory, configs, workers=1,
                                       journal=j)
        assert counters.get("journal.replays") == 2
        assert counters.get("journal.appends") == 0
        for a, b in zip(outs, replayed):
            assert a.sqnr_db() == b.sqnr_db()

    def test_journal_accepts_path_argument(self, tmp_path):
        path = tmp_path / "sub" / "j.jsonl"   # parent dir auto-created
        configs = [SimConfig(label="p", dtypes={"x": T_IN}, n_samples=60,
                             seed=3)]
        first = run_simulations(lms_factory, configs, workers=1,
                                journal=str(path))[0]
        second = run_simulations(lms_factory, configs, workers=1,
                                 journal=str(path))[0]
        assert first.sqnr_db() == second.sqnr_db()
        assert path.exists()


class TestJournalTornTail:
    def test_truncated_record_dropped_rest_replays(self, tmp_path):
        counters.reset()
        path = tmp_path / "j.jsonl"
        keys, outs = _outcomes(3)
        with Journal(path) as j:
            for k, o in zip(keys, outs):
                j.append(k, o)
        # Tear the file mid-way through the last record, as a kill -9
        # (or a full disk) would.
        data = path.read_bytes()
        path.write_bytes(data[:-25])
        reopened = Journal(path)
        assert reopened.n_dropped == 1
        assert counters.get("journal.dropped_records") == 1
        assert len(reopened) == 2
        for k, o in zip(keys[:2], outs[:2]):
            assert reopened.get(k).sqnr_db() == o.sqnr_db()
        assert reopened.get(keys[2]) is None
        reopened.close()
        # The torn tail was truncated away on disk: a further reopen is
        # clean and the file append-appendable again.
        clean = Journal(path)
        assert clean.n_dropped == 0 and len(clean) == 2
        clean.append(keys[2], outs[2])
        clean.close()
        assert len(Journal(path)) == 3

    def test_corrupted_payload_hash_mismatch_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        keys, outs = _outcomes(2)
        with Journal(path) as j:
            for k, o in zip(keys, outs):
                j.append(k, o)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["payload"] = rec["payload"][:-8] + "AAAAAAAA"
        lines[2] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        reopened = Journal(path)
        assert len(reopened) == 1 and reopened.n_dropped == 1

    def test_crash_during_repair_leaves_the_file_intact(self, tmp_path):
        class DieOnReplace(ChaosHooks):
            def on_journal_replace(self, journal):
                raise ChaosCrash("died before os.replace")

        path = tmp_path / "j.jsonl"
        keys, outs = _outcomes(3)
        with Journal(path) as j:
            for k, o in zip(keys, outs):
                j.append(k, o)
        path.write_bytes(path.read_bytes()[:-25])         # torn last line
        torn = path.read_bytes()
        with armed(DieOnReplace()), pytest.raises(ChaosCrash):
            Journal(path)
        assert path.read_bytes() == torn
        assert list(tmp_path.glob(".journal-*.tmp")) == []
        # The restarted process repairs the tail and replays the rest.
        with Journal(path) as reopened:
            assert reopened.n_dropped == 1 and len(reopened) == 2
            for k, o in zip(keys[:2], outs[:2]):
                assert reopened.get(k).sqnr_db() == o.sqnr_db()
            assert reopened.get(keys[2]) is None

    def test_torn_header_starts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"v": 1, "format": "repro-jou')   # torn header
        j = Journal(path)
        assert len(j) == 0
        keys, outs = _outcomes(1)
        j.append(keys[0], outs[0])
        j.close()
        assert len(Journal(path)) == 1


class TestJournalRejectsForeignFiles:
    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(JournalError):
            Journal(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {"v": JOURNAL_VERSION + 1, "format": JOURNAL_FORMAT,
                  "kind": "header", "meta": {}}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError):
            Journal(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = {"v": 1, "format": "other-tool", "kind": "header"}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError):
            Journal(path)


class TestSimCacheLRU:
    def test_evicts_at_max_entries(self):
        cache = Journal(max_entries=3)
        keys, outs = _outcomes(4, n_samples=40)
        for k, o in zip(keys[:3], outs[:3]):
            cache.append(k, o)
        assert len(cache) == 3
        cache.append(keys[3], outs[3])
        assert len(cache) == 3
        assert keys[0] not in cache          # oldest evicted
        assert all(k in cache for k in keys[1:])

    def test_get_refreshes_recency(self):
        cache = Journal(max_entries=3)
        keys, outs = _outcomes(4, n_samples=40)
        for k, o in zip(keys[:3], outs[:3]):
            cache.append(k, o)
        got = cache.get(keys[0])               # refresh the oldest
        assert got is not None and got.sqnr_db() == outs[0].sqnr_db()
        cache.append(keys[3], outs[3])
        assert keys[0] in cache               # survived thanks to the hit
        assert keys[1] not in cache           # true LRU victim

    def test_put_existing_refreshes_recency(self):
        cache = Journal(max_entries=2)
        keys, outs = _outcomes(3, n_samples=40)
        cache.append(keys[0], outs[0])
        cache.append(keys[1], outs[1])
        cache.append(keys[0], outs[0])        # re-append refreshes
        cache.append(keys[2], outs[2])
        assert keys[0] in cache and keys[1] not in cache

    def test_failed_outcomes_never_cached(self):
        from dataclasses import replace
        cache = Journal(max_entries=2)
        keys, outs = _outcomes(1, n_samples=40)
        cache.append(keys[0], replace(outs[0], error="x", error_kind="crash"))
        assert len(cache) == 0

    def test_file_journal_keeps_every_entry(self, tmp_path):
        # The bound applies to the path-less store only.
        keys, outs = _outcomes(3, n_samples=40)
        with Journal(tmp_path / "j.jsonl", max_entries=1) as j:
            for k, o in zip(keys, outs):
                j.append(k, o)
            assert len(j) == 3 and j.stats()["max_entries"] is None
        assert len(Journal(tmp_path / "j.jsonl")) == 3


class TestReplayRule:
    """A hit counts ``journal.replays`` the first time the process serves
    an entry loaded from the file, ``cache.hits`` every other time."""

    CONFIGS = [SimConfig(label="q%d" % i, dtypes={"x": T_IN}, n_samples=40,
                         seed=i) for i in range(2)]

    def _rerun(self, journal):
        counters.reset()
        run_simulations(lms_factory, self.CONFIGS, workers=1,
                        journal=journal)
        return (counters.get("journal.replays"), counters.get("cache.hits"),
                counters.get("cache.misses"))

    def test_same_object_rerun_is_cache_hits(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as j:
            assert self._rerun(j) == (0, 0, 2)
            assert self._rerun(j) == (0, 2, 0)
            assert (j.hits, j.replays, j.misses) == (2, 0, 2)

    def test_reopened_journal_replays_once(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as j:
            self._rerun(j)
        with Journal(tmp_path / "j.jsonl") as j:
            assert self._rerun(j) == (2, 0, 0)
            assert self._rerun(j) == (0, 2, 0)
            assert (j.hits, j.replays) == (4, 2)


class TestPathJournalsOpenedOnce:
    """An entry point given a path opens one Journal for the whole call
    and closes it before returning."""

    @staticmethod
    def _calls():
        from repro.gallery.matrix import run_matrix
        from repro.refine import (FlowConfig, RefinementFlow,
                                  analyze_sensitivity, optimize_wordlengths)
        from repro.robust.chaos import (PROBE_TYPES, T_ACC, T_P,
                                        probe_factory)
        from repro.robust.chaos import T_IN as P_IN
        from repro.robust.faults import BitFlip, FaultCampaign
        types = {"p": T_P, "acc": T_ACC, "y": T_ACC}
        probe = dict(n_samples=48, seed=11, workers=1)
        return {
            "run_simulations": lambda path: run_simulations(
                probe_factory, [SimConfig(dtypes=PROBE_TYPES, n_samples=48)],
                workers=1, journal=path),
            "analyze_sensitivity": lambda path: analyze_sensitivity(
                probe_factory, types, {"x": P_IN}, journal=path, **probe),
            "optimize_wordlengths": lambda path: optimize_wordlengths(
                probe_factory, types, {"x": P_IN}, target_db=30.0,
                max_moves=2, journal=path, **probe),
            "fault_campaign": lambda path: FaultCampaign(
                probe_factory, PROBE_TYPES, n_samples=48, seed=5).run(
                [BitFlip("y", bit=2, at=10)], workers=1, journal=path),
            "refinement_flow": lambda path: RefinementFlow(
                probe_factory, input_types={"x": P_IN},
                input_ranges={"x": (-1.0, 1.0)},
                config=FlowConfig(n_samples=64, seed=9,
                                  lint_design=False)).run(journal=path),
            "run_matrix": lambda path: run_matrix(
                designs=["kalman"], channels=["clean", "awgn"],
                campaigns=["clean"], seeds=[101], n_samples=48,
                analyze=False, workers=0, journal=path),
        }

    @pytest.mark.parametrize("entry", [
        "run_simulations", "analyze_sensitivity", "optimize_wordlengths",
        "fault_campaign", "refinement_flow", "run_matrix"])
    def test_one_journal_opened_none_left_open(self, entry, tmp_path,
                                               monkeypatch):
        opened = []
        init = Journal.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.path is not None:
                opened.append(self)

        monkeypatch.setattr(Journal, "__init__", counting)
        path = str(tmp_path / "j.jsonl")
        self._calls()[entry](path)
        assert len(opened) == 1
        assert opened[0]._fh is None
        assert len(Journal(path)) > 0

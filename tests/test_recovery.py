"""Persistence primitives of the crash-tolerance layer.

The write-ahead :class:`Journal` must replay completed outcomes
bit-exactly, detect and drop a torn tail (the only damage an
append-only file can suffer), and refuse files it cannot have written.
The :class:`SimCache` must evict by *recency of use*, not insertion
order, so a long-running optimizer keeps its working set.
"""

import json

import pytest

from repro.core.dtype import DType
from repro.core.errors import JournalError
from repro.dsp.lms import LmsEqualizerDesign
from repro.obs import counters
from repro.parallel import SimCache, SimConfig, fingerprint, run_simulations
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
        j = Journal(path)
        configs = [SimConfig(label="r%d" % i, dtypes={"x": T_IN},
                             n_samples=60, seed=i) for i in range(2)]
        run_simulations(lms_factory, configs, workers=1, journal=j)
        assert counters.get("journal.appends") == 2
        # Second run: everything replays, nothing executes.
        counters.reset()
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
        cache = SimCache(max_entries=3)
        keys, outs = _outcomes(4, n_samples=40)
        for k, o in zip(keys[:3], outs[:3]):
            cache.put(k, o)
        assert len(cache) == 3
        cache.put(keys[3], outs[3])
        assert len(cache) == 3
        assert keys[0] not in cache          # oldest evicted
        assert all(k in cache for k in keys[1:])

    def test_get_refreshes_recency(self):
        cache = SimCache(max_entries=3)
        keys, outs = _outcomes(4, n_samples=40)
        for k, o in zip(keys[:3], outs[:3]):
            cache.put(k, o)
        got = cache.get(keys[0])               # refresh the oldest
        assert got is not None and got.sqnr_db() == outs[0].sqnr_db()
        cache.put(keys[3], outs[3])
        assert keys[0] in cache               # survived thanks to the hit
        assert keys[1] not in cache           # true LRU victim

    def test_put_existing_refreshes_recency(self):
        cache = SimCache(max_entries=2)
        keys, outs = _outcomes(3, n_samples=40)
        cache.put(keys[0], outs[0])
        cache.put(keys[1], outs[1])
        cache.put(keys[0], outs[0])           # re-put refreshes
        cache.put(keys[2], outs[2])
        assert keys[0] in cache and keys[1] not in cache

    def test_failed_outcomes_never_cached(self):
        from dataclasses import replace
        cache = SimCache(max_entries=2)
        keys, outs = _outcomes(1, n_samples=40)
        cache.put(keys[0], replace(outs[0], error="x", error_kind="crash"))
        assert len(cache) == 0

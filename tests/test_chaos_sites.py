"""Direct unit tests for the individual fault sites and the
durability-layer hardening they exercise: journal degrade-on-ENOSPC
and the chaos hook protocol."""

import errno
import os

import numpy as np
import pytest

from repro import chaoshooks
from repro.chaoshooks import ChaosCrash, ChaosHooks, armed
from repro.core.dtype import DType
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

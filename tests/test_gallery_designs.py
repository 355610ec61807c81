"""The design gallery: registry contract, reference fidelity, SQNR
targets, lint cleanliness and the verify pre-flight.

Each registered design promises four things the matrix artifact later
pins: its float reference model matches the unannotated simulation to
machine precision, its annotated run meets the documented SQNR target,
lint reports no error-severity findings, and the registry's recorded
verify verdicts are reproduced live.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.core.dtype import DType
from repro.gallery import (gallery, get_design, lint_entry,
                           reference_check, single_run, verify_entry)
from repro.gallery.matrix import CHANNEL_MODELS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRIES = gallery()
NAMES = sorted(ENTRIES)


class TestRegistry:
    def test_at_least_six_designs(self):
        assert len(ENTRIES) >= 6

    def test_names_unique_and_wellformed(self):
        assert len(set(NAMES)) == len(NAMES)
        for name, e in ENTRIES.items():
            assert e.name == name
            assert e.inputs and e.output
            assert e.description
            assert e.sqnr_target_db > 0

    def test_every_input_has_envelope_and_dtype(self):
        for e in ENTRIES.values():
            for inp in e.inputs:
                lo, hi = e.envelope[inp]
                assert lo < hi
                assert inp in e.dtypes

    def test_every_design_declares_verify_position(self):
        # Either recorded checks or an honest skip reason — never
        # silence.
        for e in ENTRIES.values():
            assert e.verify_checks or e.verify_skip_reason

    def test_get_design_error_lists_names(self):
        with pytest.raises(KeyError, match="kalman"):
            get_design("no-such-design")


@pytest.mark.parametrize("name", NAMES)
class TestPerDesign:
    def test_reference_model_agrees(self, name):
        # Unannotated simulation vs. the pure-float reference model.
        assert reference_check(ENTRIES[name], n=256) <= 1e-9

    def test_reference_check_matches_committed_matrix(self, name):
        # The check monitors the output alone; what it reports at the
        # matrix's 512 ticks is unchanged.
        with open(os.path.join(ROOT, "GALLERY_MATRIX.json")) as fh:
            committed = json.load(fh)["designs"][name]
        assert reference_check(ENTRIES[name]) == \
            committed["reference_max_abs_err"]

    def test_meets_sqnr_target_clean(self, name):
        e = ENTRIES[name]
        out = single_run(e, n_samples=1024)
        assert out.completed
        assert out.sqnr_db() >= e.sqnr_target_db

    def test_lint_error_clean(self, name):
        report = lint_entry(ENTRIES[name])
        errors = [f for f in report if f.severity == "error"]
        assert not errors, [f.message for f in errors]

    def test_verify_matches_recorded_verdicts(self, name):
        e = ENTRIES[name]
        verdicts = verify_entry(e)
        assert verdicts
        if not e.verify_checks:
            # Honest skip: a synthesized UNKNOWN carrying the reason.
            assert verdicts[0].status == "UNKNOWN"
            assert e.verify_skip_reason in verdicts[0].reason
            return
        got = {(v.property, v.k): v.status for v in verdicts}
        for prop, k, expected in e.verify_checks:
            assert got[(prop, k)] == expected


class TestChannelStimulus:
    def test_channel_changes_stimulus_deterministically(self):
        e = ENTRIES["goertzel"]
        clean = e.cls.samples(7, 64)
        awgn1 = e.cls.samples(7, 64, channel=CHANNEL_MODELS["awgn"])
        awgn2 = e.cls.samples(7, 64, channel=CHANNEL_MODELS["awgn"])
        assert not np.allclose(clean, awgn1)
        np.testing.assert_array_equal(awgn1, awgn2)

    def test_stimulus_on_input_grid(self):
        # Traced constants must be dyadic for the verify encoder: the
        # base class snaps every stimulus row to the 2^-8 grid.
        for e in ENTRIES.values():
            xs = e.cls.samples(11, 32)
            np.testing.assert_array_equal(xs * 256.0,
                                          np.round(xs * 256.0))


class TestLintTrigger:
    def test_broken_twin_triggers_error(self):
        """A deliberately narrow wrapping state dtype must raise an
        error-severity finding — proving the gallery's lint gate can
        fail, not just that it happens to pass."""
        e = ENTRIES["goertzel"]
        bad = dict(e.dtypes)
        # The resonator state swings to ~5x the input: <8,7> wrap
        # (range [-1, 1)) silently corrupts it -> FX002 error.
        bad["gz.s"] = DType("TBAD", 8, 7, "tc", "wrap", "round")
        twin = dataclasses.replace(e, dtypes=bad)
        report = lint_entry(twin)
        errors = [f for f in report if f.severity == "error"]
        assert errors
        assert any(f.rule_id in ("FX001", "FX002") for f in errors)

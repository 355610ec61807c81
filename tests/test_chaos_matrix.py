"""The chaos matrix as a pytest suite.

Each cell of :data:`SMOKE_MATRIX` is one deterministic fault scenario
(``entry:site:trigger:seed``) run through the two-phase
inject-then-recover protocol; a cell passes only when every recovery
invariant holds.  The smoke matrix covers all eight fault sites and all
five entry points and runs on every PR; the extended matrix rides
behind the ``slow`` marker (``-m slow``) like the other long campaigns.

Fault-free reference runs are memoized per ``(entry, workers)`` inside
:mod:`repro.robust.chaos`, so the parametrized cells share them.
"""

import pytest

from repro.robust.chaos import (ENTRIES, FULL_EXTRA, SITE_ENTRIES, SITES,
                                SMOKE_MATRIX, _reference, make_scenario,
                                run_scenario, scenario_from_sid)

_SMOKE = [make_scenario(*cell) for cell in SMOKE_MATRIX]
_FULL = [make_scenario(*cell) for cell in FULL_EXTRA]


def _ids(matrix):
    return [s.sid for s in matrix]


@pytest.mark.parametrize("scenario", _SMOKE, ids=_ids(_SMOKE))
def test_smoke_cell_holds_invariants(scenario):
    report = run_scenario(scenario)
    assert report.injections, "fault never fired for %s" % scenario.sid
    assert report.ok, "\n" + report.describe()


@pytest.mark.slow
@pytest.mark.parametrize("scenario", _FULL, ids=_ids(_FULL))
def test_full_cell_holds_invariants(scenario):
    report = run_scenario(scenario)
    assert report.injections, "fault never fired for %s" % scenario.sid
    assert report.ok, "\n" + report.describe()


def test_replay_is_bit_reproducible():
    """Same sid twice: identical injections and identical verdicts."""
    sid = "run_simulations:journal.torn_write:2:1"
    first = run_scenario(scenario_from_sid(sid))
    second = run_scenario(scenario_from_sid(sid))
    assert first.injections == second.injections
    assert [(c.name, c.ok) for c in first.checks] \
        == [(c.name, c.ok) for c in second.checks]
    assert first.phase1 == second.phase1


def test_sid_roundtrip():
    for scenario in _SMOKE:
        assert scenario_from_sid(scenario.sid).sid == scenario.sid


def test_matrix_covers_everything():
    """The smoke matrix alone spans all sites and all entry points."""
    assert {s.site for s in _SMOKE} == set(SITES)
    assert {s.entry for s in _SMOKE} == set(ENTRIES)


def test_cells_pair_sites_with_allowed_entries():
    """Every fault site has a row in ``SITE_ENTRIES`` naming only real
    entry points, and every smoke and full cell runs its site against
    an entry that row allows."""
    assert set(SITE_ENTRIES) == set(SITES)
    for site, entries in SITE_ENTRIES.items():
        assert entries and set(entries) <= set(ENTRIES), site
    for entry, site, _, _ in SMOKE_MATRIX + FULL_EXTRA:
        assert entry in SITE_ENTRIES[site], (entry, site)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_reference_journal_is_not_empty(entry):
    """Every entry journals its jobs, so its durability and monotonicity
    checks compare real records, never two empty journals."""
    assert _reference(entry, 1)["journal"]

"""Greedy wordlength optimization on top of a refined type map.

The flow's LSB rule is per-signal and local; once a full type map
exists, global bit allocation can still be improved: remove fractional
bits where the output barely notices, add them where quality is
bottlenecked.  This optimizer implements the classic greedy exchange:

1. **Reclaim**: repeatedly drop one fractional bit from the signal whose
   removal costs the least output SQNR, as long as the quality stays
   above the target.
2. **Repair** (optional): if the starting point is already below target,
   first add bits where they buy the most.

Each probe is one simulation, so the cost is comparable to the
simulation-based baseline — but starting from the refined types instead
of a uniform guess typically converges in a handful of moves (this is
the "performance not satisfactory" reiteration of paper Fig. 4, made
automatic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.runner import SimConfig, run_simulations

__all__ = ["OptimizeResult", "optimize_wordlengths"]


@dataclass
class OptimizeResult:
    types: dict
    sqnr_db: float
    target_db: float
    n_simulations: int
    moves: list = field(default_factory=list)   # (op, signal, f, sqnr)

    def bits_saved(self, original_types):
        return (sum(dt.n for dt in original_types.values())
                - sum(dt.n for dt in self.types.values()))


def optimize_wordlengths(design_factory, types, input_types, target_db,
                         n_samples=2000, seed=1234, max_moves=64,
                         signals=None, workers=None, cache=None,
                         journal=None, engine=None):
    """Greedy bit reclaim/repair against an output SQNR target.

    ``types``: the synthesized map to optimize (not mutated);
    ``input_types``: fixed input formats; ``target_db``: the quality
    floor.  Returns an :class:`OptimizeResult` whose types meet the
    target (or the best-achievable map if even adding bits cannot).

    Each greedy iteration probes every candidate signal; the probes of
    one iteration are independent and run as one
    :func:`repro.parallel.run_simulations` batch (``workers`` /
    ``cache`` forwarded).  With a shared :class:`~repro.parallel.SimCache`
    the optimizer also skips any type map it has already measured.

    ``journal`` (a :class:`repro.robust.recovery.Journal` or path) makes
    the search *resumable*: every probe outcome is journaled as it
    completes, and because the greedy search is deterministic — same
    inputs, same probe sequence — re-running the call after a crash
    replays the already-measured probes from disk and continues from the
    first missing one, converging to a bit-identical result.

    Every probe is an output-only job (``SimConfig(monitors="output")``):
    it measures the output alone and propagates no ranges.  ``engine``
    is kept for old callers: only ``None`` and ``"interpreted"``, the
    one simulation path, are accepted.
    """
    if engine not in (None, "interpreted"):
        raise ValueError("engine must be None or 'interpreted', got %r"
                         % (engine,))
    types = dict(types)
    names = sorted(signals if signals is not None else types)
    sims = 0
    moves = []
    if journal is not None and not hasattr(journal, "append"):
        from repro.robust.recovery import Journal
        journal = Journal(journal)

    def probe_batch(trials):
        """SQNR of several candidate type maps, one fan-out batch."""
        nonlocal sims
        sims += len(trials)
        configs = [SimConfig(label="wlopt",
                             dtypes={**trial, **input_types},
                             n_samples=n_samples, seed=seed,
                             monitors="output")
                   for trial in trials]
        outcomes = run_simulations(design_factory, configs,
                                   workers=workers, cache=cache,
                                   journal=journal)
        return [o.records[o.output].sqnr_db() for o in outcomes]

    current_sqnr = probe_batch([types])[0]

    def grown(name):
        dt = types[name]
        trial = dict(types)
        trial[name] = dt.with_(n=dt.n + 1, f=dt.f + 1)
        return trial

    def shrunk(name):
        dt = types[name]
        trial = dict(types)
        trial[name] = dt.with_(n=dt.n - 1, f=dt.f - 1)
        return trial

    # Repair phase: grow the most effective signal until on target.
    while current_sqnr < target_db and len(moves) < max_moves:
        sqnrs = probe_batch([grown(name) for name in names])
        best = None
        for name, sqnr in zip(names, sqnrs):
            if best is None or sqnr > best[1]:
                best = (name, sqnr)
        name, sqnr = best
        if sqnr <= current_sqnr + 1e-9:
            break  # no signal helps: give up repairing
        dt = types[name]
        types[name] = dt.with_(n=dt.n + 1, f=dt.f + 1)
        current_sqnr = sqnr
        moves.append(("add", name, types[name].f, sqnr))

    # Reclaim phase: shrink the cheapest signal while above target.
    improved = True
    while improved and len(moves) < max_moves:
        improved = False
        shrinkable = [name for name in names
                      if types[name].f > 0 and types[name].n > 1]
        sqnrs = probe_batch([shrunk(name) for name in shrinkable])
        best = None
        for name, sqnr in zip(shrinkable, sqnrs):
            if sqnr >= target_db and (best is None or sqnr > best[1]):
                best = (name, sqnr)
        if best is not None:
            name, sqnr = best
            dt = types[name]
            types[name] = dt.with_(n=dt.n - 1, f=dt.f - 1)
            current_sqnr = sqnr
            moves.append(("drop", name, types[name].f, sqnr))
            improved = True

    return OptimizeResult(types, current_sqnr, target_db, sims, moves)

"""Kill -9 a wordlength search mid-run, then resume it bit-exactly.

Demonstrates the crash-tolerance layer (``docs/robustness.md`` §5):

1. a child process starts ``optimize_wordlengths`` with a write-ahead
   journal, so every completed probe simulation lands on disk the
   moment it finishes;
2. once a few probes are journaled, this script SIGKILLs the child —
   no cleanup, no atexit, exactly like an OOM kill or a power cut;
3. the *same* search call runs again in this process: the journaled
   probes replay bit-exactly (no re-simulation), the search continues
   from the first missing probe, and the final result is bit-identical
   to an uninterrupted run.

Run:  python examples/resume_demo.py
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro import DType
from repro.dsp.lms import LmsEqualizerDesign
from repro.obs import counters
from repro.refine.optimizer import optimize_wordlengths

T_IN = DType("T_in", 9, 7, "tc", "saturate", "round")
T_W = DType("T_w", 10, 8, "tc", "saturate", "round")


def factory():
    return LmsEqualizerDesign(seed=2024)


# Journal keys embed the design-factory identity.  Pin it explicitly so
# the child process and this process (different ``__main__`` modules)
# produce identical keys.
factory.fingerprint = "resume-demo-lms"


def search(journal):
    """The deterministic greedy search — same call in child and parent."""
    return optimize_wordlengths(
        factory, {"y": T_W, "w": T_W, "d": T_W}, {"x": T_IN},
        target_db=40.0, n_samples=500, seed=7, max_moves=8,
        workers=1, journal=journal)


def run_child_and_kill(journal_path):
    """Start the search in a child process, SIGKILL it mid-search."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child",
         journal_path],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                raise SystemExit("child finished before the kill — "
                                 "nothing to demonstrate")
            done = 0
            if os.path.exists(journal_path):
                with open(journal_path) as fh:
                    done = fh.read().count('"outcome"')
            if done >= 2:
                os.kill(child.pid, signal.SIGKILL)
                return done
            time.sleep(0.02)
        raise SystemExit("child never journaled two outcomes")
    finally:
        child.wait()


def main():
    workdir = tempfile.mkdtemp(prefix="resume-demo-")
    try:
        demo(os.path.join(workdir, "search.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def demo(journal):
    """Kill the search mid-run, resume it from ``journal``, compare."""
    print("journal: %s" % journal)

    n_done = run_child_and_kill(journal)
    print("child SIGKILLed after journaling %d probe outcome(s)" % n_done)

    counters.reset()
    resumed = search(journal)
    print("resumed search: replayed %d probe(s) from the journal, "
          "%d simulation(s) total"
          % (counters.get("journal.replays"), resumed.n_simulations))

    fresh = search(None)
    identical = (resumed.types == fresh.types
                 and resumed.sqnr_db == fresh.sqnr_db
                 and resumed.moves == fresh.moves)
    print("uninterrupted reference search: %d simulation(s)"
          % fresh.n_simulations)
    print("final SQNR %.2f dB with %d total bits"
          % (resumed.sqnr_db, sum(dt.n for dt in resumed.types.values())))
    print("resumed result bit-identical to uninterrupted run: %s"
          % identical)
    if not identical:
        raise SystemExit("resume broke determinism")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        search(sys.argv[2])
    else:
        main()

"""Stateful model of the durability layer under damage interleavings.

Hypothesis drives random interleavings of the operations a long
campaign (or the chaos injector) can inflict on a :class:`Journal` —
append, reopen, corrupt a record, truncate the tail — and
checks the durability and exactness invariants after *every* step:

* every record the model says survived replays bit-identically
  (:func:`outcome_digest` equality), and
* nothing the model says was destroyed ever resurfaces.

The model is deliberately simple (an ordered list of ``(key, digest)``
appends plus the journal's documented tail-drop rule); if the real
implementation and the model ever disagree, the implementation is
wrong or the documented contract is.
"""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.parallel.runner import SimOutcome
from repro.robust.invariants import outcome_digest
from repro.robust.recovery import Journal

# Small, picklable, digestable payloads; floats exercise the bit-exact
# canonicalization.
_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=32)


def _outcome(n, value):
    return SimOutcome(label="s%d" % n, records={"v": value}, output="v",
                      guard_trips=n % 3)


class JournalMachine(RuleBasedStateMachine):
    """Journal vs. model: appends, damage, recovery."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="chaos-model-")
        self.path = os.path.join(self.dir, "j.jsonl")
        self.journal = Journal(self.path, sync=False)
        #: append history: (key, digest) in file order (dups legal).
        self.order = []
        self.n_appends = 0

    # -- model helpers -----------------------------------------------------

    def _model_entries(self):
        """Replay semantics: last surviving append per key wins."""
        return dict(self.order)

    def _check_replay(self):
        """The full invariant: reload and compare against the model."""
        self.journal.close()
        reopened = Journal(self.path, sync=False)
        expect = self._model_entries()
        got = {k: outcome_digest(o)
               for k, o in reopened.entries().items()}
        assert got == expect, "journal replay diverged from the model"
        self.journal = reopened

    # -- rules -------------------------------------------------------------

    @rule(value=_VALUES)
    def append(self, value):
        self.n_appends += 1
        key = "key-%d" % self.n_appends
        outcome = _outcome(self.n_appends, value)
        assert self.journal.append(key, outcome)
        self.order.append((key, outcome_digest(outcome)))

    @precondition(lambda self: self.order)
    @rule(value=_VALUES, which=st.integers(min_value=0, max_value=10 ** 6))
    def append_superseding(self, value, which):
        """Re-append an existing key: the newer record must win."""
        key = self.order[which % len(self.order)][0]
        self.n_appends += 1
        outcome = _outcome(self.n_appends, value)
        assert self.journal.append(key, outcome)
        self.order.append((key, outcome_digest(outcome)))

    @rule()
    def reopen(self):
        self._check_replay()

    @precondition(lambda self: self.order)
    @rule(which=st.integers(min_value=0, max_value=10 ** 6))
    def corrupt_record(self, which):
        """Garble one record's payload: it and everything after drop."""
        self.journal.close()
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i = 1 + which % (len(lines) - 1)          # line 0 is the header
        pos = lines[i].find('"payload": "') + len('"payload": "') + 4
        lines[i] = lines[i][:pos] + "########" + lines[i][pos + 8:]
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.order = self.order[:i - 1]           # tail-drop rule
        self.journal = Journal(self.path, sync=False)
        self._check_replay()

    @precondition(lambda self: self.order)
    @rule(cut=st.integers(min_value=2, max_value=40))
    def truncate_tail(self, cut):
        """Tear bytes off the file end: only the last record may die."""
        self.journal.close()
        with open(self.path, "rb") as fh:
            data = fh.read()
        last = data.rstrip(b"\n").rfind(b"\n")
        cut = min(cut, len(data) - last - 2)      # stay inside the record
        if cut >= 2:
            with open(self.path, "wb") as fh:
                fh.write(data[:-cut])
            self.order = self.order[:-1]
        self.journal = Journal(self.path, sync=False)
        self._check_replay()

    def teardown(self):
        self.journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)


JournalMachine.TestCase.settings = settings(max_examples=20,
                                            stateful_step_count=20,
                                            deadline=None)

TestJournalModel = JournalMachine.TestCase

"""The three bounded properties: overflow, limit cycle, response error.

Each ``prove_*`` function unrolls ``k`` clock steps of the exact
encoding (:mod:`repro.verify.encode`), poses the violation as a
:class:`~repro.verify.backends.VerifyProblem`, discharges it through the
selected backend and returns a :class:`~repro.verify.verdict.Verdict`:

* ``prove_no_overflow`` — no signal assignment overflows for any
  stimulus inside the declared :class:`~repro.verify.encode.Envelope`,
  over ``k`` steps from power-on.  "Overflow" is exactly the engine's
  notion: the rounded code falls outside the representable range (the
  condition under which ``Sig.assign`` bumps ``overflow_count`` and
  logs to ``ctx.overflow_log``), for wrap, saturate and error types
  alike.
* ``prove_no_limit_cycle`` — with all inputs held at zero, no initial
  register state (ranging symbolically over the full declared words)
  revisits itself through a nonzero state within ``k`` steps.  Since
  any state *on* a limit cycle is a valid initial state, ``unsat``
  proves the absence of zero-input limit cycles of period ``<= k``.
* ``prove_response_error`` — for LTI designs only: the quantized output
  never deviates from the unquantized (float-reference) output by more
  than ``bound``, for ``k`` steps over the envelope.  Matches the
  engine's dual-track ``fx``/``fl`` semantics with on-grid stimulus.

Counterexamples are replayed through the interpreted engine before
being reported (see :mod:`repro.verify.replay`); a replay mismatch is a
verifier bug and raises instead of reporting.
"""

from __future__ import annotations

from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.refine.flow import Annotations
from repro.sfg import record_design
from repro.verify import bv
from repro.verify.backends import VerifyBudget, VerifyProblem, \
    resolve_backend
from repro.verify.encode import EncodingUnsupported, Envelope, \
    StepEncoder, VerifyError, Wire
from repro.verify.replay import replay_counterexample
from repro.verify.verdict import COUNTEREXAMPLE, PROVED, UNKNOWN, \
    Counterexample, Verdict

__all__ = [
    "TracedDesign", "trace_design",
    "prove_no_overflow", "prove_no_limit_cycle", "prove_response_error",
]

#: samples to run under trace; structure converges after a few ticks.
TRACE_SAMPLES = 16


class TracedDesign:
    """A traced design plus the metadata the checker needs."""

    __slots__ = ("sfg", "name", "inputs", "output", "factory")

    def __init__(self, sfg, name, inputs, output=None, factory=None):
        self.sfg = sfg
        self.name = name
        self.inputs = tuple(inputs)
        self.output = output
        self.factory = factory


def trace_design(factory, samples=TRACE_SAMPLES, ranges=None,
                 dtypes=None, name=None):
    """Record a Design factory for verification
    (:func:`~repro.sfg.build.record_design`)."""
    sfg, design = record_design(factory, samples,
                                Annotations(dtypes=dtypes or {},
                                            ranges=ranges or {}).apply)
    return TracedDesign(sfg,
                        name or getattr(design, "name", "design"),
                        getattr(design, "inputs", ()),
                        getattr(design, "output", None),
                        factory)


def _as_traced(design):
    if isinstance(design, TracedDesign):
        return design
    if callable(design):
        return trace_design(design)
    raise VerifyError("expected a TracedDesign or a design factory, "
                      "got %r" % (design,))


def _default_code(spec):
    """Stimulus code used for inputs the model leaves unconstrained."""
    if spec.lo_code <= 0 <= spec.hi_code:
        return 0
    return spec.lo_code


def _stimulus_from_model(enc, model, k):
    """Per-input real-valued stimulus vectors from a backend model."""
    stimulus = {}
    for name, spec in enc.input_specs.items():
        series = []
        for t in range(k):
            code = model.get("%s@%d" % (name, t), _default_code(spec))
            series.append(code * 2.0 ** -spec.f)
        stimulus[name] = series
    return stimulus


def _unknown(prop, traced, k, backend_name, reason, envelope=None):
    obs_counters.inc("verify.unknown")
    return Verdict(prop, UNKNOWN, traced.name, k, backend_name,
                   reason=reason, envelope=envelope)


def _env_dict(envelope):
    if envelope is None:
        return None
    return {name: (lo, hi) for name, (lo, hi, _f)
            in envelope.bounds.items()}


def _check(backend, problem):
    obs_counters.inc("verify.checks")
    return backend.check(problem)


# -- property 1: overflow freedom -------------------------------------------


def prove_no_overflow(design, envelope, k, backend="auto", budget=None,
                      replay=True, dtypes=None):
    """Prove that no signal assignment overflows within ``k`` steps.

    ``design`` is a :class:`TracedDesign` or a Design factory;
    ``envelope`` an :class:`~repro.verify.encode.Envelope` (or a plain
    ``{input: (lo, hi)}`` dict).  Returns a
    :class:`~repro.verify.verdict.Verdict`.
    """
    traced = _as_traced(design)
    if not isinstance(envelope, Envelope):
        envelope = Envelope(envelope)
    budget = budget or VerifyBudget()
    be = resolve_backend(backend, budget)
    k = int(k)
    env_d = _env_dict(envelope)
    with obs_trace.span("verify.prove", property="no-overflow",
                        design=traced.name, k=k, backend=be.name):
        try:
            enc = StepEncoder(traced.sfg, traced.inputs, envelope,
                              dtypes=dtypes, max_bits=budget.max_bits)
            state = enc.initial_state()
            events = []
            for t in range(k):
                ins = {name: enc.input_var(name, t)
                       for name in enc.input_specs}
                state, _sigs = enc.step(state, ins, events,
                                        step_index=t)
        except EncodingUnsupported as exc:
            return _unknown("no-overflow", traced, k, be.name, str(exc),
                            env_d)
        violation = bv.any_of(e.overflowed for e in events)
        result = _check(be, VerifyProblem(violation))
        if result.status == "unsat":
            obs_counters.inc("verify.proved")
            return Verdict(
                "no-overflow", PROVED, traced.name, k, be.name,
                message="%d quantization steps cannot overflow for the "
                        "declared envelope" % len(events),
                stats=result.stats, envelope=env_d)
        if result.status == "unknown":
            return _unknown("no-overflow", traced, k, be.name,
                            result.reason, env_d)
        cex = _overflow_counterexample(enc, events, result.model, k)
        cex.detail = ("signal %r overflows at step %d with incoming "
                      "value %r" % (cex.signal, cex.step, cex.value))
        if replay:
            _confirm_overflow_replay(enc, cex)
        obs_counters.inc("verify.counterexample")
        return Verdict("no-overflow", COUNTEREXAMPLE, traced.name, k,
                       be.name, message=cex.detail, counterexample=cex,
                       stats=result.stats, envelope=env_d)


def _overflow_counterexample(enc, events, model, k):
    """Locate the first violating quantization under a model."""
    ev = bv.Evaluator([e.overflowed for e in events]
                      + [e.incoming.code for e in events])
    env = dict(model)
    for name, spec in enc.input_specs.items():
        for t in range(k):
            env.setdefault("%s@%d" % (name, t), _default_code(spec))
    view = ev.run(env)
    hit = None
    for e in sorted(events, key=lambda e: e.step):
        if view[e.overflowed]:
            hit = e
            break
    if hit is None:                         # pragma: no cover - sat => hit
        raise VerifyError("backend reported sat but no quantization "
                          "event is violated under its model")
    value = view[hit.incoming.code] * 2.0 ** -hit.incoming.f
    return Counterexample(_stimulus_from_model(enc, env, k), {},
                          signal=hit.signal, step=hit.step, value=value)


def _confirm_overflow_replay(enc, cex):
    """Replay and demand the bit-exact overflow; else raise."""
    obs_counters.inc("verify.replays")
    res = replay_counterexample(enc, cex, n_samples=cex.step + 1)
    if not res.completed:
        raise VerifyError("counterexample replay aborted: %s"
                          % res.outcome.error)
    events = [e for e in res.overflow_events(cex.signal)
              if e[0] == cex.step]
    if not events:
        raise VerifyError(
            "encoder/engine drift: predicted overflow of %r at step %d "
            "did not reproduce in the interpreted engine"
            % (cex.signal, cex.step))
    if all(e[2] != cex.value for e in events):
        raise VerifyError(
            "encoder/engine drift: overflow of %r at step %d "
            "reproduced with incoming value %r, model predicted %r"
            % (cex.signal, cex.step, events[0][2], cex.value))
    cex.replayed = True


# -- property 2: zero-input limit cycles ------------------------------------


def prove_no_limit_cycle(design, k, backend="auto", budget=None,
                         replay=True, dtypes=None):
    """Prove absence of zero-input limit cycles of period ``<= k``.

    Registers range symbolically over their full declared words; all
    inputs are held at zero.  Every register must carry a dtype (the
    state space must be finite and declared), else ``UNKNOWN``.
    """
    traced = _as_traced(design)
    budget = budget or VerifyBudget()
    be = resolve_backend(backend, budget)
    k = int(k)
    with obs_trace.span("verify.prove", property="no-limit-cycle",
                        design=traced.name, k=k, backend=be.name):
        try:
            enc = StepEncoder(traced.sfg, traced.inputs, envelope=None,
                              dtypes=dtypes, max_bits=budget.max_bits)
            reg_names = sorted(enc.states)
            if not reg_names:
                obs_counters.inc("verify.proved")
                return Verdict("no-limit-cycle", PROVED, traced.name, k,
                               be.name,
                               message="design is stateless")
            init = {name: enc.state_var(name) for name in reg_names}
            zero_in = {name: Wire(bv.const(0), 0)
                       for name in traced.inputs}
            states = [init]
            for t in range(k):
                nxt, _sigs = enc.step(states[-1], zero_in,
                                      step_index=t)
                states.append(nxt)
        except EncodingUnsupported as exc:
            return _unknown("no-limit-cycle", traced, k, be.name,
                            str(exc))

        def state_eq(si, sj):
            return bv.all_of(bv.eq(si[n].code, sj[n].code)
                             for n in reg_names)

        def state_nonzero(s):
            return bv.any_of(bv.ne(s[n].code, bv.const(0))
                             for n in reg_names)

        pair_conds = []
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                seg = bv.any_of(state_nonzero(states[m])
                                for m in range(i, j))
                pair_conds.append((i, j,
                                   bv.band(state_eq(states[i],
                                                    states[j]), seg)))
        violation = bv.any_of(c for _i, _j, c in pair_conds)
        result = _check(be, VerifyProblem(violation))
        if result.status == "unsat":
            obs_counters.inc("verify.proved")
            return Verdict(
                "no-limit-cycle", PROVED, traced.name, k, be.name,
                message="no zero-input state orbit of period <= %d "
                        "revisits a nonzero state" % k)
        if result.status == "unknown":
            return _unknown("no-limit-cycle", traced, k, be.name,
                            result.reason)
        cex = _limit_cycle_counterexample(enc, reg_names, states,
                                          pair_conds, result.model,
                                          traced.inputs, k)
        if replay:
            _confirm_limit_cycle_replay(enc, reg_names, cex, k)
        obs_counters.inc("verify.counterexample")
        return Verdict("no-limit-cycle", COUNTEREXAMPLE, traced.name, k,
                       be.name, message=cex.detail, counterexample=cex,
                       stats=result.stats)


def _limit_cycle_counterexample(enc, reg_names, states, pair_conds,
                                model, inputs, k):
    roots = [c for _i, _j, c in pair_conds]
    state_codes = [[s[n].code for n in reg_names] for s in states]
    ev = bv.Evaluator(roots + [c for row in state_codes for c in row])
    env = dict(model)
    for name in reg_names:
        env.setdefault("%s@s0" % name, 0)
    view = ev.run(env)
    pair = None
    for (i, j, cond) in pair_conds:
        if view[cond]:
            pair = (i, j)
            break
    if pair is None:                        # pragma: no cover - sat => pair
        raise VerifyError("backend reported sat but no state pair "
                          "coincides under its model")
    i, j = pair
    init_state = {
        name: view[states[0][name].code] * 2.0 ** -states[0][name].f
        for name in reg_names}
    orbit = [
        {name: view[states[t][name].code] * 2.0 ** -states[t][name].f
         for name in reg_names}
        for t in range(len(states))]
    return Counterexample(
        {name: [0.0] * k for name in inputs}, init_state,
        signal=reg_names[0] if len(reg_names) == 1 else None,
        step=j,
        value=orbit[i],
        detail="zero-input state orbit returns to step-%d state at "
               "step %d through a nonzero state (period %d)"
               % (i, j, j - i))


def _confirm_limit_cycle_replay(enc, reg_names, cex, k):
    """Replay the orbit and demand a nonzero state revisit; else raise."""
    obs_counters.inc("verify.replays")
    res = replay_counterexample(enc, cex, n_samples=k)
    if not res.completed:
        raise VerifyError("counterexample replay aborted: %s"
                          % res.outcome.error)
    # Reconstruct the state sequence: s_0 is the init, s_{t+1} is the
    # pending value stored at step t (held value when never assigned).
    seqs = {}
    for name in reg_names:
        stored = res.stored_values(name)
        init = float(res.design._sigs[name].init_value)
        if enc.states[name].dtype is not None:
            init = enc.states[name].dtype.saturating.quantize(init)
        seq = [init]
        for t in range(k):
            seq.append(stored[t] if t < len(stored) else seq[-1])
        seqs[name] = seq
    found = False
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if all(seqs[n][i] == seqs[n][j] for n in reg_names) and \
                    any(seqs[n][m] != 0.0 for n in reg_names
                        for m in range(i, j)):
                found = True
                break
        if found:
            break
    if not found:
        raise VerifyError(
            "encoder/engine drift: the modelled zero-input limit cycle "
            "did not reproduce in the interpreted engine")
    cex.replayed = True


# -- property 3: LTI response error ------------------------------------------


def prove_response_error(design, bound, k, envelope, backend="auto",
                         budget=None, dtypes=None):
    """Prove ``|y_fx - y_ref| <= bound`` for ``k`` steps (LTI designs).

    The reference track re-executes the same dataflow with every
    quantizer removed — the engine's float (``fl``) track — sharing the
    on-grid stimulus, so the bound covers the error *introduced by the
    datapath quantization*.  Nonlinear ops (``select``, ``abs``,
    comparisons, signal-by-signal multiply, …) make the design non-LTI
    and yield ``UNKNOWN``.
    """
    traced = _as_traced(design)
    if traced.output is None:
        raise VerifyError("design %r declares no output signal"
                          % traced.name)
    if not isinstance(envelope, Envelope):
        envelope = Envelope(envelope)
    budget = budget or VerifyBudget()
    be = resolve_backend(backend, budget)
    k = int(k)
    bound = float(bound)
    if bound < 0.0:
        raise VerifyError("error bound must be >= 0, got %r" % bound)
    env_d = _env_dict(envelope)
    with obs_trace.span("verify.prove", property="response-error",
                        design=traced.name, k=k, backend=be.name):
        try:
            enc = StepEncoder(traced.sfg, traced.inputs, envelope,
                              dtypes=dtypes, max_bits=budget.max_bits,
                              require_lti=True)
            bound_w = enc.exact_wire(bound, "error bound")
            state_q = enc.initial_state()
            state_r = {name: enc.exact_wire(
                enc.states[name].init_value, "init of %r" % name)
                for name in enc.states}
            step_conds = []
            diffs = []
            for t in range(k):
                ins = {name: enc.input_var(name, t)
                       for name in enc.input_specs}
                state_q, sigs_q = enc.step(state_q, ins, step_index=t)
                state_r, sigs_r = enc.step(state_r, ins, step_index=t,
                                           quantized=False)
                wq = sigs_q[traced.output]
                wr = sigs_r[traced.output]
                f = max(wq.f, wr.f, bound_w.f)
                dq = bv.shl(wq.code, f - wq.f)
                dr = bv.shl(wr.code, f - wr.f)
                db = bv.shl(bound_w.code, f - bound_w.f)
                diff = bv.sub(dq, dr)
                enc._gate(diff, "output error at step %d" % t)
                diffs.append((diff, f))
                step_conds.append(bv.bor(bv.gt(diff, db),
                                         bv.lt(diff, bv.neg(db))))
        except EncodingUnsupported as exc:
            return _unknown("response-error", traced, k, be.name,
                            str(exc), env_d)
        violation = bv.any_of(step_conds)
        result = _check(be, VerifyProblem(violation))
        if result.status == "unsat":
            obs_counters.inc("verify.proved")
            return Verdict(
                "response-error", PROVED, traced.name, k, be.name,
                message="|%s_fx - %s_ref| <= %r holds for every "
                        "envelope stimulus"
                        % (traced.output, traced.output, bound),
                stats=result.stats, envelope=env_d)
        if result.status == "unknown":
            return _unknown("response-error", traced, k, be.name,
                            result.reason, env_d)
        ev = bv.Evaluator([c for c in step_conds]
                          + [d for d, _f in diffs])
        env = dict(result.model)
        for name, spec in enc.input_specs.items():
            for t in range(k):
                env.setdefault("%s@%d" % (name, t),
                               _default_code(spec))
        view = ev.run(env)
        step = next(t for t, c in enumerate(step_conds) if view[c])
        diff, f = diffs[step]
        err = view[diff] * 2.0 ** -f
        cex = Counterexample(
            _stimulus_from_model(enc, env, k), {},
            signal=traced.output, step=step, value=err,
            detail="output error %r at step %d exceeds bound %r"
                   % (err, step, bound))
        obs_counters.inc("verify.counterexample")
        return Verdict("response-error", COUNTEREXAMPLE, traced.name, k,
                       be.name, message=cex.detail, counterexample=cex,
                       stats=result.stats, envelope=env_d)

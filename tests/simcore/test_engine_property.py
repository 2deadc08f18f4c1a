"""Differential tests: the engine against the reference heap loop.

Hypothesis generates random schedules — heavy timestamp ties, process
chains with same-timestamp cascades, joins on finished processes,
interrupts, and ``put_many`` on a bounded store with a consumer — and
runs each one on the engine and on the per-event reference loop
(``tests/simcore/refengine.py``), both under strict, tracing sanitizers.
The engines must produce the *identical* event stream: same (when,
priority, seq, kind, name) tuples in the same order, same rolling
SHA-256 digest, same final clock and dispatch count.  The engine's
``cohorts_dispatched`` must count the distinct timestamps the clock
advanced to.

This is the engine-level analogue of the golden-trace gate: the golden
scenario pins seven production systems; these properties pin the whole
schedule space the engines can express.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import SimSanitizer
from repro.errors import InterruptError
from repro.simcore import Simulator, Store
from tests.simcore.refengine import Simulator as RefSimulator

#: Tie-heavy delay pool: repeated values make same-timestamp cohorts
#: (the interesting dispatch case) the common case, not the rare one.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("proc"),
                  st.lists(DELAYS, min_size=1, max_size=4)),
        st.tuples(st.just("event"), st.just(None)),
        st.tuples(st.just("join"),
                  st.tuples(st.integers(0, 1_000_000), DELAYS)),
        st.tuples(st.just("interrupt"),
                  st.tuples(st.integers(0, 1_000_000), DELAYS)),
        st.tuples(st.just("put_many"),
                  st.tuples(st.integers(1, 6), DELAYS)),
    ),
    min_size=1, max_size=25)


def _run_schedule(sim, ops, until=None):
    """Interpret *ops* identically on either engine, then run."""
    procs = []
    for kind, arg in ops:
        if kind == "timeout":
            sim.timeout(arg)
        elif kind == "proc":
            def body(sim=sim, delays=tuple(arg)):
                for d in delays:
                    try:
                        yield sim.timeout(d)
                    except InterruptError:
                        pass
                    # Arm during dispatch: with d == 0.0 this is a
                    # same-timestamp cascade inside an open cohort.
                    sim.timeout(d)
            procs.append(sim.process(body()))
        elif kind == "event":
            sim.event().succeed(None)
        elif kind == "join" and procs:
            # Yielding a finished process takes the URGENT
            # already-processed kick; a live one is a plain wait.
            def joiner(sim=sim, target=procs[arg[0] % len(procs)],
                       d=arg[1]):
                yield sim.timeout(d)
                yield target
            procs.append(sim.process(joiner()))
        elif kind == "interrupt" and procs:
            def interrupter(sim=sim, target=procs[arg[0] % len(procs)],
                            d=arg[1]):
                yield sim.timeout(d)
                target.interrupt("op")
            procs.append(sim.process(interrupter()))
        elif kind == "put_many":
            n, d = arg
            store = Store(sim, capacity=2)

            def consumer(sim=sim, store=store, n=n, d=d):
                for _ in range(n):
                    yield store.get()
                    yield sim.timeout(d)

            def producer(sim=sim, store=store, n=n, d=d):
                yield sim.timeout(d)
                for ev in store.put_many(range(n)):
                    yield ev
            procs.append(sim.process(consumer()))
            procs.append(sim.process(producer()))
    sim.run(until=until)


def _trace(sim_cls, ops, until=None):
    sim = sim_cls()
    san = SimSanitizer(strict=True, trace=True)
    sim.sanitizer = san
    _run_schedule(sim, ops, until=until)
    return sim, san


def _clock_moves(san):
    """Distinct dispatch timestamps after 0: the cohorts the clock
    advanced to (it starts at 0 and only dispatch moves it forward)."""
    return len({rec[0] for rec in san.trace} - {0.0})


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_random_schedules_are_bit_identical(ops):
    ref_sim, ref_san = _trace(RefSimulator, ops)
    sim, san = _trace(Simulator, ops)
    assert SimSanitizer.first_divergence(ref_san, san) is None
    assert ref_san.trace_digest() == san.trace_digest()
    assert ref_sim.now == sim.now
    assert ref_sim.events_dispatched == sim.events_dispatched
    assert sim.cohorts_dispatched == _clock_moves(san)
    assert ref_san.clean and san.clean


@settings(max_examples=40, deadline=None)
@given(ops=OPS, until=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 3.0]))
def test_run_until_horizon_is_bit_identical(ops, until):
    """The tolerance-free horizon: both engines must dispatch exactly
    the same events (events at the horizon included) and land on
    ``now == until``."""
    ref_sim, ref_san = _trace(RefSimulator, ops, until=until)
    sim, san = _trace(Simulator, ops, until=until)
    assert SimSanitizer.first_divergence(ref_san, san) is None
    assert ref_san.trace_digest() == san.trace_digest()
    assert ref_sim.now == sim.now == until
    assert ref_sim.events_dispatched == sim.events_dispatched
    assert sim.cohorts_dispatched == _clock_moves(san)


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_unsanitized_run_matches_sanitized_outcome(ops):
    """Without a sanitizer the engine must leave the same observable
    state, counters included, as fully observed dispatch."""
    fast = Simulator()
    _run_schedule(fast, ops)
    slow, san = _trace(Simulator, ops)
    assert fast.now == slow.now
    assert fast.events_dispatched == slow.events_dispatched
    assert fast.cohorts_dispatched == _clock_moves(san)


def _mixed_program(sim):
    """A fixed schedule covering the dispatch shapes both engines share:
    timer waves with heavy ties, an URGENT interrupt kick that preempts
    NORMAL timeouts at its own timestamp, and processes chaining
    same-time events."""
    waves = (np.arange(1, 21, dtype=np.float64) * 1e-4).tolist()

    def sleeper():
        try:
            yield sim.timeout(1.0)
        except InterruptError:
            yield sim.timeout(1e-4)

    def alarm(target):
        # Armed before the waves, so it fires first at waves[9] and its
        # kick must overtake the rest of that wave.
        yield sim.timeout(waves[9])
        target.interrupt("alarm")

    def timers():
        for delay in waves:
            for _ in range(25):
                sim.timeout(delay)
        for _ in range(10):
            sim.timeout(1.5e-3)
        yield sim.timeout(0.0)

    def chain(depth):
        for _ in range(depth):
            yield sim.timeout(0.0)
        yield sim.timeout(1e-4)

    def waiter():
        yield sim.timeout(5e-4)
        done = [sim.process(chain(d), name=f"chain-{d}")
                for d in range(1, 4)]
        for p in done:
            yield p

    target = sim.process(sleeper(), name="sleeper")
    sim.process(alarm(target), name="alarm")
    sim.process(timers(), name="timers")
    sim.process(waiter(), name="waiter")
    sim.run()


def test_mixed_program_matches_reference_digest():
    sans = []
    for sim_cls in (RefSimulator, Simulator):
        sim = sim_cls()
        san = SimSanitizer(strict=True, trace=True)
        sim.sanitizer = san
        _mixed_program(sim)
        sans.append(san)
    ref_san, san = sans
    assert SimSanitizer.first_divergence(ref_san, san) is None
    assert ref_san.trace_digest() == san.trace_digest()
    assert ref_san.clean and san.clean
    assert san.steps == ref_san.steps > 500
    assert sim.cohorts_dispatched == _clock_moves(san)

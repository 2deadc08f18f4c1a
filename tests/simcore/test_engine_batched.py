"""Engine edge cases pinned against the reference heap loop: the
tolerance-free run horizon and ``Store.put_many``'s event stream.

The bit-identity of the engine against the reference loop over random
schedules is covered by the golden traces and the hypothesis property
tests (``test_engine_property.py``).
"""

from repro.analysis.sanitizer import SimSanitizer
from repro.simcore import Simulator, Store
from tests.simcore.refengine import Simulator as RefSimulator


# ----------------------------------------------------------------------
# run(until): tolerance-free, inclusive horizon
# ----------------------------------------------------------------------
def test_run_until_dispatches_cohort_exactly_at_horizon():
    """Regression: the horizon check must never split a same-timestamp
    cohort — including events scheduled *during* dispatch at the
    horizon itself."""
    sim = Simulator()
    fired = []

    def at_horizon(sim):
        yield sim.timeout(1.0)
        fired.append("first")
        # Armed while dispatching the cohort at exactly until=1.0; the
        # seed loop dispatches it (same timestamp), so must we.
        yield sim.timeout(0.0)
        fired.append("second")

    sim.process(at_horizon(sim))
    sim.timeout(1.5)               # beyond the horizon: must not fire
    sim.run(until=1.0)
    assert fired == ["first", "second"]
    assert sim.now == 1.0


def test_run_until_is_tolerance_free():
    # 0.1 + 0.2 != 0.3 in binary; the horizon comparison must be exact,
    # with no epsilon that would leak events past the horizon.
    sim = Simulator()
    fired = []
    t = sim.timeout(0.1 + 0.2)
    t.callbacks.append(lambda ev: fired.append("past"))
    sim.run(until=0.3)
    assert fired == []             # 0.30000000000000004 > 0.3
    assert sim.now == 0.3
    sim.run()
    assert fired == ["past"]


def test_run_until_matches_reference_engine():
    for until in (0.5, 1.0, 1.5, 2.0):
        sims = (Simulator(), RefSimulator())
        for sim in sims:
            for delay in (1.0, 1.0, 2.0, 0.5, 1.0, 1.75):
                sim.timeout(delay)
            sim.run(until=until)
        assert sims[0].now == sims[1].now
        assert sims[0].events_dispatched == sims[1].events_dispatched


# ----------------------------------------------------------------------
# Store.put_many
# ----------------------------------------------------------------------
def _put_program(sim, many):
    """A producer hands 8 items to a capacity-4 store that a consumer
    drains, then waits on each put event in order."""
    store = Store(sim, capacity=4)
    got = []
    acked = []

    def consumer():
        for _ in range(8):
            item = yield store.get()
            got.append(item)

    def producer():
        yield sim.timeout(1.0)
        if many:
            evs = store.put_many(range(8))  # blocks at capacity
        else:
            evs = [store.put(item) for item in range(8)]
        for i, ev in enumerate(evs):
            yield ev
            acked.append((i, sim.now))

    procs = [sim.process(consumer()), sim.process(producer())]
    sim.run()
    assert not any(p.is_alive for p in procs)
    return got, acked


def test_put_many_matches_per_event_reference():
    """Store.put_many must produce the identical event stream that one
    put per item produces (same seq numbers, same order), on this
    engine and on the reference loop."""
    outcomes = []
    for sim_cls in (Simulator, RefSimulator):
        for many in (True, False):
            sim = sim_cls()
            san = SimSanitizer(strict=True, trace=True)
            sim.sanitizer = san
            got, acked = _put_program(sim, many)
            outcomes.append((got, acked, sim.now, sim.events_dispatched,
                             san.trace_digest()))
    assert all(o == outcomes[0] for o in outcomes[1:])
    got, acked = outcomes[0][:2]
    assert got == list(range(8))
    assert [i for i, _ in acked] == list(range(8))

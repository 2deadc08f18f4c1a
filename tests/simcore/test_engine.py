"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.errors import InterruptError, OutOfTimeError, SimulationError
from repro.simcore import Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc(sim)) == 2.5
    assert sim.now == 2.5


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
def test_timeout_rejects_non_finite_delay(delay):
    sim = Simulator()
    with pytest.raises(ValueError, match="finite"):
        sim.timeout(delay)
    assert sim.peek() == math.inf      # nothing was scheduled


@pytest.mark.parametrize("until", [math.nan, math.inf])
def test_run_until_rejects_non_finite_horizon(until):
    sim = Simulator()
    fired = []
    sim.timeout(1.0).callbacks.append(lambda ev: fired.append(sim.now))
    with pytest.raises(ValueError, match="finite"):
        sim.run(until=until)
    assert fired == [] and sim.now == 0.0
    sim.run()
    assert fired == [1.0]


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        return "payload"

    assert sim.run_process(proc(sim)) == "payload"


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    marks = []

    def proc(sim):
        for d in (1.0, 2.0, 3.0):
            yield sim.timeout(d)
            marks.append(sim.now)

    sim.run_process(proc(sim))
    assert marks == [1.0, 3.0, 6.0]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def ticker(sim, name, period, n):
        for _ in range(n):
            yield sim.timeout(period)
            order.append((sim.now, name))

    a = sim.process(ticker(sim, "a", 1.0, 3))
    b = sim.process(ticker(sim, "b", 1.5, 2))
    sim.drain([a, b])
    # At t=3.0 both fire; b's timeout was scheduled earlier (at t=1.5) so
    # the deterministic seq-tiebreak runs it first.
    assert order == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a")]


def test_manual_event_hand_off_between_processes():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim):
        value = yield ev
        seen.append((sim.now, value))

    def firer(sim):
        yield sim.timeout(4)
        ev.succeed("hello")

    sim.drain([sim.process(waiter(sim)), sim.process(firer(sim))])
    assert seen == [(4.0, "hello")]


def test_waiting_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    sim.run()  # event gets processed

    def late(sim):
        value = yield ev
        return (sim.now, value)

    assert sim.run_process(late(sim)) == (0.0, 42)


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_failed_event_throws_into_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    def firer(sim):
        yield sim.timeout(1)
        ev.fail(RuntimeError("boom"))

    p = sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert p.value == "caught boom"


def test_uncaught_process_exception_propagates_from_drain():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("exploded")

    p = sim.process(bad(sim))
    with pytest.raises(ValueError, match="exploded"):
        sim.drain([p])


def test_yielding_non_event_raises_inside_process():
    sim = Simulator()

    def bad(sim):
        yield 123  # sim-lint: disable=DET107 -- deliberate bad yield under test

    p = sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.drain([p])


def test_interrupt_throws_interrupt_error():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except InterruptError as exc:
            log.append((sim.now, exc.cause))

    def interrupter(sim, victim):
        yield sim.timeout(3)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(3.0, "wake up")]


def test_interrupted_wait_does_not_double_resume():
    sim = Simulator()
    resumes = []

    def sleeper(sim):
        try:
            yield sim.timeout(5)
            resumes.append("timeout")
        except InterruptError:
            resumes.append("interrupt")
        # Keep living past the original timeout's firing time.
        yield sim.timeout(10)
        resumes.append("late")

    def interrupter(sim, victim):
        yield sim.timeout(1)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert resumes == ["interrupt", "late"]


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt()  # should not raise
    sim.run()


def test_reyielding_the_interrupted_event_resumes_once():
    sim = Simulator()
    log = []

    def sleeper(sim):
        ev = sim.timeout(5, value="fired")
        try:
            yield ev
        except InterruptError:
            log.append(("interrupt", sim.now))
        log.append(((yield ev), sim.now))   # still pending: wait again
        yield sim.timeout(10)
        log.append(("late", sim.now))

    def interrupter(sim, victim):
        yield sim.timeout(1)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupt", 1.0), ("fired", 5.0), ("late", 15.0)]
    assert victim.ok and not victim.is_alive


@pytest.mark.parametrize("victim_index", [0, 1])
def test_interrupting_one_of_two_waiters_leaves_the_other(victim_index):
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter(sim, name):
        try:
            log.append((name, (yield ev), sim.now))
        except InterruptError:
            log.append((name, "interrupt", sim.now))

    waiters = [sim.process(waiter(sim, name)) for name in "ab"]

    def driver(sim):
        yield sim.timeout(1)
        waiters[victim_index].interrupt()
        yield sim.timeout(1)
        ev.succeed("v")

    sim.process(driver(sim))
    sim.run()
    victim, other = "ab"[victim_index], "ab"[1 - victim_index]
    assert log == [(victim, "interrupt", 1.0), (other, "v", 2.0)]


def test_reyield_after_interrupt_queues_behind_later_waiters():
    """Waiting on an event again after an interrupt queues the process
    behind the waiters that came in between: they resume first."""
    sim = Simulator()
    ev = sim.event()
    order = []

    def first(sim):
        try:
            yield ev
        except InterruptError:
            order.append("interrupt")
        yield ev
        order.append("first")

    def second(sim):
        yield ev
        order.append("second")

    a = sim.process(first(sim))
    sim.process(second(sim))

    def driver(sim):
        yield sim.timeout(1)
        a.interrupt()
        yield sim.timeout(1)
        ev.succeed()

    sim.process(driver(sim))
    sim.run()
    assert order == ["interrupt", "second", "first"]


def test_self_interrupt_during_own_step_is_dropped():
    """A process is not waiting while it runs, so interrupting itself
    abandons no wait: it resumes from what it yields next, once."""
    sim = Simulator()
    log = []

    def selfish(sim):
        yield sim.timeout(1)
        sim.active_process.interrupt("self")
        log.append(((yield sim.timeout(2, value="next")), sim.now))
        yield sim.timeout(3)
        log.append(("late", sim.now))

    def quitter(sim):
        yield sim.timeout(1)
        sim.active_process.interrupt("self")
        return "done"

    p = sim.process(selfish(sim))
    q = sim.process(quitter(sim))
    sim.run()
    assert log == [("next", 3.0), ("late", 6.0)]
    assert p.ok and q.ok and q.value == "done"


def test_interrupt_between_trigger_and_dispatch_of_awaited_event():
    """The awaited event is on the heap when the interrupt lands: the
    URGENT interrupt wins, and the event's own dispatch resumes nobody.
    Waiting on it again takes its value, once."""
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter(sim):
        try:
            yield ev
        except InterruptError as exc:
            log.append(("interrupt", exc.cause, sim.now))
        log.append(((yield ev), sim.now))
        yield sim.timeout(1)
        log.append(("late", sim.now))

    w = sim.process(waiter(sim))

    def driver(sim):
        yield sim.timeout(1)
        ev.succeed("v")
        assert ev.triggered and not ev.processed
        w.interrupt("now")

    sim.process(driver(sim))
    sim.run()
    assert log == [("interrupt", "now", 1.0), ("v", 1.0), ("late", 2.0)]
    assert w.ok and ev.processed


def test_interrupted_waiter_keeps_a_failed_event_observed():
    """An interrupt moves the waiter on, but the abandoned event still
    counts it: the event's failure reaches nobody and is not raised."""
    sim = Simulator()
    ev = sim.event()
    log = []

    def waiter(sim):
        try:
            yield ev
        except InterruptError:
            log.append(("interrupt", sim.now))
        yield sim.timeout(1)
        log.append(("late", sim.now))

    w = sim.process(waiter(sim))

    def driver(sim):
        yield sim.timeout(1)
        ev.fail(RuntimeError("lost"))
        w.interrupt()

    sim.process(driver(sim))
    sim.run()
    assert log == [("interrupt", 1.0), ("late", 2.0)]
    assert w.ok and ev.processed and not ev.ok


def test_run_until_advances_clock_to_horizon():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)

    sim.process(proc(sim))
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_process_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck(sim))


def test_run_until_triggered_detects_deadlock():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_triggered(sim.event())
    assert sim.now == 1.0


def test_run_until_triggered_horizon_is_inclusive():
    """Events at exactly *until* dispatch, same-instant cascades too;
    the first event past it does not, and the clock stays put."""
    sim = Simulator()
    done = sim.event()
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        seen.append("at-until")
        yield sim.timeout(0.0)
        seen.append("cascade")
        yield sim.timeout(1.0)
        done.succeed()

    sim.process(proc(sim))
    with pytest.raises(OutOfTimeError) as info:
        sim.run_until_triggered(done, until=1.0)
    assert info.value.budget == 1.0
    assert seen == ["at-until", "cascade"]
    assert sim.now == 1.0 and sim.peek() == 2.0
    dispatched = sim.events_dispatched
    with pytest.raises(OutOfTimeError):
        sim.run_until_triggered(done, until=1.5)
    assert sim.events_dispatched == dispatched and sim.peek() == 2.0
    sim.run_until_triggered(done, until=2.0)
    assert done.triggered and sim.now == 2.0


@pytest.mark.parametrize("until", [math.nan, math.inf, -math.inf])
def test_run_until_triggered_rejects_non_finite_horizon(until):
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(ValueError):
        sim.run_until_triggered(sim.event(), until=until)
    assert sim.events_dispatched == 0


def _dies_at_one(sim):
    yield sim.timeout(1.0)
    raise KeyError("boom")


def test_run_until_triggered_raises_unobserved_death():
    """A death nobody waits on is raised after the step it happened in,
    before a same-instant event can trigger the awaited one."""
    sim = Simulator()
    done = sim.event()

    def finisher(sim):
        yield sim.timeout(1.0)
        done.succeed()

    sim.process(_dies_at_one(sim))
    sim.process(finisher(sim))
    with pytest.raises(KeyError):
        sim.run_until_triggered(done)
    assert sim.now == 1.0 and not done.triggered


def test_run_until_triggered_leaves_a_joined_death_to_its_waiter():
    sim = Simulator()
    done = sim.event()

    def parent(sim):
        try:
            yield sim.process(_dies_at_one(sim))
        except KeyError:
            done.succeed("caught")

    sim.process(parent(sim))
    sim.run_until_triggered(done)
    assert done.value == "caught"


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    procs = [sim.process(proc(sim, i)) for i in range(5)]
    sim.drain(procs)
    assert order == [0, 1, 2, 3, 4]


def test_nested_subprocess_wait():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return "child-done"

    def parent(sim):
        result = yield sim.process(child(sim))
        return (sim.now, result)

    assert sim.run_process(parent(sim)) == (2.0, "child-done")


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_active_process_visible_during_step():
    sim = Simulator()
    captured = []

    def proc(sim):
        captured.append(sim.active_process)
        yield sim.timeout(1)

    p = sim.process(proc(sim))
    sim.run()
    assert captured == [p]
    assert sim.active_process is None

"""Core event loop, events, and generator-coroutine processes.

The engine is a heap-driven discrete-event simulator.  Time is a float
(seconds of simulated wall-clock).  Every pending event is one
``(when, key, event)`` entry of a single ``heapq``; the key packs the
scheduling priority above a monotone sequence number, so entries pop
in ``(when, priority, seq)`` order and two runs with the same seeds
produce identical traces.

Processes are plain Python generators that ``yield`` :class:`Event`
objects; the engine resumes a process when the event it waits on fires,
sending the event's value into the generator (or throwing the event's
exception).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import InterruptError, OutOfTimeError, SimulationError

#: Sentinel for "this event has not been triggered yet".
PENDING = object()

#: Scheduling priorities: URGENT events (interrupts) preempt NORMAL events
#: scheduled for the same instant.
URGENT = 0
NORMAL = 1

#: Bit position of the priority field inside a packed heap key.
PRIO_SHIFT = 62
#: Mask recovering the sequence number from a packed key.
SEQ_MASK = (1 << PRIO_SHIFT) - 1

_INF = float("inf")


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled on the heap with a value or an exception), and
    *processed* (its callbacks have run).  Processes wait on events by
    yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result; raises if read before the event triggers."""
        if self._value is PENDING:
            raise SimulationError("value of untriggered event")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with *value* at the current time."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, priority)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay; the workhorse of all timing."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float,
                 value: Any = None) -> None:
        # Also rejects NaN, for which every comparison is false.
        if not 0 <= delay < _INF:
            raise ValueError(
                f"timeout delay must be finite and >= 0: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, NORMAL, delay)


class Process(Event):
    """A running generator coroutine.

    The process object doubles as an event that triggers when the generator
    terminates: its value is the generator's return value, or the
    unhandled exception if the generator raised.  Waiters get that
    exception thrown into them; a failure nobody waits on is raised out
    of :meth:`Simulator.run_until_triggered`.
    """

    __slots__ = ("gen", "name", "_wait_token", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"process requires a generator, got {gen!r}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        #: Incremented whenever the process switches the event it waits on,
        #: so callbacks from stale events become no-ops (needed for
        #: interrupt support).
        self._wait_token = 0
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current simulation time.
        boot = Event(sim)
        boot.succeed(None, priority=URGENT)
        boot.callbacks.append(self._make_resume(self._wait_token))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process immediately.

        The process must currently be waiting on an event; the pending wait
        is abandoned (its eventual firing is ignored).
        """
        if not self.is_alive:
            return
        self._wait_token += 1  # invalidate the outstanding wait
        token = self._wait_token
        kick = Event(self.sim)
        kick.fail(InterruptError(cause), priority=URGENT)
        kick.callbacks.append(self._make_resume(token))

    def _make_resume(self, token: int) -> Callable[[Event], None]:
        def resume(event: Event) -> None:
            if token != self._wait_token or not self.is_alive:
                return  # stale wake-up (e.g. interrupted while waiting)
            self._step(event)
        return resume

    def _step(self, event: Event) -> None:
        """Advance the generator by one yield."""
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        # The process boundary: any failure is routed into Process.fail
        # and re-raised in waiters / Simulator.run — nothing is swallowed.
        # sim-lint: disable=DET105 -- exceptions become the process event's value
        except BaseException as exc:
            sim._active_process = None
            if not self.callbacks:
                # Nobody waits on this process: record the death for
                # run_until_triggered to raise after this step.
                sim._unobserved_failure = exc
            self.fail(exc)
            return
        sim._active_process = None

        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            # Throw it back into the generator on the next tick so the
            # traceback points at the offending yield.
            kick = Event(sim)
            kick.fail(exc, priority=URGENT)
            self._wait_token += 1
            kick.callbacks.append(self._make_resume(self._wait_token))
            return

        self._wait_token += 1
        self._waiting_on = target
        if target.callbacks is None:
            # Already processed: resume immediately (same timestamp).
            kick = Event(sim)
            if target._ok:
                kick.succeed(target._value, priority=URGENT)
            else:
                kick.fail(target._value, priority=URGENT)
            kick.callbacks.append(self._make_resume(self._wait_token))
        else:
            target.callbacks.append(self._make_resume(self._wait_token))


class Simulator:
    """The event loop: one heap of ``(when, key, event)`` entries.

    ``key`` is ``(priority << PRIO_SHIFT) | seq``.  Keys are unique, so
    tuple comparison never reaches the event, and heap order is the
    ``(when, priority, seq)`` order the trace digests pin.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Exception of the latest process that died with no waiter.
        self._unobserved_failure: Optional[BaseException] = None
        #: Optional :class:`repro.analysis.SimSanitizer`; when None (the
        #: default) the hooks below cost one pointer test per operation.
        self.sanitizer = None
        #: Dispatch statistics: events processed, and timestamps the
        #: clock advanced to (a *cohort* is the run of events at one
        #: timestamp).
        self.events_dispatched = 0
        self.cohorts_dispatched = 0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, gen, name)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None outside callbacks)."""
        return self._active_process

    def _deadlock_dump(self) -> str:
        """Wait-for cycle dump from an attached race detector, if any."""
        san = self.sanitizer
        if san is None:
            return ""
        dump = getattr(san, "deadlock_dump", None)
        if dump is None:
            return ""
        text = dump()
        return f"\n{text}" if text else ""

    # ------------------------------------------------------------------
    # Scheduling and dispatch
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        when = self.now + delay
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(self.now, when, priority, self._seq,
                                       event)
        heapq.heappush(self._heap,
                       (when, (priority << PRIO_SHIFT) | self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else _INF

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, key, event = heapq.heappop(self._heap)
        # sim-lint: disable=DET104 -- exact equality defines cohort membership
        if when != self.now:
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
            self.cohorts_dispatched += 1
        if self.sanitizer is not None:
            self.sanitizer.on_step(when, key >> PRIO_SHIFT, key & SEQ_MASK,
                                   event)
        self.events_dispatched += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            # A failed event nobody waits on: surface the error.
            raise event._value

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or simulated time passes *until*.

        If *until* is given it must be finite, and ``now`` is advanced
        to exactly *until* when the horizon is reached (even if no event
        falls on it).  The horizon check is tolerance-free and inclusive:
        every event at exactly ``until`` is dispatched, including events
        that those events schedule for the same instant.
        """
        if until is not None:
            if not -_INF < until < _INF:
                raise ValueError(f"until={until!r} is not a finite time")
            if until < self.now:
                raise ValueError(
                    f"until={until} is in the past (now={self.now})")
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self.step()
        if until is not None:
            self.now = until

    def run_until_triggered(self, event: Event,
                            until: Optional[float] = None) -> None:
        """Step until *event* has triggered.

        The canonical driver epoch loop.  Two rules end it early:

        * a process that dies while nothing waits on it has its
          exception raised right after the step in which it died, before
          any later event (even one at the same instant) can trigger
          *event*;
        * with *until* given, an event scheduled past it is not
          dispatched: :class:`OutOfTimeError` is raised instead.  The
          horizon is inclusive and tolerance-free, as in :meth:`run`,
          and must be finite.

        Raises :class:`SimulationError` if the schedule drains first (a
        deadlock).
        """
        if until is None:
            horizon = _INF
        elif -_INF < until < _INF:
            horizon = until
        else:
            raise ValueError(f"until={until!r} is not a finite time")
        heap = self._heap
        self._unobserved_failure = None
        while not event.triggered:
            if not heap:
                raise SimulationError(
                    f"deadlock: schedule drained before the awaited "
                    f"{type(event).__name__} triggered"
                    f"{self._deadlock_dump()}")
            if heap[0][0] > horizon:
                raise OutOfTimeError(horizon)
            self.step()
            exc = self._unobserved_failure
            if exc is not None:
                self._unobserved_failure = None
                raise exc

    def run_process(self, gen_or_proc: Any) -> Any:
        """Convenience: run one process to completion and return its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the schedule drained before the process
        finished (a deadlock).
        """
        proc = gen_or_proc
        if not isinstance(proc, Process):
            proc = self.process(proc)
        while proc.is_alive:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: schedule drained but {proc.name!r} is "
                    f"alive{self._deadlock_dump()}"
                )
            self.step()
        if not proc.ok:
            raise proc._value
        return proc.value

    def drain(self, processes: Iterable[Process]) -> None:
        """Run until every process in *processes* has terminated."""
        procs = list(processes)
        while any(p.is_alive for p in procs):
            if not self._heap:
                alive = [p.name for p in procs if p.is_alive]
                raise SimulationError(
                    f"deadlock: processes still alive: {alive}"
                    f"{self._deadlock_dump()}")
            self.step()
        for p in procs:
            if not p.ok:
                raise p._value

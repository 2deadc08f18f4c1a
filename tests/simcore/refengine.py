"""Reference engine: the original tuple-heap event loop, kept as an oracle.

One ``heapq`` of ``(when, priority, seq, event)`` tuples, one push per
schedule and one pop per dispatched event.  The engine tests run the
same programs on :mod:`repro.simcore.engine` and on this loop, under
strict tracing sanitizers, and require the identical event stream:
same ``(when, priority, seq, kind, name)`` records in the same order,
same digest, same final clock and dispatch count.  Keep it simple and
do not optimise it: its value is that its semantics are obvious.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import InterruptError, SimulationError
from repro.simcore.engine import Event as _EngineEvent

#: Sentinel for "this event has not been triggered yet".
PENDING = object()

URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time."""

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("value of untriggered event")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
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
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float,
                 value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, NORMAL, delay)


class Process(Event):
    """A running generator coroutine."""

    __slots__ = ("gen", "name", "_wait_token", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"process requires a generator, got {gen!r}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._wait_token = 0
        self._waiting_on: Optional[Event] = None
        boot = Event(sim)
        boot.succeed(None, priority=URGENT)
        boot.callbacks.append(self._make_resume(self._wait_token))

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        if not self.is_alive:
            return
        self._wait_token += 1
        token = self._wait_token
        kick = Event(self.sim)
        kick.fail(InterruptError(cause), priority=URGENT)
        kick.callbacks.append(self._make_resume(token))

    def _make_resume(self, token: int) -> Callable[[Event], None]:
        def resume(event: Event) -> None:
            if token != self._wait_token or not self.is_alive:
                return
            self._step(event)
        return resume

    def _step(self, event: Event) -> None:
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
        # sim-lint: disable=DET105 -- exceptions become the process event's value
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None

        # The shared primitives (Store, AllOf, ...) build events from
        # the production engine's Event class; the reference engine runs
        # the same programs, so both flavours are legal yield targets.
        if not isinstance(target, (Event, _EngineEvent)):
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            kick = Event(sim)
            kick.fail(exc, priority=URGENT)
            self._wait_token += 1
            kick.callbacks.append(self._make_resume(self._wait_token))
            return

        self._wait_token += 1
        self._waiting_on = target
        if target.callbacks is None:
            kick = Event(sim)
            if target._ok:
                kick.succeed(target._value, priority=URGENT)
            else:
                kick.fail(target._value, priority=URGENT)
            kick.callbacks.append(self._make_resume(self._wait_token))
        else:
            target.callbacks.append(self._make_resume(self._wait_token))


class Simulator:
    """The reference event loop: a heap of (time, priority, seq, event)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self.sanitizer = None
        self.events_dispatched = 0

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # ------------------------------------------------------------------
    # Scheduling / running
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._seq += 1
        when = self.now + delay
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(self.now, when, priority, self._seq,
                                       event)
        heapq.heappush(self._heap, (when, priority, self._seq, event))

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, prio, seq, event = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("time went backwards")
        self.now = when
        if self.sanitizer is not None:
            self.sanitizer.on_step(when, prio, seq, event)
        self.events_dispatched += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = until

    def run_until_triggered(self, event: Event) -> None:
        """Step until *event* has triggered (reference driver loop)."""
        while not event.triggered:
            self.step()

    def run_process(self, gen_or_proc: Any) -> Any:
        proc = gen_or_proc
        if not isinstance(proc, Process):
            proc = self.process(proc)
        while proc.is_alive:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: schedule drained but {proc.name!r} is alive"
                )
            self.step()
        if not proc.ok:
            raise proc._value
        return proc.value

    def drain(self, processes: Iterable[Process]) -> None:
        procs = list(processes)
        while any(p.is_alive for p in procs):
            if not self._heap:
                alive = [p.name for p in procs if p.is_alive]
                raise SimulationError(f"deadlock: processes still alive: {alive}")
            self.step()
        for p in procs:
            if not p.ok:
                raise p._value

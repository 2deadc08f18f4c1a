"""Shared resources and bounded queues for simulated processes.

``Resource`` models a capacity-limited facility (CPU cores, a GPU, SSD
channel slots); ``Store`` models a bounded FIFO of items (the extracting /
training / releasing queues of GNNDrive §4.1, which carry only node-ID
lists, never feature data).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, Optional

from repro.errors import SimulationError
from repro.simcore.engine import Event, Simulator


def _race_detector(sim: Simulator) -> Optional[Any]:
    """The attached race detector, or None (the common fast path)."""
    san = sim.sanitizer
    return None if san is None else getattr(san, "races", None)


class Resource:
    """A counted resource with FIFO waiters.

    Usage inside a process::

        req = cpu.request()
        yield req
        try:
            yield sim.timeout(work)
        finally:
            cpu.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> Event:
        """Return an event that succeeds once a unit is granted."""
        ev = Event(self.sim)
        det = _race_detector(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(self)
            if det is not None:
                det.on_acquire(self)
        else:
            self._waiters.append(ev)
            if det is not None:
                det.on_block(self, "request", ev)
        return ev

    def cancel(self, ev: Event) -> None:
        """Withdraw a request, pending or already granted.

        The interrupt-unwind path: a process killed while blocked on (or
        holding) a request event must give the unit back, or the grant
        would be handed to a dead process and the unit lost forever.
        Safe to call from the interrupted process's own unwind.
        """
        if ev.triggered:
            self.release()
            return
        try:
            self._waiters.remove(ev)
        except ValueError:
            pass  # already granted-and-consumed or never queued here

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        det = _race_detector(self.sim)
        if det is not None:
            det.on_release(self)
        if self._waiters:
            # Hand the unit straight to the next waiter: in_use unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1

    def check_invariants(self) -> None:
        """Counting invariants (sanitizer epoch sweep)."""
        if not 0 <= self.in_use <= self.capacity:
            raise SimulationError(
                f"resource {self.name!r}: in_use {self.in_use} outside "
                f"[0, {self.capacity}]")
        if self._waiters and self.in_use < self.capacity:
            raise SimulationError(
                f"resource {self.name!r}: {len(self._waiters)} waiter(s) "
                f"while {self.available} unit(s) are free")


class Store:
    """A bounded FIFO store of Python objects.

    ``put`` blocks (returns a pending event) while the store is full;
    ``get`` blocks while it is empty.  Items are handed over in FIFO order
    on both sides, which makes the GNNDrive queues deterministic.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "store") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity if capacity is not None else float("inf")
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Enqueue *item*; the returned event succeeds once accepted."""
        ev = Event(self.sim)
        det = _race_detector(self.sim)
        if self._getters:
            # Direct hand-off to a waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif not self.is_full:
            self.items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
            if det is not None:
                det.on_block(self, "put", ev)
            return ev
        if det is not None:
            det.on_endpoint(self, "put")
        return ev

    def put_many(self, items: Iterable[Any]) -> list:
        """Enqueue *items* in order with one call; returns their events.

        Trace-digest-identical to ``[self.put(it) for it in items]``:
        while consumers are blocked the hand-offs interleave getter,
        putter, getter, putter …; the remaining accepted items then
        succeed one by one, with consecutive sequence numbers — exactly
        the stream N sequential ``put`` calls produce.  Items past
        capacity park as blocked putters (events pending).
        """
        items = list(items)
        evs: list = []
        i = 0
        while i < len(items) and self._getters:
            evs.append(self.put(items[i]))
            i += 1
        rest = items[i:]
        det = _race_detector(self.sim)
        if det is not None and items:
            det.on_endpoint(self, "put")
        if not rest:
            return evs
        room = self.capacity - len(self.items)
        k = len(rest) if room >= len(rest) else max(0, int(room))
        accepted, blocked = rest[:k], rest[k:]
        for _ in accepted:
            evs.append(Event(self.sim).succeed(None))
        self.items.extend(accepted)
        for item in blocked:
            ev = Event(self.sim)
            self._putters.append((ev, item))
            evs.append(ev)
        return evs

    def get(self) -> Event:
        """Dequeue an item; the returned event's value is the item."""
        ev = Event(self.sim)
        det = _race_detector(self.sim)
        if self.items:
            item = self.items.popleft()
            ev.succeed(item)
            # Space freed: admit the oldest blocked putter.
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self.items.append(pending)
                put_ev.succeed(None)
            if det is not None:
                det.on_endpoint(self, "get")
        else:
            self._getters.append(ev)
            if det is not None:
                det.on_block(self, "get", ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if not self.items:
            return False, None
        ev = self.get()
        return True, ev.value

    def check_invariants(self) -> None:
        """Queue-discipline invariants (sanitizer epoch sweep)."""
        if len(self.items) > self.capacity:
            raise SimulationError(
                f"store {self.name!r}: {len(self.items)} item(s) over "
                f"capacity {self.capacity}")
        if self._getters and self.items:
            raise SimulationError(
                f"store {self.name!r}: {len(self._getters)} blocked "
                f"getter(s) while {len(self.items)} item(s) are queued")
        if self._putters and not self.is_full:
            raise SimulationError(
                f"store {self.name!r}: {len(self._putters)} blocked "
                f"putter(s) while the store is not full")

"""Composite wait primitives: AllOf / AnyOf condition events.

These let a process wait for several events at once, e.g. an extractor
waiting for every outstanding io_uring completion (AllOf) or a trainer
waiting for either new work or shutdown (AnyOf).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.simcore.engine import Event, Simulator


class Condition(Event):
    """Base class: triggers when ``count`` of the given events have fired.

    A failure of any constituent event fails the condition immediately
    (mirroring how an I/O error should abort a batched wait).
    """

    def __init__(self, sim: Simulator, events: Sequence[Event], count: int) -> None:
        super().__init__(sim)
        self._events: List[Event] = list(events)
        self._need = min(count, len(self._events))
        #: Values of constituent events that have actually *fired* (been
        #: processed), in firing order.  A scheduled-but-unfired Timeout is
        #: not included, matching how a batched I/O wait only sees
        #: completions that have really happened.
        self._results: Dict[Event, Any] = {}
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:  # already processed
                self._on_fire(ev)
            else:
                ev.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._results[event] = event._value
        if len(self._results) >= self._need:
            self.succeed(dict(self._results))


class AllOf(Condition):
    """Triggers when *all* events have succeeded; value maps event→value."""

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        events = list(events)
        super().__init__(sim, events, count=len(events))


class AnyOf(Condition):
    """Triggers when *any one* event has succeeded."""

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim, events, count=1)


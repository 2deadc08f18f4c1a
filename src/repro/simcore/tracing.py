"""Span tracing: export simulated executions as Chrome trace JSON.

Load the output of :meth:`SpanTracer.write` in ``chrome://tracing`` or
Perfetto to see the pipeline the way Figure 4 draws it: sampler,
extractor, trainer, and releaser lanes with per-mini-batch spans, plus
I/O-wait markers.  Because simulated time is deterministic, traces are
reproducible artifacts — useful both for debugging schedulers and for
teaching what "the extract stage overlaps training" actually looks like.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    name: str
    category: str
    track: str
    start: float      # simulated seconds
    end: float
    args: Optional[dict] = None


class SpanTracer:
    """Collects spans and instants; renders Chrome trace event format."""

    def __init__(self, process_name: str = "simulated-machine") -> None:
        self.process_name = process_name
        self.spans: List[Span] = []
        self._instants: List[dict] = []
        self._track_ids: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, category: str, track: str,
             start: float, end: float, **args: Any) -> None:
        """Record one complete span on a named track (actor lane)."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self.spans.append(Span(name, category, track, start, end,
                               args or None))

    def instant(self, name: str, track: str, when: float,
                **args: Any) -> None:
        """Record a point event (e.g. an OOM, an epoch boundary)."""
        self._instants.append(dict(name=name, track=track, when=when,
                                   args=args or None))

    def _tid(self, track: str) -> int:
        if track not in self._track_ids:
            self._track_ids[track] = len(self._track_ids) + 1
        return self._track_ids[track]

    # ------------------------------------------------------------------
    def to_chrome_events(self) -> List[dict]:
        """The ``traceEvents`` list (times in microseconds)."""
        events: List[dict] = []
        for span in self.spans:
            tid = self._tid(span.track)
            event = {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": tid,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        for inst in self._instants:
            event = {
                "name": inst["name"],
                "ph": "i",
                "s": "t",
                "ts": inst["when"] * 1e6,
                "pid": 1,
                "tid": self._tid(inst["track"]),
            }
            if inst["args"]:
                event["args"] = inst["args"]
            events.append(event)
        # Thread-name metadata so lanes are labelled in the viewer.
        for track, tid in self._track_ids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": track},
            })
        events.append({
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": self.process_name},
        })
        return events

    def to_json(self) -> str:
        return json.dumps({"traceEvents": self.to_chrome_events(),
                           "displayTimeUnit": "ms"})

    def write(self, path: str) -> None:
        """Write a chrome://tracing-loadable JSON file."""
        with open(path, "w") as f:
            f.write(self.to_json())

    # ------------------------------------------------------------------
    def tracks(self) -> List[str]:
        seen = []
        for s in self.spans:
            if s.track not in seen:
                seen.append(s.track)
        return seen

    def spans_on(self, track: str) -> List[Span]:
        return [s for s in self.spans if s.track == track]

    def total_time(self, category: str) -> float:
        """Summed span duration for one category (busy-time check)."""
        return sum(s.end - s.start for s in self.spans
                   if s.category == category)

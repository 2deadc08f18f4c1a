"""Measurement instruments for the simulated machine.

The paper's Figures 3 and 11 plot CPU utilization, GPU utilization and the
ratio of I/O wait time over a three-epoch window.  ``IntervalRecorder``
accumulates busy intervals for a facility; ``UtilizationProbe`` turns those
intervals into per-window utilization ratios; ``LatencyRecorder`` keeps
per-request latencies for the request planes.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simcore.engine import Simulator


class IntervalRecorder:
    """Tracks how much of simulated time a facility is busy.

    Supports *overlapping* busy claims (e.g. 4 CPU cores each busy): the
    recorder keeps a level counter and integrates ``min(level, capacity)``
    over time, so utilization is the fraction of capacity-time used.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = 0
        self._last_change = 0.0
        #: (time, level) change-points, for windowed queries.
        self._history: List[Tuple[float, int]] = [(0.0, 0)]
        self._busy_integral = 0.0

    @property
    def level(self) -> int:
        return self._level

    def _advance(self) -> None:
        now = self.sim.now
        if now < self._last_change:
            raise SimulationError("interval recorder saw time go backwards")
        self._busy_integral += (
            min(self._level, self.capacity) * (now - self._last_change)
        )
        self._last_change = now

    def enter(self) -> None:
        """Mark one unit becoming busy at the current time."""
        self._advance()
        self._level += 1
        self._history.append((self.sim.now, self._level))

    def exit(self) -> None:
        """Mark one unit becoming idle at the current time."""
        if self._level <= 0:
            raise SimulationError(f"exit() on idle recorder {self.name!r}")
        self._advance()
        self._level -= 1
        self._history.append((self.sim.now, self._level))

    def busy_time(self, until: Optional[float] = None) -> float:
        """Capacity-normalised busy time integral from t=0 to *until*."""
        until = self.sim.now if until is None else until
        self._advance()
        extra = 0.0
        if until > self._last_change:
            extra = min(self._level, self.capacity) * (until - self._last_change)
        return self._busy_integral + extra

    def utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Mean fraction of capacity busy over [start, end]."""
        end = self.sim.now if end is None else end
        if end <= start:
            return 0.0
        busy = self._window_integral(start, end)
        return busy / (self.capacity * (end - start))

    def _window_integral(self, start: float, end: float) -> float:
        """Integral of min(level, capacity) over [start, end]."""
        hist = self._history
        # Find the level in force at `start`.
        idx = bisect.bisect_right(hist, (start, float("inf"))) - 1
        idx = max(idx, 0)
        total = 0.0
        t = start
        level = hist[idx][1]
        for when, new_level in hist[idx + 1:]:
            if when >= end:
                break
            if when > t:
                total += min(level, self.capacity) * (when - t)
                t = when
            level = new_level
        # Tail segment: the level in force just before `end` holds to `end`.
        total += min(level, self.capacity) * (end - t)
        return total

    def series(self, start: float, end: float, buckets: int) -> List[float]:
        """Utilization sampled over *buckets* equal windows in [start, end]."""
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        width = (end - start) / buckets
        return [
            self.utilization(start + i * width, start + (i + 1) * width)
            for i in range(buckets)
        ]


class LatencyRecorder:
    """Per-request latency samples with deterministic quantiles.

    The serving plane records one ``(arrival, completion)`` pair per
    completed request; quantiles interpolate linearly between the two
    neighbouring order statistics of the sorted sample (deterministic —
    no estimation), as ``s[lo] * (1 - frac) + s[hi] * frac``.  That is
    ``numpy.quantile``'s default definition but not its arithmetic:
    numpy's ``_lerp`` rounds differently, so the two can differ in the
    last bit.  The cluster plane's quantiles
    (:func:`repro.cluster.sim.linear_quantiles`) follow numpy's.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def record(self, arrival: float, completion: float) -> None:
        if completion < arrival:
            raise SimulationError(
                f"latency recorder {self.name!r}: completion {completion} "
                f"precedes arrival {arrival}")
        self._samples.append(completion - arrival)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def latencies(self) -> List[float]:
        return list(self._samples)

    def quantile(self, q: float) -> float:
        """Interpolated quantile of the sample; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return float("nan")
        s = sorted(self._samples)
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        frac = pos - lo
        return s[lo] * (1.0 - frac) + s[hi] * frac

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return sum(self._samples) / len(self._samples)

    def max(self) -> float:
        if not self._samples:
            return float("nan")
        return max(self._samples)


class UtilizationProbe:
    """Bundles the three facility recorders the paper's Figs. 3/11 plot.

    * ``cpu`` — busy when any simulated thread computes on a core.
    * ``gpu`` — busy during simulated kernel execution / training.
    * ``io``  — "I/O wait": level counts threads blocked on storage while
      not overlapping useful compute (the engine marks sync waits only;
      async in-flight I/O with the submitter doing other work does not
      count, which is precisely the paper's asynchrony argument).
    """

    def __init__(self, sim: Simulator, cpu_capacity: int = 1,
                 gpu_capacity: int = 1) -> None:
        self.sim = sim
        self.cpu = IntervalRecorder(sim, cpu_capacity, "cpu")
        self.gpu = IntervalRecorder(sim, gpu_capacity, "gpu")
        self.io = IntervalRecorder(sim, cpu_capacity, "iowait")

    def snapshot(self, start: float, end: float, buckets: int = 30) -> Dict[str, List[float]]:
        """Windowed utilization series for each facility (Fig. 3/11 data)."""
        return {
            "cpu": self.cpu.series(start, end, buckets),
            "gpu": self.gpu.series(start, end, buckets),
            "iowait": self.io.series(start, end, buckets),
        }

    def summary(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        end = self.sim.now if end is None else end
        return {
            "cpu": self.cpu.utilization(start, end),
            "gpu": self.gpu.utilization(start, end),
            "iowait": self.io.utilization(start, end),
        }

"""Deterministic discrete-event simulation engine.

This package is the substrate every timed component of the reproduction runs
on: the SSD model, the page cache, the PCIe link, the GNNDrive stage actors
and all three baseline systems are *processes* (generator coroutines) driven
by a single :class:`Simulator` event loop.

The design follows the classic process-interaction style (as popularised by
SimPy) but is self-contained, deterministic, and instrumented for the
utilization/iowait traces the paper reports in Figures 3 and 11.  Pending
events live on one heap ordered by ``(time, priority, sequence number)``
(see :mod:`repro.simcore.engine`).

Quick example
-------------
>>> from repro.simcore import Simulator
>>> sim = Simulator()
>>> def hello(sim):
...     yield sim.timeout(1.5)
...     return "done"
>>> p = sim.process(hello(sim))
>>> sim.run()
>>> (sim.now, p.value)
(1.5, 'done')
"""

from repro.simcore.engine import Event, Process, Simulator, Timeout
from repro.simcore.lru import ArrayLRU
from repro.simcore.primitives import AllOf, AnyOf, Condition
from repro.simcore.resources import Resource, Store
from repro.simcore.metrics import (IntervalRecorder, LatencyRecorder,
                                   UtilizationProbe)
from repro.simcore.rand import RandomStreams

__all__ = [
    "ArrayLRU",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Condition",
    "Resource",
    "Store",
    "IntervalRecorder",
    "LatencyRecorder",
    "UtilizationProbe",
    "RandomStreams",
]

"""Baseline disk-based GNN training systems (§2, §3).

Faithful re-implementations of the three SoTA systems the paper
compares against, running on the same simulated machine, datasets,
models, and sampler as GNNDrive — so performance differences are purely
architectural:

* :class:`PyGPlus` — memory-maps topology *and* features through the
  shared OS page cache; synchronous loading; sample and extract contend
  for the cache (the 𝔒1 memory-contention baseline).
* :class:`Ginex` — superbatch schedule with separate neighbor/feature
  caches and Belady-optimal feature-cache replacement computed by an
  inspect phase; still loads synchronously (the 𝔒2 congestion shape).
* :class:`MariusGNN` — partition buffer with a mandatory data-preparation
  phase (partition ordering + preload) on the critical path of every
  epoch; minimal I/O inside an epoch.
"""

from repro.baselines.pygplus import PyGPlus
from repro.baselines.ginex import Ginex, GinexConfig
from repro.baselines.mariusgnn import MariusGNN, MariusConfig
from repro.baselines.inmemory import InMemory

__all__ = [
    "PyGPlus",
    "Ginex", "GinexConfig",
    "MariusGNN", "MariusConfig",
    "InMemory",
]

"""In-memory reference system: the no-disk upper bound.

Not a paper baseline — a diagnostic: everything (topology + features)
is pinned in host memory, so training pays only sampling compute, one
H2D copy per batch, and GPU time.  The gap between this line and
GNNDrive is the *residual* cost of disk-based training; the paper's
thesis is that GNNDrive pushes that gap toward zero whenever the SSD
can feed the GPU.

Architecturally this is PyG (the in-memory original that PyG+ extends):
parallel sampling workers feeding a prefetch queue, a synchronous main
loop — minus every disk access.  It naturally OOMs whenever the dataset
does not fit in host memory, which is exactly the regime the paper
targets, making the OOM itself a useful reference row.
"""

from __future__ import annotations

from typing import Generator

from repro.baselines.pygplus import PyGPlus
from repro.core.base import TrainConfig
from repro.graph.datasets import DiskDataset
from repro.machine import Machine
from repro.sampling.subgraph import SampledSubgraph


class InMemory(PyGPlus):
    """Everything resident; the ideal reference line."""

    name = "in-memory"
    topology_resident = True

    def __init__(self, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig = TrainConfig()):
        super().__init__(machine, dataset, train_cfg)
        # Pin the whole dataset (raises OutOfMemoryError if it cannot).
        self._data_alloc = machine.host.allocate(
            dataset.topo_nbytes() + dataset.feat_nbytes(),
            tag="resident-data")

    def _extract_features(self, sub: SampledSubgraph) -> Generator:
        """Features are resident: extraction is a host memcpy."""
        m = self.machine
        nbytes = sub.num_sampled_nodes * self.dataset.features.record_nbytes
        yield m.sim.timeout(nbytes / 20e9)  # DRAM copy

"""Sample stage: k-hop neighbor sampling, subgraphs, mini-batching.

The sampler is *pure* (topology in, subgraph out) and fully vectorized;
the timing side (which index pages a hop faults through the OS page
cache) is reported alongside so the system actors can charge I/O without
re-deriving it.
"""

from repro.sampling.subgraph import LayerAdj, SampledSubgraph
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.batching import MinibatchPlan, split_segments

__all__ = [
    "LayerAdj",
    "SampledSubgraph",
    "NeighborSampler",
    "MinibatchPlan",
    "split_segments",
]

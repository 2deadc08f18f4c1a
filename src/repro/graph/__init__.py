"""Graph substrate: topology, features, labels, datasets, partitions.

Topology is a compressed-sparse-column (CSC) adjacency exactly as the
paper stores it (§5 "Datasets"): the index-pointer array stays in host
memory (it is small and hot during sampling) while the index array and
the feature table live on the simulated SSD.

Datasets are scaled-down synthetic equivalents of the paper's Table 1
graphs, with matching degree skew, feature dimensions, class
counts, and — critically — the same data-to-memory byte ratios once the
host budget is scaled by the same factor.
"""

from repro.graph.csc import CSCGraph
from repro.graph.build import (
    add_self_loops,
    csc_from_edges,
    csc_from_keys,
    make_undirected,
)
from repro.graph.generators import planted_partition_edges, planted_partition_keys
from repro.graph.labels import planted_features_and_labels
from repro.graph.featurestore import FeatureStore
from repro.graph.datasets import (
    DatasetSpec,
    DiskDataset,
    DATASET_REGISTRY,
    make_dataset,
    paper_table1,
)
from repro.graph.partition import partition_nodes, edge_buckets

__all__ = [
    "CSCGraph",
    "csc_from_edges",
    "csc_from_keys",
    "add_self_loops",
    "make_undirected",
    "planted_partition_edges",
    "planted_partition_keys",
    "planted_features_and_labels",
    "FeatureStore",
    "DatasetSpec",
    "DiskDataset",
    "DATASET_REGISTRY",
    "make_dataset",
    "paper_table1",
    "partition_nodes",
    "edge_buckets",
]

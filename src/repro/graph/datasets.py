"""Dataset registry: scaled-down equivalents of the paper's Table 1.

Each mini dataset preserves what the experiments depend on:

* heavy-tailed degree distribution and homophilous communities,
* the paper's feature dimension and class count,
* the byte *ratio* between topology, features, and host memory — the
  mini graphs are ~1/1000 of paper scale, and the benchmark machine's
  memory budget is scaled by the same factor, so "Papers100M under
  32 GB" and "papers100m-mini under 32 MB-equivalent" stress the page
  cache identically.

The paper's original Table 1 numbers are kept in :data:`PAPER_TABLE1`
so the reproduced table can print paper-vs-built side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigError, require_seed
from repro.graph.build import csc_from_keys
from repro.graph.csc import CSCGraph
from repro.graph.featurestore import FeatureStore
from repro.graph.generators import planted_partition_keys
from repro.graph.labels import planted_features_and_labels, train_val_test_split
from repro.storage.files import FileCatalog, FileHandle

#: int64 index entries, as in SciPy CSC.
INDEX_ITEMSIZE = 8


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset."""

    name: str
    num_nodes: int
    num_edges: int
    dim: int
    num_classes: int
    homophily: float = 0.7
    train_frac: float = 0.011
    noise: float = 1.3
    #: Paper-scale counterpart (for Table 1 reporting).
    paper_name: str = ""

    def __post_init__(self) -> None:
        """Reject a spec the generators cannot build, naming the field."""
        if not 1 <= self.num_classes <= self.num_nodes:
            raise ConfigError(
                f"num_classes must be in [1, num_nodes={self.num_nodes}], "
                f"got {self.num_classes}")
        if not 0.0 <= self.homophily <= 1.0:
            raise ConfigError(
                f"homophily must be in [0, 1], got {self.homophily!r}")
        if not self.noise >= 0.0:
            raise ConfigError(f"noise must be >= 0, got {self.noise!r}")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(
                f"train_frac must be in (0, 1), got {self.train_frac!r}")

    def scaled(self, scale: float) -> "DatasetSpec":
        """Shrink/grow node and edge counts by *scale* (finite, > 0)."""
        if not (scale > 0 and math.isfinite(scale)):
            raise ConfigError(
                f"scale must be a finite number > 0, got {scale!r}")
        try:
            return replace(
                self,
                num_nodes=max(64, int(self.num_nodes * scale)),
                num_edges=max(256, int(self.num_edges * scale)),
            )
        except ConfigError as exc:
            raise ConfigError(f"{self.name} at scale {scale!r}: {exc}") \
                from None

    def with_dim(self, dim: int) -> "DatasetSpec":
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim!r}")
        return replace(self, dim=dim)


#: Paper Table 1, for side-by-side reporting (counts, dims, classes, GB).
PAPER_TABLE1 = {
    "papers100m": dict(nodes="111M", edges="1.6B", dim=128, classes=172,
                       topo_gb=13, feat_gb=53, total_gb=67),
    "twitter": dict(nodes="41.7M", edges="1.5B", dim=128, classes=50,
                    topo_gb=11, feat_gb=20, total_gb=31),
    "friendster": dict(nodes="65.6M", edges="1.8B", dim=128, classes=50,
                       topo_gb=14, feat_gb=32, total_gb=46),
    "mag240m": dict(nodes="122M", edges="1.3B", dim=768, classes=153,
                    topo_gb=10, feat_gb=349, total_gb=359),
}

#: Mini datasets at 1/1000 of paper scale.
DATASET_REGISTRY: Dict[str, DatasetSpec] = {
    "papers100m-mini": DatasetSpec(
        "papers100m-mini", num_nodes=111_000, num_edges=1_600_000,
        dim=128, num_classes=172, paper_name="papers100m"),
    "twitter-mini": DatasetSpec(
        "twitter-mini", num_nodes=41_700, num_edges=1_500_000,
        dim=128, num_classes=50, paper_name="twitter"),
    "friendster-mini": DatasetSpec(
        "friendster-mini", num_nodes=65_600, num_edges=1_800_000,
        dim=128, num_classes=50, paper_name="friendster"),
    "mag240m-mini": DatasetSpec(
        "mag240m-mini", num_nodes=122_000, num_edges=1_300_000,
        dim=768, num_classes=153, paper_name="mag240m"),
    # Tiny profile for unit/integration tests.
    "tiny": DatasetSpec(
        "tiny", num_nodes=2_000, num_edges=20_000, dim=32,
        num_classes=8, train_frac=0.05, paper_name=""),
}


class DiskDataset:
    """A generated graph plus its on-SSD placement metadata.

    Host-resident: ``indptr`` (index-pointer array, < 1 GB at paper scale,
    kept in memory by every system per §5).  On-SSD: the CSC ``indices``
    array and the feature table; call :meth:`mount` against a machine's
    file catalog to register both.
    """

    def __init__(self, spec: DatasetSpec, graph: CSCGraph,
                 features: FeatureStore, labels: np.ndarray,
                 train_idx: np.ndarray, val_idx: np.ndarray,
                 test_idx: np.ndarray):
        self.spec = spec
        self.graph = graph
        self.features = features
        self.labels = labels
        self.train_idx = train_idx
        self.val_idx = val_idx
        self.test_idx = test_idx
        self.topo_handle: Optional[FileHandle] = None
        self.feat_handle: Optional[FileHandle] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def dim(self) -> int:
        return self.features.dim

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def topo_nbytes(self) -> int:
        """On-SSD topology bytes (the CSC index array)."""
        return self.graph.num_edges * INDEX_ITEMSIZE

    def feat_nbytes(self) -> int:
        return self.features.nbytes

    def total_nbytes(self) -> int:
        return self.topo_nbytes() + self.feat_nbytes()

    def indptr_nbytes(self) -> int:
        """Host-resident index-pointer bytes."""
        return self.graph.indptr.nbytes

    # ------------------------------------------------------------------
    def mount(self, catalog: FileCatalog) -> None:
        """Register topology-index and feature files on a machine."""
        self.topo_handle = catalog.create(
            f"{self.name}.indices",
            data=self.graph.indices.reshape(-1, 1),
            record_nbytes=INDEX_ITEMSIZE,
        )
        self.feat_handle = self.features.mount(catalog)

    def summary_row(self) -> Dict[str, object]:
        """One row of the reproduced Table 1."""
        mb = 1 / (1024 * 1024)
        row = dict(
            dataset=self.name,
            nodes=self.num_nodes,
            edges=self.num_edges,
            dim=self.dim,
            classes=self.num_classes,
            topo_mb=round(self.topo_nbytes() * mb, 1),
            feat_mb=round(self.feat_nbytes() * mb, 1),
            total_mb=round(self.total_nbytes() * mb, 1),
        )
        if self.spec.paper_name:
            row["paper"] = PAPER_TABLE1[self.spec.paper_name]
        return row


def make_dataset(name_or_spec, seed: int = 0, dim: Optional[int] = None,
                 scale: float = 1.0) -> DiskDataset:
    """Generate a dataset from the registry (or a custom spec).

    Parameters
    ----------
    name_or_spec:
        Registry key or a :class:`DatasetSpec`.
    seed:
        Root seed; topology, features and splits each use derived streams.
    dim:
        Optional feature-dimension override (the Fig. 2/8 sweeps).
    scale:
        Extra scale factor on top of the registry's 1/1000; a finite
        number > 0.  Node and edge counts never drop below 64 and 256.

    Raises
    ------
    ConfigError
        For a negative *seed*, a *scale* or *dim* out of range, or a spec
        that scales to fewer nodes than classes, before anything is
        generated.
    """
    require_seed(seed)
    if isinstance(name_or_spec, DatasetSpec):
        spec = name_or_spec
    else:
        try:
            spec = DATASET_REGISTRY[name_or_spec]
        except KeyError:
            raise KeyError(
                f"unknown dataset {name_or_spec!r}; known: "
                f"{sorted(DATASET_REGISTRY)}") from None
    if scale != 1.0:
        spec = spec.scaled(scale)
    if dim is not None:
        spec = spec.with_dim(dim)

    rng_topo = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rng_feat = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    rng_split = np.random.default_rng(np.random.SeedSequence([seed, 3]))

    keys, communities = planted_partition_keys(
        spec.num_nodes, spec.num_edges, spec.num_classes, rng_topo,
        homophily=spec.homophily)
    graph = csc_from_keys(keys, spec.num_nodes)
    feats, labels = planted_features_and_labels(
        communities, spec.dim, rng_feat, noise=spec.noise)
    train_idx, val_idx, test_idx = train_val_test_split(
        spec.num_nodes, rng_split, train_frac=spec.train_frac)
    store = FeatureStore(feats, name=f"{spec.name}.features")
    return DiskDataset(spec, graph, store, labels, train_idx, val_idx, test_idx)


def paper_table1() -> Dict[str, Dict[str, object]]:
    """The original Table 1 (for the reproduced-table printer)."""
    return {k: dict(v) for k, v in PAPER_TABLE1.items()}

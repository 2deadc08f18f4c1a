"""GNNDrive runtime configuration (§5 'Baselines' defaults).

Workload parameters (model, batch size, fanouts, ...) live in
:class:`repro.core.base.TrainConfig`, shared with the baselines; this
config holds only GNNDrive's own knobs.  The pipeline values no system
or experiment varies are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError, require_finite_floats

#: Extracting-queue capacity (§5: six); samplers block when it is full.
EXTRACT_QUEUE_DEPTH = 6
#: Training-queue capacity (§5: four); extractors block when it is full.
#: The effective depth (``GNNDrive.train_queue_depth``) adapts downward
#: to fit device memory (§4.2).
TRAIN_QUEUE_DEPTH = 4
#: Safety margin on the probed max nodes per mini-batch (Mb) and on the
#: activation reserve; the serving plane sizes its jobs with it too.
BATCH_NODES_MARGIN = 1.3


@dataclass(frozen=True)
class GNNDriveConfig:
    """Tunables of the GNNDrive pipeline.

    Defaults follow the paper: four samplers, four extractors, one
    trainer, one releaser; feature extraction over io_uring with direct
    I/O.  Every float field must be finite.
    """

    # Actors.
    num_samplers: int = 4
    num_extractors: int = 4

    # Extraction.
    io_depth: int = 64
    direct_io: bool = True
    #: GPUDirect Storage (§4.4 "GPU Direct Access", the paper's future
    #: work): SSD -> GPU DMA with no host staging buffer, at the cost of
    #: a 4 KiB access granularity (redundant loading for small records).
    gpu_direct: bool = False
    #: Feature-buffer size as a multiple of the deadlock-free minimum
    #: (Ne x Mb plus train-queue depth x Mb); Fig. 12 sweeps this.
    feature_buffer_scale: float = 1.0

    # Placement: 'gpu' (feature buffer in device memory, staged over
    # PCIe) or 'cpu' (feature buffer in host memory, no staging hop).
    device: str = "gpu"

    def __post_init__(self):
        require_finite_floats(self)
        for name in ("num_samplers", "num_extractors", "io_depth"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.device not in ("gpu", "cpu"):
            raise ConfigError(
                f"device must be 'gpu' or 'cpu', got {self.device!r}")
        if self.feature_buffer_scale < 1.0:
            raise ConfigError(
                f"feature_buffer_scale must be >= 1, "
                f"got {self.feature_buffer_scale!r}")
        if self.gpu_direct and self.device != "gpu":
            raise ConfigError("gpu_direct requires device='gpu'")

    def with_(self, **kw) -> "GNNDriveConfig":
        return replace(self, **kw)

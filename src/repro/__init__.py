"""GNNDrive reproduction: disk-based GNN training, fully simulated.

Public API tour
---------------
>>> from repro import (Machine, MachineSpec, make_dataset,
...                    GNNDrive, GNNDriveConfig, TrainConfig)
>>> ds = make_dataset("tiny", seed=0)
>>> machine = Machine(MachineSpec.paper_scaled(host_gb=32))
>>> system = GNNDrive(machine, ds, TrainConfig(batch_size=20),
...                   GNNDriveConfig(device="gpu"))
>>> stats = system.run_epochs(2)
>>> stats[-1].epoch_time > 0
True

Subpackages: :mod:`repro.simcore` (event engine), :mod:`repro.storage`
(SSD/page cache/io_uring), :mod:`repro.memory` (DRAM/GPU/PCIe),
:mod:`repro.graph` (datasets), :mod:`repro.tensor` (autograd),
:mod:`repro.models` (GNNs), :mod:`repro.sampling`, :mod:`repro.core`
(GNNDrive), :mod:`repro.baselines` (PyG+/Ginex/MariusGNN),
:mod:`repro.bench` (paper-figure harness).
"""

__version__ = "1.0.0"

from repro.machine import Machine, MachineSpec
from repro.graph import make_dataset, DiskDataset, DATASET_REGISTRY
from repro.core import GNNDrive, GNNDriveConfig, MultiGPUGNNDrive
from repro.core.base import TrainConfig, TrainingSystem
from repro.core.stats import EpochStats
from repro.baselines import (
    Ginex,
    GinexConfig,
    MariusConfig,
    MariusGNN,
    PyGPlus,
)
from repro.errors import (
    AlignmentError,
    OutOfMemoryError,
    OutOfTimeError,
    ReproError,
    StorageError,
)

__all__ = [
    "__version__",
    "Machine", "MachineSpec",
    "make_dataset", "DiskDataset", "DATASET_REGISTRY",
    "GNNDrive", "GNNDriveConfig", "MultiGPUGNNDrive",
    "TrainConfig", "TrainingSystem", "EpochStats",
    "PyGPlus", "Ginex", "GinexConfig",
    "MariusGNN", "MariusConfig",
    "ReproError", "OutOfMemoryError", "OutOfTimeError",
    "AlignmentError", "StorageError",
]

"""Experiment runner: build machines/datasets/systems, collect results.

Every experiment run is hermetic — a fresh machine per system — but
datasets are cached per (name, dim, scale, seed) because generation
dominates bench wall-clock and :class:`DiskDataset` is immutable once
built (file handles are plain metadata, safe to share across machines).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines import (
    Ginex,
    GinexConfig,
    InMemory,
    MariusConfig,
    MariusGNN,
    PyGPlus,
)
from repro.core import GNNDrive, GNNDriveConfig, MultiGPUGNNDrive
from repro.core.base import TrainConfig
from repro.core.stats import EpochStats, mean_epoch_time
from repro.errors import OutOfMemoryError, OutOfTimeError
from repro.graph import DiskDataset, make_dataset
from repro.machine import Machine, MachineSpec


@dataclass(frozen=True)
class BenchProfile:
    """How big to run benches: dataset scale and epochs per point."""

    name: str
    dataset_scale: float
    epochs: int
    warmup_epochs: int = 1

    @property
    def total_epochs(self) -> int:
        return self.epochs + self.warmup_epochs


#: Quick profile: the default for `pytest benchmarks/` — quarter-scale
#: minis, two measured epochs per point.
QUICK = BenchProfile("quick", dataset_scale=0.25, epochs=2)
#: Full profile: the mini datasets at their registry scale.
FULL = BenchProfile("full", dataset_scale=1.0, epochs=3)


def active_profile() -> BenchProfile:
    """Profile selection via REPRO_BENCH_PROFILE (quick|full)."""
    return FULL if os.environ.get("REPRO_BENCH_PROFILE") == "full" else QUICK


_DATASET_CACHE: Dict[Tuple, DiskDataset] = {}


def get_dataset(name: str, dim: Optional[int] = None, scale: float = 1.0,
                seed: int = 0) -> DiskDataset:
    """Cached dataset generation (datasets are immutable)."""
    key = (name, dim, scale, seed)
    if key not in _DATASET_CACHE:
        ds = make_dataset(name, seed=seed, dim=dim, scale=scale)
        ds_key_handles = ds  # handles shared across machines is safe
        _DATASET_CACHE[key] = ds_key_handles
    return _DATASET_CACHE[key]


SYSTEM_NAMES = ("gnndrive-gpu", "gnndrive-cpu", "pyg+", "ginex",
                "mariusgnn")
#: Diagnostic reference, not a paper baseline (see baselines.inmemory),
#: plus the explicit data-parallel wrapper ("multigpu" always builds
#: MultiGPUGNNDrive, even with num_workers=1 — the oracle harness uses
#: that to check multigpu(1) ≡ single-GPU).
EXTRA_SYSTEMS = ("in-memory", "multigpu")


def build_system(system: str, machine: Machine, dataset: DiskDataset,
                 train_cfg: TrainConfig, sample_only: bool = False,
                 num_workers: int = 1,
                 gnndrive_config: Optional[GNNDriveConfig] = None):
    """Instantiate a system under test by name."""
    if system in ("gnndrive-gpu", "gnndrive-cpu"):
        device = system.rsplit("-", 1)[1]
        cfg = (gnndrive_config or GNNDriveConfig()).with_(device=device)
        if num_workers > 1:
            return MultiGPUGNNDrive(machine, dataset, train_cfg, cfg,
                                    num_workers=num_workers)
        return GNNDrive(machine, dataset, train_cfg, cfg,
                        sample_only=sample_only)
    if system == "pyg+":
        return PyGPlus(machine, dataset, train_cfg, sample_only=sample_only)
    if system == "ginex":
        return Ginex(machine, dataset, train_cfg,
                     GinexConfig.for_host(machine.spec.host_capacity),
                     sample_only=sample_only)
    if system == "mariusgnn":
        return MariusGNN(machine, dataset, train_cfg, MariusConfig())
    if system == "multigpu":
        cfg = (gnndrive_config or GNNDriveConfig()).with_(device="gpu")
        return MultiGPUGNNDrive(machine, dataset, train_cfg, cfg,
                                num_workers=num_workers)
    if system == "in-memory":
        return InMemory(machine, dataset, train_cfg)
    raise ValueError(f"unknown system {system!r}; "
                     f"known: {SYSTEM_NAMES + EXTRA_SYSTEMS}")


@dataclass
class SystemResult:
    """Outcome of running one system on one configuration."""

    system: str
    status: str                      # 'ok' | 'OOM' | 'OOT'
    epoch_time: float = float("nan")
    stats: List[EpochStats] = field(default_factory=list)
    machine: Optional[Machine] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def cell(self) -> object:
        """Table-cell value: mean epoch time or the failure marker."""
        return self.epoch_time if self.ok else self.status


def run_system(system: str, dataset: DiskDataset,
               train_cfg: TrainConfig = TrainConfig(),
               host_gb: float = 32, epochs: int = 2,
               warmup_epochs: int = 1,
               data_scale: float = 1.0,
               sample_only: bool = False,
               num_workers: int = 1,
               num_gpus: int = 1,
               time_budget: Optional[float] = None,
               eval_every: int = 0,
               machine_spec: Optional[MachineSpec] = None,
               gnndrive_config: Optional[GNNDriveConfig] = None,
               keep_machine: bool = False,
               sanitize: bool = False,
               sanitize_trace: bool = False,
               sanitize_races: bool = False,
               fault_plan=None) -> SystemResult:
    """Run one system for a few epochs; OOM/OOT become status markers.

    *data_scale* shrinks the machine's memory budgets in lockstep with
    the dataset scale, preserving the paper's capacity ratios at every
    bench profile.  *sanitize* attaches a strict
    :class:`repro.analysis.SimSanitizer` to the machine (pass
    ``keep_machine=True`` to read its report afterwards);
    *sanitize_races* additionally arms the intra-cohort race detector
    and wait-for deadlock graph (implies *sanitize*).  *fault_plan*
    (a :class:`repro.faults.FaultPlan`) turns on deterministic fault
    injection for the run.
    """
    from dataclasses import replace as _replace

    from repro.machine import DEFAULT_SCALE
    spec = machine_spec or MachineSpec.paper_scaled(
        host_gb=host_gb, scale=DEFAULT_SCALE * data_scale,
        num_gpus=num_gpus)
    if sanitize or sanitize_trace or sanitize_races:
        spec = _replace(spec, sanitize=True, sanitize_trace=sanitize_trace,
                        sanitize_races=sanitize_races)
    if fault_plan is not None:
        spec = _replace(spec, faults=fault_plan)
    machine = Machine(spec)
    try:
        sut = build_system(system, machine, dataset, train_cfg,
                           sample_only=sample_only, num_workers=num_workers,
                           gnndrive_config=gnndrive_config)
        stats = sut.run_epochs(warmup_epochs + epochs,
                               time_budget=time_budget,
                               eval_every=eval_every)
        sut.shutdown()
        mean_t = mean_epoch_time(stats, skip_first=warmup_epochs > 0)
        return SystemResult(system, "ok", mean_t, stats,
                            machine if keep_machine else None)
    except OutOfMemoryError as exc:
        return SystemResult(system, "OOM", error=str(exc),
                            machine=machine if keep_machine else None)
    except OutOfTimeError as exc:
        return SystemResult(system, "OOT", error=str(exc),
                            machine=machine if keep_machine else None)

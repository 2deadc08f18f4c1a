"""Oracle scenarios: one serialisable point in configuration space.

A :class:`Scenario` pins everything a run depends on — dataset, machine
budget, SSD geometry, workload, fault plan, seed — as plain JSON-safe
values, so scenarios can live in a committed regression corpus and be
replayed bit-for-bit.  A :class:`ScenarioRunner` executes systems under
a scenario (always sanitized), memoising runs so that several oracles
sharing a baseline run pay for it once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.bench.runner import build_system, get_dataset
from repro.core.base import TrainConfig
from repro.errors import ConfigError
from repro.machine import Machine, MachineSpec
from repro.scenario import ScenarioBase, ScenarioRun, run_sanitized
from repro.storage import PM883, S3510

_SSD_PRESETS = {"PM883": PM883, "S3510": S3510}


@dataclass(frozen=True)
class Scenario(ScenarioBase):
    """One point of the training scenario space, JSON round-trippable."""

    epochs: int = 2
    batch_size: int = 50
    model_kind: str = "sage"
    ssd: str = "PM883"
    #: Override the preset's channel count (None keeps the preset's).
    ssd_channels: Optional[int] = None

    #: "chaos" is the default deterministic chaos plan.
    FAULT_PLANS = ("none", "empty", "chaos")

    def __post_init__(self):
        super().__post_init__()
        if self.ssd not in _SSD_PRESETS:
            raise ConfigError(f"unknown SSD preset {self.ssd!r}; "
                              f"known: {sorted(_SSD_PRESETS)}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.ssd_channels is not None and self.ssd_channels < 1:
            raise ConfigError("ssd_channels must be >= 1")

    # ------------------------------------------------------------------
    def train_config(self) -> TrainConfig:
        return TrainConfig(model_kind=self.model_kind,
                           batch_size=self.batch_size, seed=self.seed)

    def ssd_spec(self, channels: Optional[int] = None):
        spec = _SSD_PRESETS[self.ssd]
        channels = channels if channels is not None else self.ssd_channels
        if channels is not None:
            spec = replace(spec, channels=channels)
        return spec

    def machine_spec(self, races: bool = False,
                     host_gb: Optional[float] = None,
                     channels: Optional[int] = None,
                     num_gpus: int = 1) -> MachineSpec:
        return super().machine_spec(races, host_gb, num_gpus=num_gpus,
                                    ssd=self.ssd_spec(channels))


class ScenarioRunner:
    """Memoising executor: ``run(system, **perturbations)``.

    Every run is sanitized with full tracing, so oracles can compare
    digests and first-divergent events for free.  OOM/OOT outcomes are
    legal scenario results (some corners of the space are *supposed* to
    fail); oracles treat them as "not applicable" rather than errors.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._cache: Dict[Tuple, ScenarioRun] = {}

    def run(self, system: str,
            host_gb: Optional[float] = None,
            channels: Optional[int] = None,
            epochs: Optional[int] = None,
            fault_plan: Optional[str] = None,
            num_workers: int = 1,
            races: bool = False) -> ScenarioRun:
        key = (system, host_gb, channels, epochs, fault_plan, num_workers,
               races)
        if key not in self._cache:
            self._cache[key] = self._execute(system, host_gb, channels,
                                             epochs, fault_plan, num_workers,
                                             races)
        return self._cache[key]

    def _execute(self, system, host_gb, channels, epochs, fault_plan,
                 num_workers, races=False) -> ScenarioRun:
        sc = self.scenario
        if fault_plan is not None:
            sc = sc.with_(fault_plan=fault_plan)
        dataset = get_dataset(sc.dataset, scale=sc.dataset_scale,
                              seed=sc.seed)
        machine = Machine(sc.machine_spec(
            races, host_gb, channels, num_gpus=max(1, num_workers)))

        def body():
            sut = build_system(system, machine, dataset, sc.train_config(),
                               num_workers=num_workers)
            stats = sut.run_epochs(epochs if epochs is not None
                                   else sc.epochs)
            sut.shutdown()
            return list(stats)

        return run_sanitized(machine, body)


#: The default oracle matrix: an uncontended scenario (everything fits,
#: relationships degenerate but must still hold as equalities) and a
#: contended one (the feature working set overflows the page cache —
#: where the paper's I/O-volume ordering actually bites).
DEFAULT_MATRIX = (
    Scenario(name="tiny-default", dataset="tiny", host_gb=32.0, epochs=2),
    Scenario(name="contended", dataset="papers100m-mini",
             dataset_scale=0.15, host_gb=16.0, epochs=2, batch_size=10),
)

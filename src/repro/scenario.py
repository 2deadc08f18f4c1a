"""One scenario run for every plane: the record, the harness, the base.

A *scenario* pins everything a run depends on — dataset, machine
budget, fault plan, seed, plus the plane's own knobs — as plain
JSON-safe values, so it can live in a committed corpus and replay
bit-for-bit.  The training (:class:`repro.oracle.Scenario`), serving
(:class:`repro.serve.ServeScenario`) and cluster
(:class:`repro.cluster.ClusterScenario`) scenarios all extend
:class:`ScenarioBase`, and every one of their runs goes through
:func:`run_sanitized` into one :class:`ScenarioRun`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (ConfigError, OutOfMemoryError, OutOfTimeError,
                          SimulationError, require_finite_floats)
from repro.faults import (EMPTY_PLAN, default_chaos_plan,
                          default_replica_chaos_plan,
                          default_shard_chaos_plan, load_plan)
from repro.machine import DEFAULT_SCALE, Machine, MachineSpec

#: Every named fault plan a scenario can pick; each scenario class
#: accepts the subset its plane can inject (``FAULT_PLANS``).
FAULT_PRESETS = {
    "none": lambda: None,
    "empty": lambda: EMPTY_PLAN,
    "chaos": default_chaos_plan,
    "replica-chaos": default_replica_chaos_plan,
    "shard-chaos": default_shard_chaos_plan,
}


@dataclass(frozen=True)
class ScenarioBase:
    """The fields, checks and serialisation every scenario shares.

    Every float field must be finite; a bad value raises
    :class:`ConfigError` at construction, never mid-run.
    """

    name: str
    dataset: str = "tiny"
    dataset_scale: float = 1.0
    host_gb: float = 32.0
    fault_plan: str = "none"
    seed: int = 0

    #: The ``fault_plan`` presets this plane accepts.
    FAULT_PLANS = ("none", "empty")
    #: Path to a FaultPlan JSON file; the serving and cluster scenarios
    #: declare it as a field, exclusive with a non-"none" preset.
    fault_plan_file = None

    def __post_init__(self):
        require_finite_floats(self)
        if self.fault_plan not in self.FAULT_PLANS:
            raise ConfigError(f"unknown fault plan {self.fault_plan!r}; "
                              f"known: {self.FAULT_PLANS}")
        if self.fault_plan_file is not None and self.fault_plan != "none":
            raise ConfigError("fault_plan_file and fault_plan are mutually "
                              "exclusive; pick one")
        if not 0 < self.dataset_scale <= 1.0:
            raise ConfigError("dataset_scale must be in (0, 1]")
        if not self.host_gb > 0:
            raise ConfigError("host_gb must be positive")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict):
        return cls(**d)

    def with_(self, **kw):
        return replace(self, **kw)

    # ------------------------------------------------------------------
    def resolve_fault_plan(self):
        """The run's :class:`~repro.faults.FaultPlan`, or None."""
        if self.fault_plan_file is not None:
            return load_plan(self.fault_plan_file)
        return FAULT_PRESETS[self.fault_plan]()

    def machine_spec(self, races: bool = False,
                     host_gb: Optional[float] = None,
                     **overrides) -> MachineSpec:
        """The scenario's machine: paper-scaled to the dataset, under
        its fault plan, strictly sanitized with the full event trace
        kept; *races* also arms the race detector.  *host_gb* and the
        :class:`MachineSpec` field *overrides* perturb it."""
        return MachineSpec.paper_scaled(
            host_gb=self.host_gb if host_gb is None else host_gb,
            scale=DEFAULT_SCALE * self.dataset_scale,
            sanitize=True, sanitize_trace=True, sanitize_races=races,
            faults=self.resolve_fault_plan(), **overrides)


@dataclass
class ScenarioRun:
    """One scenario executed under the strict sanitizer."""

    status: str                    # 'ok' | 'OOM' | 'OOT'
    #: The plane's outcome when ok: a list of EpochStats, a ServeStats
    #: or a ClusterStats.
    stats: object = None
    digest: str = ""
    trace: Optional[List[Tuple]] = None
    findings: List[str] = field(default_factory=list)
    race_report: Optional[Dict] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def clean(self) -> bool:
        return not self.findings


def run_sanitized(machine: Machine,
                  body: Callable[[], object]) -> ScenarioRun:
    """Run *body* (it returns the run's stats) on the sanitized
    *machine* and collect the sanitizer's report.

    OOM and OOT are legal scenario outcomes (some corners of the space
    are supposed to fail), so they become the status; any other error
    escapes.  A completed run under a fault plan must also leave the
    fault ledger balanced, or the imbalance is a finding.
    """
    try:
        stats, status, error = body(), "ok", ""
    except OutOfMemoryError as exc:
        stats, status, error = None, "OOM", str(exc)
    except OutOfTimeError as exc:
        stats, status, error = None, "OOT", str(exc)
    san = machine.sanitizer
    race_report = None
    if san.races is not None:
        san.races.finalize()
        race_report = san.races.report_dict()
    findings = [f.render() for f in san.findings]
    if status == "ok" and machine.faults is not None:
        try:
            machine.faults.ledger.check_invariants()
        except SimulationError as exc:
            findings.append(f"fault-ledger: {exc}")
    return ScenarioRun(status, stats, san.trace_digest(), list(san.trace),
                       findings, race_report, error)

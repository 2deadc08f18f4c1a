"""Differential & metamorphic oracle harness (cross-system correctness).

The paper's evidence is comparative — GNNDrive vs PyG+/Ginex/MariusGNN
on the same machine — so the strongest regression signal is not any
single number but the *relationships* between systems and the scaling
laws they rest on.  This package checks those continuously:

* **Differential oracles** compare two runs that must agree (or obey an
  inequality): GNNDrive's feature traffic vs PyG+'s under contention,
  Belady vs LRU hit counts at equal budget, empty fault plan vs no
  fault plan, multigpu with one worker vs the single-GPU system.
* **Metamorphic oracles** perturb one knob of a scenario and assert the
  predicted direction: more host memory ⇒ cache hits non-decreasing,
  more SSD channels ⇒ epoch time non-increasing, doubling the epoch
  count ⇒ the shared prefix of per-epoch stats is bit-stable.
* **Golden-trace pinning** stores per-system event-trace digests (and
  the full traces) under ``tests/golden/``; a mismatch is reported as
  the first divergent event via the sanitizer's trace machinery.

Public surface::

    from repro.oracle import (Scenario, ScenarioRunner, Violation,
                              ORACLES, check_scenario, sample_scenarios,
                              check_golden, regen_golden)
"""

from repro.oracle.golden import (
    GOLDEN_DIR,
    GOLDEN_SCENARIO,
    GOLDEN_SERVE_SCENARIO,
    GOLDEN_SYSTEMS,
    check_golden,
    golden_digests,
    regen_golden,
)
from repro.oracle.oracles import ORACLES, Violation, check_scenario
from repro.oracle.sampling import sample_scenarios
from repro.oracle.scenario import DEFAULT_MATRIX, Scenario, ScenarioRunner

__all__ = [
    "DEFAULT_MATRIX",
    "GOLDEN_DIR",
    "GOLDEN_SCENARIO",
    "GOLDEN_SERVE_SCENARIO",
    "GOLDEN_SYSTEMS",
    "ORACLES",
    "Scenario",
    "ScenarioRunner",
    "Violation",
    "check_golden",
    "check_scenario",
    "golden_digests",
    "regen_golden",
    "sample_scenarios",
]

"""Adaptive diagnosis, fault scenarios and parallel campaign orchestration.

The three pillars on top of the ``sim`` substrate:

* :mod:`repro.engine.adaptive` — entropy-guided sequential diagnosis that
  matches the full-suite dictionary verdict in a fraction of the vectors;
* :mod:`repro.engine.scenarios` — the pluggable fault-workload registry
  (stuck-at, intermittent, blockage, mixed — and user-registered ones);
* :mod:`repro.engine.parallel` — :func:`run_sweep`, the one campaign
  API, whose sharded results are independent of the worker count.
"""

from repro.engine.adaptive import (
    AdaptiveDiagnoser,
    AdaptiveDiagnosisResult,
    AdaptiveStep,
    adaptive_diagnose,
)
from repro.engine.parallel import (
    SHARD_TRIALS,
    run_sweep,
)
from repro.engine.scenarios import (
    BlockageScenario,
    FaultScenario,
    IntermittentScenario,
    MixedScenario,
    StuckAtScenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)

__all__ = [
    "AdaptiveDiagnoser",
    "AdaptiveDiagnosisResult",
    "AdaptiveStep",
    "adaptive_diagnose",
    "SHARD_TRIALS",
    "run_sweep",
    "BlockageScenario",
    "FaultScenario",
    "IntermittentScenario",
    "MixedScenario",
    "StuckAtScenario",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "scenario_names",
]

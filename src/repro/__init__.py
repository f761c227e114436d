"""repro — reproduction of "Testing Microfluidic Fully Programmable Valve
Arrays (FPVAs)" (Liu, Li, Bhattacharya, Chakrabarty, Ho, Schlichtmann;
DATE 2017).

The package is organized in four layers:

* :mod:`repro.ilp`  — MILP modeling language + exact solver backends;
* :mod:`repro.fpva` — the chip model (lattice, arrays, layouts, devices);
* :mod:`repro.sim`  — pressure simulation, fault injection, diagnosis;
* :mod:`repro.core` — the paper's test generation (flow paths, cut-sets,
  control-leakage, hierarchy, baseline, validation, rendering);
* :mod:`repro.store` — content-addressed on-disk persistence of compiled
  artifacts (kernels, fault dictionaries) for warm starts;
* :mod:`repro.engine` — adaptive diagnosis, fault scenarios and the one
  campaign API (``run_campaign``/``run_sweep``).  It is not re-exported
  here, so ``import repro`` stays cheap.

Quickstart::

    from repro import table1_layout, TestGenerator, Tester, ChipUnderTest
    from repro.sim import StuckAt0

    fpva = table1_layout(5)
    suite = TestGenerator(fpva).generate().testset
    tester = Tester(fpva)
    chip = ChipUnderTest(fpva, [StuckAt0(fpva.valves[7])])
    assert tester.run(chip, suite.all_vectors()).fault_detected
"""

# repro.core first: its modules pull in repro.context themselves, and the
# import chain must enter the cycle through the package that re-exports
# submodules lazily importable mid-initialization (context ← sim ← core).
from repro.core import (
    BaselineGenerator,
    CutSetGenerator,
    FlowPathGenerator,
    GreedyPathGenerator,
    HierarchicalPathGenerator,
    LeakageGenerator,
    TestGenerator,
    TestSet,
    TestVector,
    VectorKind,
    audit_two_fault_detection,
    generate_suite,
    measure_coverage,
    render_array,
    render_paths,
    validate_suite,
)
from repro.context import ExecutionContext, Session
from repro.fpva import (
    FPVA,
    Cell,
    DynamicMixer,
    Edge,
    FPVABuilder,
    Side,
    ValveState,
    edge_between,
    fig8_layout,
    fig9_layout,
    full_layout,
    table1_layout,
)
from repro.sim import (
    ChipUnderTest,
    ControlLeak,
    FaultDictionary,
    PressureSimulator,
    StuckAt0,
    StuckAt1,
    Tester,
    fault_universe,
)
from repro.store import ArtifactStore

__version__ = "1.0.0"

__all__ = [
    "ExecutionContext",
    "Session",
    "BaselineGenerator",
    "CutSetGenerator",
    "FlowPathGenerator",
    "GreedyPathGenerator",
    "HierarchicalPathGenerator",
    "LeakageGenerator",
    "TestGenerator",
    "TestSet",
    "TestVector",
    "VectorKind",
    "audit_two_fault_detection",
    "generate_suite",
    "measure_coverage",
    "render_array",
    "render_paths",
    "validate_suite",
    "FPVA",
    "Cell",
    "DynamicMixer",
    "Edge",
    "FPVABuilder",
    "Side",
    "ValveState",
    "edge_between",
    "fig8_layout",
    "fig9_layout",
    "full_layout",
    "table1_layout",
    "ChipUnderTest",
    "ControlLeak",
    "FaultDictionary",
    "PressureSimulator",
    "StuckAt0",
    "StuckAt1",
    "Tester",
    "fault_universe",
    "ArtifactStore",
    "__version__",
]

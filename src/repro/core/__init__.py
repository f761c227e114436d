"""Test generation for FPVAs — the paper's primary contribution."""

from repro.core.baseline import BaselineGenerator, BaselineResult
from repro.core.coverage import (
    CoverageReport,
    measure_coverage,
    sa0_observable_valves,
    sa1_observable_valves,
)
from repro.core.cutsets import CutSetGenerator, CutSetResult, Wall, closure_repair
from repro.core.heuristic import GreedyPathGenerator
from repro.core.hierarchy import BlockGrid, HierarchicalPathGenerator, block_graph
from repro.core.leakage import LeakageGenerator, LeakageResult
from repro.core.pathmodel import (
    CoverPath,
    PathCoverError,
    PathCoverILP,
    PathCoverProblem,
    PathCoverSolution,
    edge_key,
    solve_path_cover,
)
from repro.core.paths import FlowPathGenerator, FlowPathResult, build_flow_path_problem
from repro.core.render import coverage_map, render_array, render_paths, render_vector
from repro.core.repair import (
    HardeningReport,
    find_masked_stuck_pairs,
    harden_double_faults,
    synthesize_pair_breaker,
)
from repro.core.routing import (
    RoutingError,
    contracted_cell_graph,
    disjoint_route_through,
    route_valves,
    shortest_route,
)
from repro.core.testgen import (
    GeneratedSuite,
    GenerationReport,
    TestGenerator,
    generate_suite,
)
from repro.core.validate import (
    TwoFaultAudit,
    ValidationReport,
    audit_two_fault_detection,
    validate_suite,
    validate_vector,
)
from repro.core.vectors import TestSet, TestVector, VectorKind, vector_from_open_set

__all__ = [
    "BaselineGenerator",
    "BaselineResult",
    "CoverageReport",
    "measure_coverage",
    "sa0_observable_valves",
    "sa1_observable_valves",
    "CutSetGenerator",
    "CutSetResult",
    "Wall",
    "closure_repair",
    "GreedyPathGenerator",
    "BlockGrid",
    "HierarchicalPathGenerator",
    "block_graph",
    "LeakageGenerator",
    "LeakageResult",
    "CoverPath",
    "PathCoverError",
    "PathCoverILP",
    "PathCoverProblem",
    "PathCoverSolution",
    "edge_key",
    "solve_path_cover",
    "FlowPathGenerator",
    "FlowPathResult",
    "build_flow_path_problem",
    "coverage_map",
    "render_array",
    "render_paths",
    "render_vector",
    "HardeningReport",
    "find_masked_stuck_pairs",
    "harden_double_faults",
    "synthesize_pair_breaker",
    "RoutingError",
    "contracted_cell_graph",
    "disjoint_route_through",
    "route_valves",
    "shortest_route",
    "GeneratedSuite",
    "GenerationReport",
    "TestGenerator",
    "generate_suite",
    "TwoFaultAudit",
    "ValidationReport",
    "audit_two_fault_detection",
    "validate_suite",
    "validate_vector",
    "TestSet",
    "TestVector",
    "VectorKind",
    "vector_from_open_set",
]

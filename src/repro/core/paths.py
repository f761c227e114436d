"""Flow-path test generation (section III-B, direct ILP mode).

Builds the path-cover ILP on the cell graph: paths run from a source port
to a sink port, every valve must be covered, and always-open channel edges
carry the closure constraint so a path can never acquire a channel shortcut
(which would mask a stuck-at-0 fault exactly like the second path in
Fig 5(a)).

The resulting vectors open the valves of one path each and expect pressure
at that path's sink.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.context import ExecutionContext
from repro.core.pathmodel import (
    CoverPath,
    PathCoverProblem,
    PathCoverSolution,
    edge_key,
    solve_path_cover,
)
from repro.core.vectors import TestVector, VectorKind, vector_from_open_set
from repro.fpva.array import FPVA
from repro.fpva.components import EdgeKind
from repro.fpva.geometry import Edge
from repro.fpva.graph import cell_graph
from repro.fpva.ports import Port
from repro.ilp import SolveOptions
from repro.sim.kernel import ReachabilityKernel


def channel_region_caps(
    fpva: FPVA, graph: nx.Graph
) -> list[tuple[frozenset, int]]:
    """Crossing caps for the always-open channel regions within ``graph``.

    Each channel component is one pressure node; a flow path may cross its
    boundary at most twice (see :class:`PathCoverProblem.region_caps`).
    The boundary of a region is every non-channel graph edge with exactly
    one endpoint inside it (port openings included).
    """
    caps = []
    for component in fpva.channel_components:
        members = {c for c in component if c in graph}
        if not members:
            continue
        boundary = set()
        for cell in members:
            for nb in graph.neighbors(cell):
                if nb in members:
                    continue
                boundary.add(edge_key(cell, nb))
        if boundary:
            caps.append((frozenset(boundary), 2))
    return caps


def build_flow_path_problem(fpva: FPVA, graph: nx.Graph | None = None) -> PathCoverProblem:
    """The paper's flow-path instance on the cell graph."""
    g = graph if graph is not None else cell_graph(fpva)
    cover = {
        edge_key(u, v)
        for u, v, data in g.edges(data=True)
        if data["kind"] is EdgeKind.VALVE
    }
    closure = {
        edge_key(u, v)
        for u, v, data in g.edges(data=True)
        if data["kind"] is EdgeKind.CHANNEL
    }
    return PathCoverProblem(
        graph=g,
        terminals_a=list(fpva.sources),
        terminals_b=list(fpva.sinks),
        cover_edges=cover,
        closure_edges=closure,
        region_caps=channel_region_caps(fpva, g),
    )


def cover_path_valves(fpva: FPVA, path: CoverPath) -> list[Edge]:
    """Valves along an extracted path (port hops and channels excluded)."""
    valves = []
    for ekey in path.edges:
        u, v = tuple(ekey)
        if isinstance(u, Port) or isinstance(v, Port):
            continue
        edge = Edge(min(u, v), max(u, v))
        if edge in fpva.valve_set:
            valves.append(edge)
    return valves


def path_to_vector(
    kernel: ReachabilityKernel,
    path: CoverPath,
    name: str,
    kind: VectorKind = VectorKind.FLOW_PATH,
) -> TestVector:
    """Turn a path on ``kernel``'s array into a test vector with
    fault-free expected readings."""
    fpva = kernel.fpva
    open_valves = frozenset(cover_path_valves(fpva, path))
    expected = kernel.meter_readings(open_valves)
    if not any(expected.values()):
        raise RuntimeError(
            f"path {name} does not pressurize any sink — not a valid flow path"
        )
    return vector_from_open_set(
        fpva,
        name,
        kind,
        open_valves,
        expected,
        provenance=tuple(path.nodes),
    )


@dataclass
class FlowPathResult:
    """Generated flow-path vectors plus generation metadata."""

    vectors: list[TestVector]
    paths: list[CoverPath]
    proven_optimal: bool
    wall_time: float

    @property
    def np_paths(self) -> int:
        return len(self.vectors)


class FlowPathGenerator:
    """Direct (non-hierarchical) ILP flow-path generation.

    Suitable for arrays up to roughly 10x10 cells; larger arrays should use
    :class:`repro.core.hierarchy.HierarchicalPathGenerator` (the paper's
    section III-B-4), which this class also serves as the per-block engine
    for.
    """

    def __init__(
        self,
        fpva: FPVA,
        solve_options: SolveOptions | None = None,
        max_paths: int = 64,
        context: ExecutionContext | None = None,
    ):
        self.fpva = fpva
        self.solve_options = solve_options or SolveOptions(time_limit=120.0)
        self.max_paths = max_paths
        self.context = ExecutionContext.resolve(context, fpva)
        self.kernel = self.context.kernel

    def generate(self, start_paths: int | None = None) -> FlowPathResult:
        problem = build_flow_path_problem(self.fpva)
        solution = solve_path_cover(
            problem,
            start_paths=start_paths,
            max_paths=self.max_paths,
            solve_options=self.solve_options,
        )
        vectors = [
            path_to_vector(self.kernel, path, f"path{i}")
            for i, path in enumerate(solution.paths)
        ]
        return FlowPathResult(
            vectors=vectors,
            paths=solution.paths,
            proven_optimal=solution.proven_optimal,
            wall_time=solution.wall_time,
        )

"""Hierarchical flow-path generation (section III-B-4).

The direct ILP does not scale past ~10x10, so the paper partitions the
array into subblocks (5x5 in all experiments), solves a top-level ILP whose
paths fix the flow *direction* through each subblock, solves per-subblock
ILPs for subpaths consistent with those directions, and stitches subpaths
into chip-level test paths ("a subpath should be included at least once").

This module follows that structure with one engineering refinement: the
per-block subproblems are solved on sliding two-block *corridor windows*
along each top-level route, so a single stitched path may weave across a
block border several times and cover all of the border's valves in one
pass (the behaviour visible in the paper's Fig 8(b)).  Concretely:

1. the top level is the block-adjacency graph; the same path-cover ILP used
   everywhere else generates routes covering every block border;
2. a chip-level path is built by walking a route window by window: each
   window solves a small fixed-usage ILP maximizing newly-covered valves
   from the current entry cell to the border of the next window (or to the
   sink port in the last window), within the window's unused cells;
3. routes are re-walked in passes until every valve is covered
   (observability-checked); a max-flow routed mop-up path handles any
   pathological leftovers, guaranteeing termination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import networkx as nx

from repro.context import ExecutionContext
from repro.core.coverage import sa0_observable_valves
from repro.core.pathmodel import (
    CoverPath,
    PathCoverILP,
    PathCoverProblem,
    edge_key,
    solve_path_cover,
)
from repro.core.paths import FlowPathResult, channel_region_caps, path_to_vector
from repro.core.routing import RoutingError, disjoint_route_through
from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.components import EdgeKind
from repro.fpva.geometry import Cell, Edge
from repro.fpva.graph import cell_graph
from repro.fpva.ports import Port
from repro.ilp import SolveOptions

BlockId = tuple[int, int]


@dataclass(frozen=True)
class BlockGrid:
    """Partition of an array into ``subblock x subblock`` cell blocks."""

    fpva: FPVA
    subblock: int = 5

    @property
    def brows(self) -> int:
        return -(-self.fpva.nr // self.subblock)

    @property
    def bcols(self) -> int:
        return -(-self.fpva.nc // self.subblock)

    def block_of(self, cell: Cell) -> BlockId:
        return (
            (cell.r - 1) // self.subblock + 1,
            (cell.c - 1) // self.subblock + 1,
        )

    def cells_of(self, block: BlockId) -> list[Cell]:
        bi, bj = block
        out = []
        for r in range((bi - 1) * self.subblock + 1, min(bi * self.subblock, self.fpva.nr) + 1):
            for c in range((bj - 1) * self.subblock + 1, min(bj * self.subblock, self.fpva.nc) + 1):
                cell = Cell(r, c)
                if self.fpva.is_cell(cell):
                    out.append(cell)
        return out

    def border_valves(self, b1: BlockId, b2: BlockId) -> list[Edge]:
        """Valves crossing between two (adjacent) blocks."""
        out = []
        for valve in self.fpva.valves:
            blocks = {self.block_of(valve.a), self.block_of(valve.b)}
            if blocks == {b1, b2}:
                out.append(valve)
        return out

    def hierarchy_label(self) -> str:
        """Table I's "Top" column, e.g. ``"4x4"`` for 20x20 / 5x5 blocks."""
        return f"{self.brows}x{self.bcols}"


def block_graph(grid: BlockGrid) -> nx.Graph:
    """Top-level graph: blocks as nodes, shared borders as edges."""
    fpva = grid.fpva
    g = nx.Graph()
    borders: dict[frozenset, list[Edge]] = {}
    for edge in fpva.flow_edges:
        ba, bb = grid.block_of(edge.a), grid.block_of(edge.b)
        if ba != bb:
            borders.setdefault(frozenset((ba, bb)), []).append(edge)
        else:
            g.add_node(ba)
    for pair, edges in borders.items():
        b1, b2 = tuple(pair)
        g.add_edge(b1, b2, border=edges)
    for port in fpva.ports:
        block = grid.block_of(fpva.port_cell(port))
        g.add_edge(port, block, border=[])
    return g


@dataclass
class HierarchicalReport:
    """Diagnostics from one hierarchical generation run."""

    routes: list[tuple[Hashable, ...]] = field(default_factory=list)
    passes: int = 0
    window_solves: int = 0
    targeted_walks: int = 0
    mopup_paths: int = 0
    wall_time: float = 0.0


class HierarchicalPathGenerator:
    """Flow-path generation via top-level routes and corridor-window ILPs."""

    def __init__(
        self,
        fpva: FPVA,
        subblock: int = 5,
        solve_options: SolveOptions | None = None,
        window_options: SolveOptions | None = None,
        max_passes: int = 16,
        context: ExecutionContext | None = None,
    ):
        self.fpva = fpva
        self.grid = BlockGrid(fpva, subblock)
        self.solve_options = solve_options or SolveOptions(time_limit=60.0)
        self.window_options = window_options or SolveOptions(time_limit=15.0)
        self.max_passes = max_passes
        self.context = ExecutionContext.resolve(context, fpva)
        self.kernel = self.context.kernel
        self.graph = cell_graph(fpva)
        self.report = HierarchicalReport()

    # -- top level -----------------------------------------------------------
    def top_level_routes(self) -> list[tuple[Hashable, ...]]:
        """Simple port→port routes in the block graph covering every border."""
        g = block_graph(self.grid)
        cover = {
            edge_key(u, v)
            for u, v, data in g.edges(data=True)
            if data["border"]
        }
        problem = PathCoverProblem(
            graph=g,
            terminals_a=list(self.fpva.sources),
            terminals_b=list(self.fpva.sinks),
            cover_edges=cover,
        )
        solution = solve_path_cover(problem, solve_options=self.solve_options)
        routes = [p.nodes for p in solution.paths]
        if not routes:
            # No block borders to cover (e.g. a single-block array): the
            # optimum is zero paths, but walking still needs one route.
            routes = [
                tuple(
                    nx.shortest_path(g, self.fpva.sources[0], self.fpva.sinks[0])
                )
            ]
        return routes

    # -- window subproblem ----------------------------------------------------
    def _window_path(
        self,
        allowed: set,
        entry: Hashable,
        exits: Sequence[Hashable],
        uncovered: set[Edge],
    ) -> list[Hashable] | None:
        """Best simple path entry→exit inside the window, or None.

        Maximizes the number of uncovered valves used; falls back to a plain
        shortest path when the ILP yields nothing within its budget.
        """
        # Built in the parent graph's node and edge order: an induced
        # subgraph view iterates its node *set*, whose order follows the
        # ports' string hashes and so differs per process — as would the
        # ILP's variable and row order, and with it the suite.
        sub = nx.Graph()
        sub.add_nodes_from(n for n in self.graph if n in allowed)
        sub.add_edges_from(
            (u, v, data)
            for u, v, data in self.graph.edges(data=True)
            if u in allowed and v in allowed
        )
        exits = [e for e in exits if e in sub]
        if entry not in sub or not exits:
            return None
        weights = {}
        closure = set()
        for u, v, data in sub.edges(data=True):
            if data["kind"] is EdgeKind.VALVE and data["edge"] in uncovered:
                weights[edge_key(u, v)] = 1.0
            elif data["kind"] is EdgeKind.CHANNEL:
                closure.add(edge_key(u, v))
        problem = PathCoverProblem(
            graph=sub,
            terminals_a=[entry],
            terminals_b=exits,
            cover_edges=set(),
            closure_edges=closure,
            region_caps=channel_region_caps(self.fpva, sub),
        )
        self.report.window_solves += 1
        if weights:
            ilp = PathCoverILP(
                problem,
                num_paths=1,
                fixed_usage=True,
                objective_weights=weights,
                required_coverage=False,
            )
            solution = ilp.solve(self.window_options)
            if solution is not None and solution.paths:
                return list(solution.paths[0].nodes)
        # Fallback: any connection keeps the walk alive.
        best = None
        for target in exits:
            try:
                nodes = nx.shortest_path(sub, entry, target)
            except nx.NetworkXNoPath:
                continue
            if best is None or len(nodes) < len(best):
                best = nodes
        return best

    # -- route walking ---------------------------------------------------------
    def _walk_route(
        self, route: Sequence[Hashable], uncovered: set[Edge]
    ) -> list[Hashable] | None:
        """One chip-level path along a top-level route."""
        source = route[0]
        sink = route[-1]
        blocks = [n for n in route if not isinstance(n, Port)]
        if not blocks:
            return None

        nodes: list[Hashable] = [source]
        used: set[Hashable] = {source}
        entry: Hashable = source

        for i in range(len(blocks)):
            last_window = i + 2 >= len(blocks)
            window_cells = set(self.grid.cells_of(blocks[i]))
            if i + 1 < len(blocks):
                window_cells |= set(self.grid.cells_of(blocks[i + 1]))
            allowed = (window_cells - used) | {entry}

            if last_window:
                allowed.add(sink)
                exits: list[Hashable] = [sink]
            else:
                # Exit anywhere in block i+1 that can cross into block i+2.
                nxt_border = self.grid.border_valves(blocks[i + 1], blocks[i + 2])
                exits = sorted(
                    {
                        end
                        for valve in nxt_border
                        for end in valve.cells
                        if self.grid.block_of(end) == blocks[i + 1]
                        and end not in used
                    }
                )
            segment = self._window_path(allowed, entry, exits, uncovered)
            if segment is None:
                return None
            nodes.extend(segment[1:])
            used.update(segment)
            # A channel region is one pressure node; once this walk touches
            # it, re-entering from a later window would short the two path
            # segments together (the region caps inside one window cannot
            # see across windows).  Consume the whole region.
            segment_cells = set(segment)
            for region in self.fpva.channel_components:
                if region & segment_cells:
                    used.update(region)
            if last_window:
                return nodes

            # Cross into block i+2, preferring an uncovered border valve.
            exit_cell = segment[-1]
            candidates = []
            for valve in self.grid.border_valves(blocks[i + 1], blocks[i + 2]):
                if exit_cell in valve.cells:
                    landing = valve.other(exit_cell)
                    if landing not in used:
                        candidates.append((valve, landing))
            if not candidates:
                return None
            candidates.sort(key=lambda it: (it[0] not in uncovered, it[0]))
            valve, landing = candidates[0]
            nodes.append(landing)
            used.add(landing)
            entry = landing
        return None

    # -- public API --------------------------------------------------------------
    def generate(self) -> FlowPathResult:
        start = time.perf_counter()
        routes = self.top_level_routes()
        self.report.routes = routes

        uncovered: set[Edge] = set(self.fpva.valves)
        vectors: list[TestVector] = []
        paths: list[CoverPath] = []

        # Walking a route reversed (sink→source) shifts the window phasing
        # and reaches cells the forward walk leaves behind; the resulting
        # vector is identical in kind (paths are undirected).
        walk_list = list(routes) + [tuple(reversed(r)) for r in routes]
        for _ in range(self.max_passes):
            if not uncovered:
                break
            self.report.passes += 1
            progress = False
            for route in walk_list:
                if not uncovered:
                    break
                node_seq = self._walk_route(route, uncovered)
                if node_seq is None:
                    continue
                vector, observable = self._emit(node_seq, len(vectors))
                newly = observable & uncovered
                if not newly:
                    continue
                vectors.append(vector)
                paths.append(_cover_path(node_seq))
                uncovered -= observable
                progress = True
            if not progress:
                break

        # Targeted corridor walks: aim a fresh route at the blocks holding
        # the most uncovered valves and walk them.  This handles blocks the
        # minimal top-level routes graze only briefly.
        max_targeted = 4 * self.grid.brows * self.grid.bcols
        while uncovered and self.report.targeted_walks < max_targeted:
            counts: dict[BlockId, int] = {}
            for valve in uncovered:
                for cell in valve.cells:
                    block = self.grid.block_of(cell)
                    counts[block] = counts.get(block, 0) + 1
            progressed = False
            for target in sorted(counts, key=lambda b: counts[b], reverse=True):
                route = self._route_through_block(target)
                if route is None:
                    continue
                for candidate in (route, tuple(reversed(route))):
                    node_seq = self._walk_route(candidate, uncovered)
                    if node_seq is None:
                        continue
                    vector, observable = self._emit(node_seq, len(vectors))
                    newly = observable & uncovered
                    if not newly:
                        continue
                    vectors.append(vector)
                    paths.append(_cover_path(node_seq))
                    uncovered -= observable
                    self.report.targeted_walks += 1
                    progressed = True
                    break
                if progressed:
                    break
            if not progressed:
                break

        # Mop-up: route a dedicated simple path through each leftover valve.
        for valve in sorted(uncovered.copy()):
            if valve not in uncovered:
                continue
            try:
                node_seq = disjoint_route_through(self.fpva, valve)
            except RoutingError:
                continue
            vector, observable = self._emit(node_seq, len(vectors))
            if not observable & uncovered:
                continue
            vectors.append(vector)
            paths.append(_cover_path(node_seq))
            uncovered -= observable
            self.report.mopup_paths += 1

        self.report.wall_time = time.perf_counter() - start
        if uncovered:
            raise RuntimeError(
                f"hierarchical generation left {len(uncovered)} valves "
                f"uncovered on {self.fpva.name}: {sorted(uncovered)[:5]}"
            )
        return FlowPathResult(
            vectors=vectors,
            paths=paths,
            proven_optimal=False,
            wall_time=self.report.wall_time,
        )

    def _route_through_block(self, block: BlockId) -> tuple[Hashable, ...] | None:
        """A simple block-graph route source→``block``→sink (max-flow)."""
        g = block_graph(self.grid)
        if block not in g:
            return None
        src = self.fpva.sources[0]
        snk = self.fpva.sinks[0]
        d = nx.DiGraph()
        for n in g.nodes:
            d.add_edge((n, "in"), (n, "out"), capacity=1)
        for u, v in g.edges:
            d.add_edge((u, "out"), (v, "in"), capacity=1)
            d.add_edge((v, "out"), (u, "in"), capacity=1)
        d.add_edge("S*", (src, "in"), capacity=1)
        d.add_edge("S*", (snk, "in"), capacity=1)
        d.edges[(block, "in"), (block, "out")]["capacity"] = 2
        d.add_edge((block, "out"), "T*", capacity=2)
        flow_value, flow = nx.maximum_flow(d, "S*", "T*")
        if flow_value < 2:
            return None
        legs = []
        for start in (src, snk):
            leg = [start]
            node = start
            for _ in range(g.number_of_nodes() + 1):
                nxt = next(
                    (
                        w
                        for w, amt in flow[(node, "out")].items()
                        if amt >= 1 and w != "T*"
                    ),
                    None,
                )
                if nxt is None:
                    break
                leg.append(nxt[0])
                node = nxt[0]
                if node == block:
                    break
            if leg[-1] != block:
                return None
            legs.append(leg)
        return tuple(legs[0] + list(reversed(legs[1]))[1:])

    def _emit(self, node_seq: list[Hashable], index: int) -> tuple[TestVector, set[Edge]]:
        path = _cover_path(node_seq)
        vector = path_to_vector(self.kernel, path, f"path{index}")
        observable = sa0_observable_valves(self.kernel, vector)
        return vector, observable


def _cover_path(nodes: Sequence[Hashable]) -> CoverPath:
    if len(set(nodes)) != len(nodes):
        raise RuntimeError("stitched path revisits a node — not a simple path")
    edges = tuple(edge_key(u, v) for u, v in zip(nodes, nodes[1:]))
    return CoverPath(nodes=tuple(nodes), edges=edges)

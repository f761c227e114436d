"""Greedy serpentine path-cover heuristic (no ILP).

Used as an ablation point against the ILP generators and as a scalable
fallback: walk simple paths from a source to a sink, always preferring
moves over still-uncovered valves, with a reachability filter that only
allows moves after which the sink is still reachable through unvisited
cells (so every walk is guaranteed to terminate at the sink).

On regular arrays the first two walks come out as the row-wise and
column-wise serpentines — the same two-path structure the paper's direct
ILP finds in Fig 8(a) — but the heuristic offers no optimality or
two-fault-masking guarantees, which is exactly the gap the ILP closes.
"""

from __future__ import annotations

import random
from typing import Hashable

import networkx as nx

from repro.context import ExecutionContext
from repro.core.coverage import sa0_observable_valves
from repro.core.pathmodel import CoverPath, edge_key
from repro.core.paths import FlowPathResult, path_to_vector
from repro.core.routing import RoutingError, disjoint_route_through
from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.components import EdgeKind
from repro.fpva.geometry import Edge
from repro.fpva.graph import cell_graph
from repro.fpva.ports import Port


class GreedyPathGenerator:
    """Greedy coverage walks until every valve is (observably) covered."""

    def __init__(
        self,
        fpva: FPVA,
        seed: int = 0,
        max_walks: int = 512,
        context: ExecutionContext | None = None,
    ):
        self.fpva = fpva
        self.rng = random.Random(seed)
        self.max_walks = max_walks
        self.graph = cell_graph(fpva)
        self.context = ExecutionContext.resolve(context, fpva)
        self.kernel = self.context.kernel

    # -- one walk ------------------------------------------------------------
    def walk_once(self, gain_of) -> list[Hashable] | None:
        """One greedy simple walk source→sink maximizing ``gain_of(edge)``.

        ``gain_of`` maps a valve :class:`Edge` to a non-negative score; the
        walk locally prefers the highest-scoring next step among moves that
        keep the sink reachable through unvisited cells.
        """
        g = self.graph
        source = self.rng.choice(list(self.fpva.sources))
        sink = self.rng.choice(list(self.fpva.sinks))
        region_of: dict[Hashable, int] = {}
        for i, component in enumerate(self.fpva.channel_components):
            for cell in component:
                region_of[cell] = i
        visited: set[Hashable] = {source}
        consumed: set[Hashable] = set()  # cells of channel regions we left
        walk: list[Hashable] = [source]
        current: Hashable = source

        def sink_reachable_from(node: Hashable, extra_visited: set) -> bool:
            """BFS through unvisited nodes only."""
            if node == sink:
                return True
            seen = {node}
            stack = [node]
            while stack:
                cur = stack.pop()
                for nb in g.neighbors(cur):
                    if nb in seen or nb in visited or nb in consumed or nb in extra_visited:
                        continue
                    if nb == sink:
                        return True
                    seen.add(nb)
                    stack.append(nb)
            return False

        for _ in range(g.number_of_nodes()):
            if current == sink:
                return walk
            candidates = []
            for nb in g.neighbors(current):
                if nb in visited or nb in consumed:
                    continue
                if not sink_reachable_from(nb, {current}):
                    continue
                data = g.edges[current, nb]
                gain = (
                    gain_of(data["edge"])
                    if data["kind"] is EdgeKind.VALVE
                    else 0
                )
                candidates.append((gain, self.rng.random(), nb))
            if not candidates:
                return None
            candidates.sort(reverse=True)
            nxt = candidates[0][2]
            # Leaving a channel region consumes it: the region is one
            # pressure node, so re-entering later would short the walk's
            # two segments together and mask stuck-at-0 faults in between.
            cur_region = region_of.get(current)
            if cur_region is not None and region_of.get(nxt) != cur_region:
                consumed.update(
                    self.fpva.channel_components[cur_region] - visited
                )
            current = nxt
            visited.add(current)
            walk.append(current)
        return None

    # -- public API ------------------------------------------------------------
    def generate(self) -> FlowPathResult:
        uncovered: set[Edge] = set(self.fpva.valves)
        vectors: list[TestVector] = []
        paths: list[CoverPath] = []
        stall = 0
        while uncovered and len(vectors) < self.max_walks:
            node_seq = self.walk_once(lambda e: 1.0 if e in uncovered else 0.0)
            if node_seq is None:
                stall += 1
                if stall > 20:
                    break
                continue
            path = CoverPath(
                nodes=tuple(node_seq),
                edges=tuple(
                    edge_key(u, v) for u, v in zip(node_seq, node_seq[1:])
                ),
            )
            vector = path_to_vector(self.kernel, path, f"path{len(vectors)}")
            observable = sa0_observable_valves(self.kernel, vector)
            if not observable & uncovered:
                stall += 1
                if stall > 20:
                    break
                continue
            stall = 0
            vectors.append(vector)
            paths.append(path)
            uncovered -= observable

        # Mop-up through any leftovers (pathological geometries only).
        for valve in sorted(uncovered.copy()):
            if valve not in uncovered:
                continue
            try:
                node_seq = disjoint_route_through(self.fpva, valve)
            except RoutingError:
                continue
            path = CoverPath(
                nodes=tuple(node_seq),
                edges=tuple(
                    edge_key(u, v) for u, v in zip(node_seq, node_seq[1:])
                ),
            )
            vector = path_to_vector(self.kernel, path, f"path{len(vectors)}")
            observable = sa0_observable_valves(self.kernel, vector)
            if not observable & uncovered:
                continue
            vectors.append(vector)
            paths.append(path)
            uncovered -= observable

        if uncovered:
            raise RuntimeError(
                f"greedy generation left {len(uncovered)} valves uncovered"
            )
        return FlowPathResult(
            vectors=vectors, paths=paths, proven_optimal=False, wall_time=0.0
        )

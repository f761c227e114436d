"""Cut-set test generation (section III-C).

A cut-set is a set of closed valves that completely separates the source
ports from the sink ports; with every other valve open, any pressure at a
meter exposes a stuck-at-1 fault.  Geometrically a cut-set is a *wall*: a
path in the planar dual (junction) graph from one boundary arc to the other
(the arcs come from the Fig 7(d) boundary search, implemented in
:func:`repro.fpva.graph.boundary_arcs`).

Two generation strategies are provided:

* ``"ilp"`` — the paper's approach: the same path-cover ILP as flow paths,
  instantiated on the junction graph, with constraint (9) applied to every
  dual edge so the two-fault masking patterns of Fig 5(c)/(d) cannot occur
  (a wall may never pass two junctions of a valve without closing it).
* ``"sweep"`` — the scalable generator: one straight wall per grid line
  (n_r + n_c − 2 walls on a full array — exactly the paper's Table I n_c
  column), detoured around channels and obstacles by weighted dual-graph
  shortest paths, with per-valve mop-up walls for anything left uncovered.

Every generated wall is verified with the pressure simulator: it must
separate all sources from all sinks, and a valve only counts as covered if
its single leak (opening just that valve) is observable at a meter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import networkx as nx

from repro.context import ExecutionContext
from repro.core.pathmodel import (
    CoverPath,
    PathCoverProblem,
    edge_key,
    solve_path_cover,
)
from repro.core.vectors import TestVector, VectorKind, vector_from_open_set
from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge, Junction
from repro.fpva.graph import boundary_arcs, junction_graph
from repro.ilp import SolveOptions


class CutSetError(RuntimeError):
    """Raised when a separating wall cannot be constructed."""


@dataclass
class Wall:
    """One cut-set: the valves to close and the junctions the wall follows."""

    valves: frozenset[Edge]
    junctions: tuple[Junction, ...] = ()

    def __len__(self):
        return len(self.valves)


@dataclass
class CutSetResult:
    """Generated cut-set vectors plus coverage metadata."""

    vectors: list[TestVector]
    walls: list[Wall]
    covered: set[Edge] = field(default_factory=set)
    uncovered: set[Edge] = field(default_factory=set)

    @property
    def nc_cuts(self) -> int:
        return len(self.vectors)


def closure_repair(fpva: FPVA, wall_junctions: Iterable[Junction]) -> set[Edge]:
    """Apply constraint (9) to a junction set: close every valve whose two
    end junctions both lie on the wall.

    For a wall built as a simple dual path this adds the chord valves that
    would otherwise allow the Fig 5(c)/(d) two-fault masking.
    """
    junction_set = set(wall_junctions)
    forced: set[Edge] = set()
    for valve in fpva.valves:
        u, w = valve.dual()
        if u in junction_set and w in junction_set:
            forced.add(valve)
    return forced


class CutSetGenerator:
    """Generates cut-set vectors for one array."""

    def __init__(
        self,
        fpva: FPVA,
        strategy: str = "auto",
        solve_options: SolveOptions | None = None,
        max_walls: int = 128,
        context: ExecutionContext | None = None,
    ):
        if strategy not in ("auto", "ilp", "sweep"):
            raise ValueError(f"unknown cut-set strategy {strategy!r}")
        self.fpva = fpva
        self.strategy = strategy
        self.solve_options = solve_options or SolveOptions(time_limit=120.0)
        self.max_walls = max_walls
        self.context = ExecutionContext.resolve(context, fpva)
        self.simulator = self.context.simulator
        self.dual = junction_graph(fpva)
        self.arcs = boundary_arcs(fpva)

    # -- verification -------------------------------------------------------
    def wall_separates(self, wall: Wall) -> bool:
        """True if closing exactly the wall valves blocks every meter."""
        open_valves = frozenset(self.fpva.valve_set - wall.valves)
        return self.simulator.sink_separated(open_valves)

    def observable_members(self, wall: Wall) -> set[Edge]:
        """Wall valves whose lone leak re-pressurizes some meter.

        Only these count as stuck-at-1 covered by this wall's vector.
        Every member's leak is evaluated in one bit-parallel batch.
        """
        base_open = self.fpva.valve_set - wall.valves
        kernel = self.simulator.kernel
        members = sorted(wall.valves)
        rows = kernel.toggled_readings(
            kernel.valve_mask(base_open), members, set_bit=True
        )
        return {valve for valve, row in zip(members, rows) if row.any()}

    def wall_to_vector(self, wall: Wall, name: str) -> TestVector:
        open_valves = frozenset(self.fpva.valve_set - wall.valves)
        expected = self.simulator.meter_readings(open_valves)
        if any(expected.values()):
            raise CutSetError(f"wall {name} does not separate source from sinks")
        return vector_from_open_set(
            self.fpva,
            name,
            VectorKind.CUT_SET,
            open_valves,
            expected,
            provenance=tuple(wall.junctions),
        )

    # -- public API ---------------------------------------------------------
    def generate(self) -> CutSetResult:
        strategy = self.strategy
        if strategy == "auto":
            strategy = "ilp" if self.fpva.nr * self.fpva.nc <= 49 else "sweep"
        walls = self._walls_ilp() if strategy == "ilp" else self._walls_sweep()

        result = CutSetResult(vectors=[], walls=[])
        covered: set[Edge] = set()
        for wall in walls:
            observable = self.observable_members(wall)
            if not observable - covered:
                continue  # nothing new: drop redundant wall
            vector = self.wall_to_vector(wall, f"cut{len(result.vectors)}")
            result.vectors.append(vector)
            result.walls.append(wall)
            covered |= observable
        result.covered = covered
        result.uncovered = set(self.fpva.valves) - covered

        # Mop-up: targeted walls for any valve still uncovered.
        for valve in sorted(result.uncovered):
            wall = self._wall_through(valve)
            if wall is None:
                continue
            observable = self.observable_members(wall)
            if valve not in observable:
                continue
            vector = self.wall_to_vector(wall, f"cut{len(result.vectors)}")
            result.vectors.append(vector)
            result.walls.append(wall)
            covered |= observable
        result.covered = covered
        result.uncovered = set(self.fpva.valves) - covered
        return result

    # -- ILP strategy ---------------------------------------------------------
    def _walls_ilp(self) -> list[Wall]:
        """The paper's adaptation of optimization (7)-(8) to the dual graph."""
        g = self.dual
        cover = {
            edge_key(u, v)
            for u, v, data in g.edges(data=True)
            if data["valve"] is not None
        }
        closure = {edge_key(u, v) for u, v in g.edges}
        terminals_a = [j for j in self.arcs.start_arc if j in g]
        terminals_b = [j for j in self.arcs.end_arc if j in g]
        problem = PathCoverProblem(
            graph=g,
            terminals_a=terminals_a,
            terminals_b=terminals_b,
            cover_edges=cover,
            closure_edges=closure,
        )
        solution = solve_path_cover(
            problem,
            max_paths=self.max_walls,
            solve_options=self.solve_options,
        )
        return [self._wall_from_dual_path(p) for p in solution.paths]

    def _wall_from_dual_path(self, path: CoverPath) -> Wall:
        valves: set[Edge] = set()
        for ekey in path.edges:
            u, v = tuple(ekey)
            valve = self.dual.edges[u, v]["valve"]
            if valve is not None:
                valves.add(valve)
        valves |= closure_repair(self.fpva, path.nodes)
        return Wall(valves=frozenset(valves), junctions=tuple(path.nodes))

    # -- sweep strategy ---------------------------------------------------------
    def _walls_sweep(self) -> list[Wall]:
        """Straight row/column walls, detoured around channels/obstacles."""
        nr, nc = self.fpva.nr, self.fpva.nc
        walls: list[Wall] = []
        for j in range(1, nc):  # vertical walls between columns j and j+1
            wall = self._dual_wall(lane=("col", j))
            if wall is not None:
                walls.append(wall)
        for i in range(1, nr):  # horizontal walls between rows i and i+1
            wall = self._dual_wall(lane=("row", i))
            if wall is not None:
                walls.append(wall)
        return walls

    def _dual_wall(self, lane: tuple[str, int]) -> Wall | None:
        """The lane's wall: a lane-hugging dual path between fixed feet.

        The canonical feet are the two perimeter junctions where the
        straight lane wall meets the boundary.  If the resulting wall does
        not separate (a second meter can sit on the wrong side of a
        straight wall), nearby boundary-arc junctions are tried as
        alternative feet — the wall then bends around the offending port.
        Endpoints must stay *fixed* per attempt: leaving them free lets the
        shortest "wall" degenerate into a two-valve box around a port,
        abandoning the lane entirely.
        """
        nr, nc = self.fpva.nr, self.fpva.nc
        kind, index = lane
        if kind == "col":
            foot_a, foot_b = Junction(0, index), Junction(nr, index)
        else:
            foot_a, foot_b = Junction(index, 0), Junction(index, nc)

        def nearest(arc, foot):
            members = [j for j in arc if j in self.dual]
            members.sort(key=lambda j: abs(j.r - foot.r) + abs(j.c - foot.c))
            return members[:6]

        starts = [foot_a] if foot_a in self.dual else []
        ends = [foot_b] if foot_b in self.dual else []
        starts += [j for j in nearest(self.arcs.start_arc, foot_a) if j not in starts]
        ends += [j for j in nearest(self.arcs.end_arc, foot_b) if j not in ends]

        for start in starts[:4]:
            for end in ends[:4]:
                wall = self._lane_path_wall(start, end, lane)
                if wall is not None:
                    return wall
        return None

    def _lane_path_wall(
        self, start: Junction, end: Junction, lane: tuple[str, int]
    ) -> Wall | None:
        """A separating wall along the cheapest lane-hugging dual path."""
        g = self.dual
        if start not in g or end not in g or start == end:
            return None
        kind, index = lane

        def weight(u: Junction, w: Junction, data: dict) -> float:
            base = 1.0 if data["valve"] is not None else 0.0
            coord = (u.c + w.c) / 2 if kind == "col" else (u.r + w.r) / 2
            return base + 0.5 * abs(coord - index) + 0.001

        try:
            nodes = nx.dijkstra_path(g, start, end, weight=weight)
        except nx.NetworkXNoPath:
            return None
        valves: set[Edge] = set()
        for u, w in zip(nodes, nodes[1:]):
            valve = g.edges[u, w]["valve"]
            if valve is not None:
                valves.add(valve)
        valves |= closure_repair(self.fpva, nodes)
        wall = Wall(valves=frozenset(valves), junctions=tuple(nodes))
        if not self.wall_separates(wall):
            return None
        return wall

    def _wall_through(self, valve: Edge) -> Wall | None:
        """Mop-up: a wall forced through ``valve``, kept minimal around it."""
        u, w = valve.dual()
        start_set = [j for j in self.arcs.start_arc if j in self.dual]
        end_set = [j for j in self.arcs.end_arc if j in self.dual]

        def half(src_set: Sequence[Junction], target: Junction, banned: set):
            """Cheapest dual path from any junction in src_set to target."""
            best = None
            g = self.dual
            h = g.copy()
            h.remove_nodes_from([n for n in banned if n in h and n != target])
            for s in src_set:
                if s not in h:
                    continue
                try:
                    nodes = nx.dijkstra_path(
                        h,
                        s,
                        target,
                        weight=lambda a, b, d: (1.0 if d["valve"] else 0.0) + 0.001,
                    )
                except nx.NetworkXNoPath:
                    continue
                if best is None or len(nodes) < len(best):
                    best = nodes
            return best

        for first, second in ((u, w), (w, u)):
            leg1 = half(start_set, first, banned=set())
            if leg1 is None:
                continue
            leg2 = half(end_set, second, banned=set(leg1) - {second})
            if leg2 is None:
                continue
            nodes = tuple(leg1) + tuple(reversed(leg2))
            valves: set[Edge] = {valve}
            g = self.dual
            for a, b in zip(nodes, nodes[1:]):
                if g.has_edge(a, b):
                    vv = g.edges[a, b]["valve"]
                    if vv is not None:
                        valves.add(vv)
            valves |= closure_repair(self.fpva, nodes)
            wall = Wall(valves=frozenset(valves), junctions=nodes)
            if self.wall_separates(wall) and valve in self.observable_members(wall):
                return wall
        return self._boxed_wall_through(valve)

    def _boxed_wall_through(self, valve: Edge) -> Wall | None:
        """Multi-segment fallback: a short barrier through ``valve`` plus an
        isolation box around every meter the barrier leaves pressurized.

        With several meters, a valve lying between two port gaps (e.g. on
        the boundary row between two sinks) cannot sit on any single
        arc-to-arc wall that also isolates both meters — the cut must be a
        *union* of walls.  This goes beyond the paper's single-path model
        but only engages when that model has no answer.
        """
        g = self.dual
        nr, nc = self.fpva.nr, self.fpva.nc
        boundary = [
            j for j in g.nodes if j.r in (0, nr) or j.c in (0, nc)
        ]
        if not boundary:
            return None
        u, w = valve.dual()

        def side_of(j: Junction) -> str:
            if j.r == 0:
                return "north"
            if j.r == nr:
                return "south"
            if j.c == 0:
                return "west"
            return "east"

        def legs_by_side(src: Junction, banned: set) -> dict[str, list[Junction]]:
            """Cheapest path from ``src`` to each chip side's boundary.

            The legs may not use the target valve's own dual edge: the
            barrier must be leg1 + valve + leg2 with both ends on the
            sealed boundary, so the valve sits on the frontier between the
            pressurized and the dark region.
            """
            if src.r in (0, nr) or src.c in (0, nc):
                return {side_of(src): [src]}
            h = g.copy()
            h.remove_nodes_from([n for n in banned if n != src])
            if h.has_edge(u, w):
                h.remove_edge(u, w)
            lengths, paths = nx.single_source_dijkstra(
                h, src, weight=lambda a, b, d: (1.0 if d["valve"] else 0.0) + 0.001
            )
            best: dict[str, Junction] = {}
            for target in boundary:
                if target not in paths:
                    continue
                side = side_of(target)
                if side not in best or lengths[target] < lengths[best[side]]:
                    best[side] = target
            return {side: paths[j] for side, j in best.items()}

        for leg1 in legs_by_side(u, banned=set()).values():
            for leg2 in legs_by_side(w, banned=set(leg1) - {w}).values():
                wall = self._assemble_boxed_wall(valve, leg1, leg2)
                if wall is not None:
                    return wall
        return None

    def _assemble_boxed_wall(
        self, valve: Edge, leg1: list[Junction], leg2: list[Junction]
    ) -> Wall | None:
        """Barrier = leg1 + valve + leg2; box every meter still lit; verify."""
        g = self.dual
        nodes = tuple(reversed(leg1)) + tuple(leg2)
        valves: set[Edge] = {valve}
        for a, b in zip(nodes, nodes[1:]):
            if g.has_edge(a, b):
                vv = g.edges[a, b]["valve"]
                if vv is not None:
                    valves.add(vv)

        for _ in range(len(self.fpva.sinks)):
            readings = self.simulator.meter_readings(
                frozenset(self.fpva.valve_set - valves)
            )
            lit = [name for name, hit in readings.items() if hit]
            if not lit:
                break
            port = self.fpva.port_by_name(lit[0])
            box = self._port_seal(port)
            if box is None:
                return None
            valves |= box
        valves |= closure_repair(self.fpva, nodes)
        wall = Wall(valves=frozenset(valves), junctions=nodes)
        if not self.wall_separates(wall):
            return None
        if valve not in self.observable_members(wall):
            return None
        return wall

    def _port_seal(self, port) -> set[Edge] | None:
        """The minimal valve box sealing one port: the cheapest dual path
        between the two junctions of the port's boundary gap.

        A gap junction sitting on a chip corner has no dual edges at all;
        the seal then anchors at the next junction along the perimeter
        (walking away from the gap) that does appear in the dual graph.
        """
        from repro.fpva.geometry import perimeter_junction_cycle

        g1, g2 = port.gap(self.fpva.nr, self.fpva.nc)
        g = self.dual

        def slide_to_graph(j: Junction, away_from: Junction) -> Junction | None:
            if j in g:
                return j
            cycle = perimeter_junction_cycle(self.fpva.nr, self.fpva.nc)
            n = len(cycle)
            pos = {jj: i for i, jj in enumerate(cycle)}
            idx, other = pos[j], pos[away_from]
            step = 1 if (idx - other) % n <= n // 2 else -1
            for _ in range(n):
                idx = (idx + step) % n
                if cycle[idx] in g:
                    return cycle[idx]
            return None

        orig_g1, orig_g2 = g1, g2
        g1 = slide_to_graph(orig_g1, away_from=orig_g2)
        g2 = slide_to_graph(orig_g2, away_from=orig_g1)
        if g1 is None or g2 is None or g1 == g2:
            return None
        try:
            nodes = nx.dijkstra_path(
                g, g1, g2, weight=lambda a, b, d: (1.0 if d["valve"] else 0.0) + 0.001
            )
        except nx.NetworkXNoPath:
            return None
        out: set[Edge] = set()
        for a, b in zip(nodes, nodes[1:]):
            vv = g.edges[a, b]["valve"]
            if vv is not None:
                out.add(vv)
        return out

"""Cell-graph / junction-graph construction and planar duality."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.components import EdgeKind
from repro.fpva.geometry import Cell, Junction, edge_between
from repro.fpva.graph import (
    UnsupportedTopologyError,
    boundary_arcs,
    cell_graph,
    junction_graph,
)
from repro.sim import ReachabilityKernel


class TestCellGraph:
    def test_nodes_and_edges(self, tiny):
        g = cell_graph(tiny)
        # 9 cells + 2 ports; 12 valves + 2 port edges.
        assert g.number_of_nodes() == 11
        assert g.number_of_edges() == 14

    def test_edge_kinds(self, table5):
        g = cell_graph(table5)
        kinds = {d["kind"] for _, _, d in g.edges(data=True)}
        assert kinds == {EdgeKind.VALVE, EdgeKind.CHANNEL, EdgeKind.PORT}

    def test_obstacle_cell_absent(self, obstacle_array):
        g = cell_graph(obstacle_array)
        assert Cell(3, 3) not in g


class TestJunctionGraph:
    def test_full_grid_dual_edge_count(self, tiny):
        g = junction_graph(tiny)
        assert g.number_of_edges() == tiny.valve_count

    def test_channel_dual_edges_missing(self, table5):
        g = junction_graph(table5)
        # 39 valves -> 39 closable dual edges; the channel has none.
        closable = [
            (u, v) for u, v, d in g.edges(data=True) if d["valve"] is not None
        ]
        assert len(closable) == 39

    def test_obstacle_dual_edges_free(self, obstacle_array):
        g = junction_graph(obstacle_array)
        free = [
            (u, v) for u, v, d in g.edges(data=True) if d["valve"] is None
        ]
        assert len(free) == 4  # the four sealed sides of the 1x1 obstacle

    def test_dual_valves_bijective(self, tiny):
        g = junction_graph(tiny)
        valves = [d["valve"] for _, _, d in g.edges(data=True) if d["valve"]]
        assert len(valves) == len(set(valves)) == tiny.valve_count


class TestBoundaryArcs:
    def test_arcs_disjoint_nonempty(self, tiny):
        arcs = boundary_arcs(tiny)
        assert arcs.start_arc and arcs.end_arc
        assert not (set(arcs.start_arc) & set(arcs.end_arc))

    def test_arcs_stop_at_sink(self, two_sink_array):
        arcs = boundary_arcs(two_sink_array)
        sink_junctions = set()
        for port in two_sink_array.sinks:
            sink_junctions.update(port.gap(4, 4))
        assert arcs.start_arc[-1] in sink_junctions
        assert arcs.end_arc[-1] in sink_junctions

    def test_source_sink_sharing_junction_rejected(self):
        fpva = (
            FPVABuilder(3, 3)
            .source(Side.WEST, 1)
            .sink(Side.WEST, 2)
            .build()
        )
        with pytest.raises(UnsupportedTopologyError):
            boundary_arcs(fpva)


class TestDuality:
    """A dual path between the two arcs separates sources from sinks."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(3, 6), st.integers(3, 6), st.integers(1, 5))
    def test_straight_wall_separates(self, nr, nc, j):
        if j >= nc:
            j = nc - 1
        fpva = full_layout(nr, nc)
        g = junction_graph(fpva)
        nodes = [Junction(r, j) for r in range(nr + 1)]
        wall_valves = set()
        for u, w in zip(nodes, nodes[1:]):
            wall_valves.add(g.edges[u, w]["valve"])
        kernel = ReachabilityKernel(fpva)
        open_valves = frozenset(fpva.valve_set - wall_valves)
        assert not any(kernel.meter_readings(open_valves).values())

    def test_incomplete_wall_does_not_separate(self, tiny):
        g = junction_graph(tiny)
        nodes = [Junction(r, 1) for r in range(3)]  # stops one short
        wall_valves = {g.edges[u, w]["valve"] for u, w in zip(nodes, nodes[1:])}
        readings = ReachabilityKernel(tiny).meter_readings(
            frozenset(tiny.valve_set - wall_valves)
        )
        assert any(readings.values())

"""Direct flow-path generation and max-flow routing."""

import pytest

from repro.core.coverage import sa0_observable_valves
from repro.core.paths import (
    FlowPathGenerator,
    build_flow_path_problem,
    channel_region_caps,
    cover_path_valves,
)
from repro.core.routing import (
    RoutingError,
    contracted_cell_graph,
    disjoint_route_through,
    expand_contracted_route,
    route_valves,
    shortest_route,
)
from repro.core.validate import validate_vector
from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.geometry import Cell, edge_between
from repro.fpva.graph import cell_graph
from repro.ilp import SolveOptions
from repro.sim import ReachabilityKernel

OPTS = SolveOptions(time_limit=90)


class TestDirectGeneration:
    def test_tiny_full_coverage(self, tiny):
        result = FlowPathGenerator(tiny, OPTS).generate()
        covered = set()
        for vec in result.vectors:
            covered |= vec.open_valves
        assert covered == set(tiny.valves)
        assert result.proven_optimal

    def test_vectors_valid(self, tiny):
        result = FlowPathGenerator(tiny, OPTS).generate()
        for vec in result.vectors:
            report = validate_vector(tiny, vec)
            assert report.ok, report.issues

    def test_channel_array(self, table5):
        result = FlowPathGenerator(table5, OPTS).generate()
        covered = set()
        kernel = ReachabilityKernel(table5)
        for vec in result.vectors:
            covered |= sa0_observable_valves(kernel, vec)
        assert covered == set(table5.valves)

    def test_obstacle_array(self, obstacle_array):
        result = FlowPathGenerator(obstacle_array, OPTS).generate()
        covered = set()
        for vec in result.vectors:
            covered |= vec.open_valves
        assert covered == set(obstacle_array.valves)

    def test_problem_shape(self, table5):
        prob = build_flow_path_problem(table5)
        assert len(prob.cover_edges) == table5.valve_count
        assert len(prob.closure_edges) == len(table5.channels)
        assert len(prob.region_caps) == 1

    def test_region_caps_boundary(self, table5):
        g = cell_graph(table5)
        caps = channel_region_caps(table5, g)
        (boundary, cap), = caps
        assert cap == 2
        # The single channel edge joins two interior cells: each has three
        # more openings -> boundary of 6 edges.
        assert len(boundary) == 6


class TestRouting:
    def test_route_through_every_valve(self, tiny):
        for valve in tiny.valves:
            route = disjoint_route_through(tiny, valve)
            assert valve in route_valves(tiny, route)
            assert len(set(route)) == len(route)  # simple

    def test_avoid_valve_respected(self, small):
        target = edge_between(Cell(2, 2), Cell(2, 3))
        avoid = edge_between(Cell(2, 1), Cell(2, 2))
        route = disjoint_route_through(small, target, avoid_valves=[avoid])
        assert avoid not in route_valves(small, route)
        assert target in route_valves(small, route)

    def test_required_equals_avoided_rejected(self, tiny):
        valve = tiny.valves[0]
        with pytest.raises(RoutingError):
            disjoint_route_through(tiny, valve, avoid_valves=[valve])

    def test_impossible_route(self):
        # 1x3 strip: the middle valve cannot be avoided when routing
        # through the last one.
        fpva = (
            FPVABuilder(1, 3)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 1)
            .build()
        )
        first = edge_between(Cell(1, 1), Cell(1, 2))
        second = edge_between(Cell(1, 2), Cell(1, 3))
        with pytest.raises(RoutingError):
            disjoint_route_through(fpva, second, avoid_valves=[first])

    def test_route_through_channel_region(self, table5):
        """Routes crossing the channel expand through its cells."""
        # Valve just east of the channel (channel spans (3,2)-(3,3)).
        valve = edge_between(Cell(3, 3), Cell(3, 4))
        route = disjoint_route_through(table5, valve)
        assert valve in route_valves(table5, route)
        # Cells must be consecutive-adjacent throughout.
        cells = [n for n in route if isinstance(n, Cell)]
        for a, b in zip(cells, cells[1:]):
            assert abs(a.r - b.r) + abs(a.c - b.c) == 1

    def test_shortest_route(self, tiny):
        route = shortest_route(tiny)
        assert route[0] in tiny.sources and route[-1] in tiny.sinks

    def test_contracted_graph_regions(self, table5):
        g = contracted_cell_graph(table5)
        regions = g.graph["regions"]
        assert len(regions) == 1
        (members,) = regions.values()
        assert len(members) == 2  # a length-1 channel joins two cells

    def test_route_valves_skips_channels(self, table5):
        # A route that walks along the channel contributes no channel
        # "valves".
        channel_edge = next(iter(table5.channels))
        route = [channel_edge.a, channel_edge.b]
        assert route_valves(table5, route) == []

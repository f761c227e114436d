"""Focused unit tests for smaller surfaces: ports, builder, status, walls."""

import pytest

from repro.core.cutsets import CutSetGenerator
from repro.core.heuristic import GreedyPathGenerator
from repro.core.routing import contracted_cell_graph, expand_contracted_route
from repro.fpva import FPVABuilder, LayoutError, Side, full_layout
from repro.fpva.geometry import Cell, Junction, edge_between
from repro.fpva.ports import Port, PortKind, sink, source
from repro.ilp import Model, SolveStatus, solve
from repro.ilp.status import Solution


class TestPorts:
    def test_constructors(self):
        s = source(Side.WEST, 2)
        m = sink(Side.EAST, 3, "o1")
        assert s.is_source and not s.is_sink
        assert m.is_sink and m.name == "o1"

    def test_cells_and_gaps(self):
        s = source(Side.WEST, 2)
        assert s.cell(5, 5) == Cell(2, 1)
        g1, g2 = s.gap(5, 5)
        assert g1 == Junction(1, 0) and g2 == Junction(2, 0)

    def test_names_unique_by_default(self):
        assert source(Side.WEST, 1).name != source(Side.WEST, 2).name


class TestBuilder:
    def test_channel_direction_validation(self):
        with pytest.raises(LayoutError):
            FPVABuilder(3, 3).channel(Cell(1, 1), "diagonal", 1)
        with pytest.raises(LayoutError):
            FPVABuilder(3, 3).channel(Cell(1, 1), "east", 0)

    def test_obstacle_rect_validation(self):
        with pytest.raises(LayoutError):
            FPVABuilder(5, 5).obstacle_rect(3, 3, 2, 2)

    def test_westward_channel(self):
        fpva = (
            FPVABuilder(3, 3)
            .channel(Cell(2, 3), "west", 2)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 3)
            .build()
        )
        assert edge_between(Cell(2, 1), Cell(2, 2)) in fpva.channels
        assert edge_between(Cell(2, 2), Cell(2, 3)) in fpva.channels


class TestSolutionObject:
    def test_int_value_rounds(self):
        m = Model()
        x = m.integer_var(ub=5)
        m.add_constraint(x >= 2)
        m.minimize(x)
        sol = solve(m)
        assert sol.int_value(x) == 2
        assert isinstance(sol.int_value(x), int)

    def test_no_solution_check_false(self):
        m = Model()
        x = m.binary_var()
        sol = Solution(status=SolveStatus.INFEASIBLE)
        assert not sol.has_solution
        assert not sol.check(m)


class TestContractedRouting:
    def test_expand_plain_route(self, tiny):
        g = contracted_cell_graph(tiny)
        src, snk = tiny.sources[0], tiny.sinks[0]
        route = [src, Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 2), Cell(3, 3), snk]
        out = expand_contracted_route(tiny, g, route)
        assert out == route  # no regions: identity

    def test_contraction_merges_channel_cells(self, table5):
        g = contracted_cell_graph(table5)
        channel = next(iter(table5.channels))
        node_map = g.graph["node_map"]
        assert node_map[channel.a] == node_map[channel.b]
        assert node_map[channel.a] not in list(table5.cells())


class TestWallInternals:
    def test_port_seal_boxes_the_port_cell(self, tiny):
        gen = CutSetGenerator(tiny, strategy="sweep")
        seal = gen._port_seal(tiny.sinks[0])
        # Sealing the sink corner cell (3,3) needs its two valves.
        assert seal == {
            edge_between(Cell(2, 3), Cell(3, 3)),
            edge_between(Cell(3, 2), Cell(3, 3)),
        }
        open_valves = frozenset(tiny.valve_set - seal)
        assert not any(gen.kernel.meter_readings(open_valves).values())

    def test_wall_vector_expectations_all_dark(self, obstacle_array):
        gen = CutSetGenerator(obstacle_array, strategy="sweep")
        result = gen.generate()
        assert not result.uncovered
        for vec in result.vectors:
            assert not any(vec.expected.values())


class TestGreedyWalker:
    def test_walks_are_simple_paths(self, small):
        gen = GreedyPathGenerator(small, seed=3)
        for _ in range(5):
            walk = gen.walk_once(lambda e: 1.0)
            assert walk is not None
            assert len(set(walk)) == len(walk)
            assert walk[0] in small.sources and walk[-1] in small.sinks

    def test_channel_region_never_reentered(self, table5):
        gen = GreedyPathGenerator(table5, seed=5)
        component = table5.channel_components[0]
        for _ in range(10):
            walk = gen.walk_once(lambda e: 1.0)
            if walk is None:
                continue
            # Cells of the channel region must appear as one contiguous run.
            flags = [n in component for n in walk]
            runs = sum(
                1 for i, f in enumerate(flags) if f and (i == 0 or not flags[i - 1])
            )
            assert runs <= 1

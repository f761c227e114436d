"""Dynamic mixers, transport routes and the control-layer model."""

import pytest

from repro.fpva import (
    DynamicMixer,
    FPVABuilder,
    LayoutError,
    Side,
    ValveState,
    full_layout,
    transport_route,
)
from repro.fpva.control import (
    control_adjacent_pairs,
    neighbors_of,
    valves_by_junction,
)
from repro.fpva.geometry import Cell, edge_between
from repro.sim import ReachabilityKernel


def _pressurized_cells(fpva, open_valves):
    """The fluid cells source pressure reaches (ports left out)."""
    nodes = ReachabilityKernel(fpva).pressurized_nodes(open_valves)
    return {node for node in nodes if isinstance(node, Cell)}


@pytest.fixture(scope="module")
def board():
    return full_layout(8, 8, name="device-board")


class TestDynamicMixer:
    def test_4x2_has_eight_pump_valves(self, board):
        mixer = DynamicMixer(Cell(2, 2), height=4, width=2)
        assert len(mixer.ring_cells) == 8
        assert len(mixer.ring_valves) == 8
        assert len(mixer.pump_valves) == 8

    def test_2x4_matches_fig2c(self, board):
        mixer = DynamicMixer(Cell(2, 2), height=2, width=4)
        assert len(mixer.ring_valves) == 8
        mixer.validate(board)

    def test_ring_is_a_cycle(self, board):
        mixer = DynamicMixer(Cell(3, 3), height=3, width=4)
        ring = mixer.ring_cells
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert abs(a.r - b.r) + abs(a.c - b.c) == 1

    def test_interior_cells(self):
        mixer = DynamicMixer(Cell(1, 1), height=3, width=3)
        assert mixer.interior_cells == {Cell(2, 2)}

    def test_configuration_opens_ring_closes_walls(self, board):
        mixer = DynamicMixer(Cell(2, 2), height=4, width=2)
        config = mixer.configuration(board)
        for valve in mixer.ring_valves:
            assert config[valve] is ValveState.OPEN
        for guard in mixer.guard_valves(board):
            assert config[guard] is ValveState.CLOSED

    def test_mixer_region_isolated(self, board):
        """With the mixer configured, no pressure can leave the ring."""
        mixer = DynamicMixer(Cell(2, 2), height=4, width=2)
        config = mixer.configuration(board)
        opened = {v for v, s in config.items() if s is ValveState.OPEN}
        # Open the mixer ring plus everything far away; the ring's guards
        # stay closed: source pressure must not reach any ring cell.
        other_open = {
            v
            for v in board.valves
            if v not in config or config[v] is ValveState.OPEN
        }
        pressurized = _pressurized_cells(board, frozenset(other_open))
        assert not (pressurized & set(mixer.ring_cells))

    def test_pump_phases_rotate(self):
        mixer = DynamicMixer(Cell(1, 1), height=4, width=2)
        phases = mixer.pump_phases(plug_width=2)
        assert len(phases) == 8
        for phase in phases:
            closed = [v for v, s in phase.items() if s is ValveState.CLOSED]
            assert len(closed) == 2

    def test_overlap_detection(self):
        a = DynamicMixer(Cell(2, 2), height=4, width=2)
        b = DynamicMixer(Cell(2, 2), height=2, width=4)  # Fig 2(d)
        c = DynamicMixer(Cell(6, 6), height=2, width=2)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_out_of_bounds_rejected(self, board):
        mixer = DynamicMixer(Cell(7, 7), height=4, width=2)
        with pytest.raises(LayoutError):
            mixer.validate(board)

    def test_obstacle_overlap_rejected(self):
        fpva = (
            FPVABuilder(6, 6)
            .obstacle(3, 3)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 6)
            .build()
        )
        mixer = DynamicMixer(Cell(2, 2), height=4, width=2)
        with pytest.raises(LayoutError):
            mixer.validate(fpva)

    def test_too_small_rejected(self):
        with pytest.raises(LayoutError):
            DynamicMixer(Cell(1, 1), height=1, width=4)


class TestTransportRoute:
    def test_route_configuration(self, board):
        cells = [Cell(4, c) for c in range(1, 6)]
        config = transport_route(board, cells)
        for a, b in zip(cells, cells[1:]):
            assert config[edge_between(a, b)] is ValveState.OPEN
        closed = [v for v, s in config.items() if s is ValveState.CLOSED]
        assert closed  # side valves sealed

    def test_route_carries_pressure_only_along_route(self, board):
        cells = [Cell(1, c) for c in range(1, 9)]  # row 1: source to corner
        config = transport_route(board, cells)
        opened = {v for v, s in config.items() if s is ValveState.OPEN}
        pressurized = _pressurized_cells(board, frozenset(opened))
        assert set(cells) <= pressurized
        assert len(pressurized) == len(cells)

    def test_short_route_rejected(self, board):
        with pytest.raises(LayoutError):
            transport_route(board, [Cell(1, 1)])


class TestControlLayer:
    def test_pairs_share_a_junction(self, tiny):
        for pair in control_adjacent_pairs(tiny):
            a, b = tuple(pair)
            assert set(a.dual()) & set(b.dual())

    def test_neighbors_symmetric(self, tiny):
        for valve in tiny.valves:
            for nb in neighbors_of(tiny, valve):
                assert valve in neighbors_of(tiny, nb)

    def test_junction_map_complete(self, tiny):
        by_junction = valves_by_junction(tiny)
        listed = {v for valves in by_junction.values() for v in valves}
        assert listed == set(tiny.valves)

    def test_channels_have_no_control_lines(self, table5):
        pairs = control_adjacent_pairs(table5)
        channel = next(iter(table5.channels))
        assert not any(channel in pair for pair in pairs)

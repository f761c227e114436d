"""Fault-free pressure queries on the compiled kernel: unit and property
tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpva import full_layout
from repro.fpva.geometry import Cell, edge_between
from repro.sim import ReachabilityKernel


class TestReadings:
    def test_all_open_reaches_sink(self, tiny):
        kernel = ReachabilityKernel(tiny)
        readings = kernel.meter_readings(frozenset(tiny.valves))
        assert all(readings.values())

    def test_all_closed_dark(self, tiny):
        kernel = ReachabilityKernel(tiny)
        assert not any(kernel.meter_readings(frozenset()).values())

    def test_single_path(self, tiny):
        # Source at (1,1) corner, sink at (3,3): open an L route.
        route = [Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 2), Cell(3, 3)]
        opened = frozenset(
            edge_between(a, b) for a, b in zip(route, route[1:])
        )
        kernel = ReachabilityKernel(tiny)
        assert all(kernel.meter_readings(opened).values())
        # Removing any single edge kills the route.
        for valve in opened:
            assert not any(kernel.meter_readings(opened - {valve}).values())

    def test_channels_always_open(self, table5):
        nodes = ReachabilityKernel(table5).pressurized_nodes(frozenset())
        # The channel neighbours of the source cell are dark (channel is
        # not adjacent to the source here), but port cell is pressurized.
        assert table5.port_cell(table5.sources[0]) in nodes

    def test_two_sinks_independent(self, two_sink_array):
        fpva = two_sink_array
        kernel = ReachabilityKernel(fpva)
        # Straight route to o1 at (2,4) only.
        route = [Cell(1, 1), Cell(2, 1), Cell(2, 2), Cell(2, 3), Cell(2, 4)]
        opened = frozenset(edge_between(a, b) for a, b in zip(route, route[1:]))
        readings = kernel.meter_readings(opened)
        assert readings["o1"] and not readings["o2"]


class TestMonotonicity:
    """Opening more valves can only extend the pressurized region."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_monotone(self, data):
        fpva = full_layout(4, 4)
        kernel = ReachabilityKernel(fpva)
        valves = list(fpva.valves)
        subset = data.draw(st.sets(st.sampled_from(valves), max_size=10))
        extra = data.draw(st.sampled_from(valves))
        small = kernel.pressurized_nodes(frozenset(subset))
        large = kernel.pressurized_nodes(frozenset(subset | {extra}))
        assert small <= large

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_readings_monotone(self, data):
        fpva = full_layout(4, 4)
        kernel = ReachabilityKernel(fpva)
        valves = list(fpva.valves)
        subset = data.draw(st.sets(st.sampled_from(valves), max_size=12))
        readings_small = kernel.meter_readings(frozenset(subset))
        readings_all = kernel.meter_readings(frozenset(valves))
        for name, hit in readings_small.items():
            assert not hit or readings_all[name]

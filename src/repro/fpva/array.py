"""The FPVA chip model: dimensions, obstacles, channels and ports."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.fpva.components import EdgeKind
from repro.fpva.geometry import (
    Cell,
    Edge,
    Side,
    cells_adjacent,
    in_bounds,
    iter_cells,
    iter_interior_edges,
    neighbors4,
)
from repro.fpva.ports import Port, PortKind


class LayoutError(ValueError):
    """Raised for physically impossible or inconsistent array descriptions."""


class FPVA:
    """A fully programmable valve array.

    Parameters mirror the paper's problem formulation (section II):

    * ``nr`` x ``nc`` — the cell-grid dimensions;
    * ``obstacles`` — cells with no flow structure ("conceptually always
      closed"); every edge touching an obstacle cell is absent;
    * ``channels`` — edges where no valve is built ("conceptually always
      open"): permanent transport channels;
    * ``ports`` — pressure sources and pressure meters on the boundary.

    The object is immutable after construction and validates itself.
    """

    def __init__(
        self,
        nr: int,
        nc: int,
        obstacles: Iterable[Cell] = (),
        channels: Iterable[Edge] = (),
        ports: Sequence[Port] = (),
        name: str = "",
    ):
        if nr < 1 or nc < 1:
            raise LayoutError(f"array dimensions must be positive, got {nr}x{nc}")
        self.nr = nr
        self.nc = nc
        self.obstacles = frozenset(Cell(*o) for o in obstacles)
        self.channels = frozenset(Edge(Cell(*e[0]), Cell(*e[1])) for e in channels)
        self.ports = tuple(ports)
        self.name = name or f"fpva-{nr}x{nc}"
        self._validate()

    # -- validation --------------------------------------------------------
    def _validate(self) -> None:
        for cell in self.obstacles:
            if not in_bounds(cell, self.nr, self.nc):
                raise LayoutError(f"obstacle {cell} outside {self.nr}x{self.nc} array")
        for edge in self.channels:
            if not cells_adjacent(edge.a, edge.b):
                raise LayoutError(f"channel edge {edge} endpoints not adjacent")
            for cell in edge.cells:
                if not in_bounds(cell, self.nr, self.nc):
                    raise LayoutError(f"channel edge {edge} outside the array")
                if cell in self.obstacles:
                    raise LayoutError(
                        f"channel edge {edge} touches obstacle cell {cell}"
                    )
        names = [p.name for p in self.ports]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate port names in {names}")
        occupied: set[tuple[Side, int]] = set()
        for port in self.ports:
            cell = port.cell(self.nr, self.nc)  # raises if off-side
            if cell in self.obstacles:
                raise LayoutError(f"port {port.name} opens into obstacle {cell}")
            key = (port.side, port.index)
            if key in occupied:
                raise LayoutError(f"two ports share boundary position {key}")
            occupied.add(key)
        if not any(p.is_source for p in self.ports):
            raise LayoutError("array has no pressure source port")
        if not any(p.is_sink for p in self.ports):
            raise LayoutError("array has no pressure-meter (sink) port")
        self._validate_no_shorted_valves()

    def _validate_no_shorted_valves(self) -> None:
        """Reject valves whose both end cells share one channel component.

        Such a valve is permanently bypassed by the always-open channel
        around it: neither opening nor closing it can ever change any
        pressure reading, so it is untestable by construction.  Layouts
        containing one are almost certainly mistakes (a channel looping back
        on itself).
        """
        for component in self.channel_components:
            for edge in self.flow_edges:
                if edge in self.channels:
                    continue
                if edge.a in component and edge.b in component:
                    raise LayoutError(
                        f"valve {edge} is shorted by the always-open channel "
                        f"region around it and can never be tested"
                    )

    # -- cells ---------------------------------------------------------------
    def is_cell(self, cell: Cell) -> bool:
        """True if ``cell`` is in bounds and not an obstacle."""
        return in_bounds(cell, self.nr, self.nc) and cell not in self.obstacles

    def cells(self) -> Iterator[Cell]:
        """All fluid cells (obstacles excluded)."""
        for cell in iter_cells(self.nr, self.nc):
            if cell not in self.obstacles:
                yield cell

    @cached_property
    def cell_count(self) -> int:
        return self.nr * self.nc - len(self.obstacles)

    # -- edges ---------------------------------------------------------------
    @cached_property
    def flow_edges(self) -> tuple[Edge, ...]:
        """All fluidic edges: valves plus channel segments (sorted)."""
        edges = [
            e
            for e in iter_interior_edges(self.nr, self.nc)
            if self.is_cell(e.a) and self.is_cell(e.b)
        ]
        return tuple(sorted(edges))

    @cached_property
    def valves(self) -> tuple[Edge, ...]:
        """The testable valves: flow edges that are not permanent channels."""
        return tuple(e for e in self.flow_edges if e not in self.channels)

    @cached_property
    def valve_set(self) -> frozenset[Edge]:
        return frozenset(self.valves)

    @cached_property
    def valve_count(self) -> int:
        return len(self.valves)

    def edge_kind(self, edge: Edge) -> EdgeKind:
        if edge in self.channels:
            return EdgeKind.CHANNEL
        if edge in self.valve_set:
            return EdgeKind.VALVE
        raise LayoutError(f"{edge} is not a flow edge of this array")

    def edges_at(self, cell: Cell) -> list[Edge]:
        """Flow edges incident to ``cell``."""
        out = []
        for nb in neighbors4(cell):
            if self.is_cell(nb) and self.is_cell(cell):
                edge = Edge(min(cell, nb), max(cell, nb))
                if edge in self._flow_edge_set:
                    out.append(edge)
        return out

    @cached_property
    def _flow_edge_set(self) -> frozenset[Edge]:
        return frozenset(self.flow_edges)

    @cached_property
    def channel_components(self) -> tuple[frozenset[Cell], ...]:
        """Connected cell groups joined by permanent channels.

        All cells of a component are one pressure node: a transport channel
        is always open, so pressure anywhere in the component floods all of
        it.  Flow paths must treat a component as a single step (enter once,
        leave once), which the generators enforce with region-crossing caps.
        """
        parent: dict[Cell, Cell] = {}

        def find(x: Cell) -> Cell:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.channels:
            for cell in edge.cells:
                parent.setdefault(cell, cell)
            ra, rb = find(edge.a), find(edge.b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[Cell, set[Cell]] = {}
        for cell in parent:
            groups.setdefault(find(cell), set()).add(cell)
        return tuple(frozenset(g) for g in groups.values())

    # -- ports -----------------------------------------------------------------
    @cached_property
    def sources(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.is_source)

    @cached_property
    def sinks(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.is_sink)

    def port_cell(self, port: Port) -> Cell:
        return port.cell(self.nr, self.nc)

    def port_by_name(self, name: str) -> Port:
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"no port named {name!r}")

    # -- summary -----------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"{self.name}: {self.nr}x{self.nc} cells, {self.valve_count} valves "
            f"({len(self.channels)} channel edges, {len(self.obstacles)} obstacle "
            f"cells), {len(self.sources)} source(s), {len(self.sinks)} sink(s)"
        )

    def __repr__(self):
        return f"FPVA({self.name!r}, {self.nr}x{self.nc}, {self.valve_count} valves)"

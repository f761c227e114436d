"""Graph views of an FPVA.

Two graphs drive everything in this reproduction:

* the **cell graph** — fluid cells plus port nodes; edges are valves,
  permanent channels and port openings.  Flow paths (and the pressure
  simulator) live here.
* the **junction (dual) graph** — valve-corner lattice points; each valve
  corresponds to one dual edge.  Cut-set *walls* are paths here
  (section III-C).  Dual edges across obstacle walls are free (weight 0,
  permanently sealed); dual edges across channels do not exist (a channel
  can never be closed, so no wall can cross it).

The sealed chip perimeter is split by the port gaps into **boundary arcs**
(Fig 7(d)): walking from the source gap in both directions until a sink gap
is reached yields the two junction sets a wall must connect to separate all
sources from all sinks.
"""

from __future__ import annotations

from typing import NamedTuple

import networkx as nx

from repro.fpva.array import FPVA
from repro.fpva.components import EdgeKind
from repro.fpva.geometry import (
    Cell,
    Junction,
    iter_interior_edges,
    perimeter_junction_cycle,
)


class UnsupportedTopologyError(ValueError):
    """Port arrangement outside the supported boundary-arc scheme."""


def cell_graph(fpva: FPVA) -> nx.Graph:
    """The cell graph: nodes are :class:`Cell` objects and :class:`Port`\\ s.

    Edge attributes: ``kind`` (:class:`EdgeKind`) and ``edge`` (the
    :class:`Edge`, for VALVE/CHANNEL edges) or ``port`` (for PORT edges).
    """
    g = nx.Graph()
    g.add_nodes_from(fpva.cells())
    for edge in fpva.flow_edges:
        kind = EdgeKind.CHANNEL if edge in fpva.channels else EdgeKind.VALVE
        g.add_edge(edge.a, edge.b, kind=kind, edge=edge)
    for port in fpva.ports:
        g.add_node(port)
        g.add_edge(port, fpva.port_cell(port), kind=EdgeKind.PORT, port=port)
    return g


def junction_graph(fpva: FPVA) -> nx.Graph:
    """The dual lattice used for cut-set walls.

    Edge attributes: ``valve`` (the :class:`Edge` crossed, or None for
    permanently sealed segments along obstacles) and ``weight`` (1 for valve
    segments, 0 for free segments).  Channel segments are omitted entirely —
    a wall cannot cross an always-open channel.
    """
    g = nx.Graph()
    nr, nc = fpva.nr, fpva.nc
    for edge in iter_interior_edges(nr, nc):
        u, w = edge.dual()
        a_fluid = fpva.is_cell(edge.a)
        b_fluid = fpva.is_cell(edge.b)
        if a_fluid and b_fluid:
            if edge in fpva.channels:
                continue  # channels can never be closed: no wall may cross
            g.add_edge(u, w, valve=edge, weight=1)
        else:
            # At least one side is an obstacle: permanently sealed segment.
            g.add_edge(u, w, valve=None, weight=0)
    return g


class BoundaryArcs(NamedTuple):
    """The two boundary-junction arcs of Fig 7(d).

    ``start_arc`` is reached walking clockwise from the source gap,
    ``end_arc`` counter-clockwise; both walks stop at the first sink gap.
    A wall (cut-set) must run from a junction in one arc to a junction in
    the other.
    """

    start_arc: tuple[Junction, ...]
    end_arc: tuple[Junction, ...]


def _gap_indices(
    cycle: list[Junction], gap: tuple[Junction, Junction]
) -> tuple[int, int]:
    """Positions of a gap's junctions as consecutive indices in the cycle."""
    n = len(cycle)
    pos = {j: i for i, j in enumerate(cycle)}
    i, k = pos[gap[0]], pos[gap[1]]
    if (i + 1) % n == k:
        return i, k
    if (k + 1) % n == i:
        return k, i
    raise ValueError(f"gap {gap} is not a perimeter segment")


def boundary_arcs(fpva: FPVA) -> BoundaryArcs:
    """Split the sealed perimeter into the two arcs of Fig 7(d).

    Supported topology: all source gaps contiguous along the boundary (no
    sink gap interleaved between sources).  Raises
    :class:`UnsupportedTopologyError` otherwise.
    """
    cycle = perimeter_junction_cycle(fpva.nr, fpva.nc)
    n = len(cycle)

    sink_gap_members: set[Junction] = set()
    for port in fpva.sinks:
        sink_gap_members.update(port.gap(fpva.nr, fpva.nc))
    source_gaps = [p.gap(fpva.nr, fpva.nc) for p in fpva.sources]
    source_gap_members = {j for gap in source_gaps for j in gap}
    if sink_gap_members & source_gap_members:
        raise UnsupportedTopologyError(
            "a source and a sink share a perimeter junction; move the ports apart"
        )

    # Walk clockwise from the source gap's clockwise end.
    first_gap = source_gaps[0]
    lo, hi = _gap_indices(cycle, first_gap)

    def walk(start: int, step: int) -> tuple[Junction, ...]:
        arc: list[Junction] = []
        idx = start
        first = True
        for _ in range(n):
            j = cycle[idx]
            if j in source_gap_members and not first:
                # Another source gap: skip past it (sources must be
                # contiguous for the two-arc scheme to separate them all).
                idx = (idx + step) % n
                continue
            # The walk's very first junction is this gap's own endpoint on
            # our side; it belongs to the arc (a wall may terminate right
            # at the edge of the port opening).
            first = False
            arc.append(j)
            if j in sink_gap_members:
                return tuple(arc)
            idx = (idx + step) % n
        raise UnsupportedTopologyError("no sink gap found walking the perimeter")

    start_arc = walk(hi, +1)
    end_arc = walk(lo, -1)

    # The two arcs must not overlap except possibly at a shared terminal
    # when there is a single sink adjacent to the source.
    overlap = set(start_arc) & set(end_arc)
    if overlap and len(fpva.sinks) == 1 and len(overlap) < min(len(start_arc), len(end_arc)):
        pass  # tiny chips: arcs may meet at the single sink gap's ends
    return BoundaryArcs(start_arc=start_arc, end_arc=end_arc)

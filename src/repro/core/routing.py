"""Graph-search routing utilities shared by several generators.

These are not part of the paper's ILP formulation; they provide the
constructive fallbacks and baselines around it:

* :func:`disjoint_route_through` — a simple source→sink path forced through
  one given valve (used by the naive per-valve baseline, by targeted
  control-leakage vectors, and as mop-up in hierarchical generation);
* :func:`contracted_cell_graph` — the cell graph with always-open channel
  regions contracted to single pressure nodes, so graph-theoretic simple
  paths are also *physically* simple (a region can never short two distant
  path segments together);
* :func:`route_valves` / :func:`shortest_route` — small conversions.

Node-disjointness is computed by max-flow on a node-split digraph, so the
returned route is always a simple path (the paper's no-branch/no-loop
requirement for flow paths).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.fpva.array import FPVA
from repro.fpva.geometry import Cell, Edge
from repro.fpva.graph import cell_graph
from repro.fpva.ports import Port


class RoutingError(RuntimeError):
    """No route satisfying the requested constraints exists."""


RegionNode = tuple  # ("region", i)


def contracted_cell_graph(
    fpva: FPVA, avoid_valves: Iterable[Edge] = ()
) -> nx.Graph:
    """The cell graph with each always-open channel region contracted.

    Nodes are cells, ports and ``("region", i)`` super-nodes.  Each edge
    carries ``members``: the original ``(endpoint_u_side, endpoint_v_side)``
    pairs it stands for (several valves may join the same node pair after
    contraction).  The graph also carries ``regions`` (super-node → member
    cells) and ``node_map`` (cell → representative node) in ``g.graph``.
    """
    node_map: dict = {}
    region_cells: dict[RegionNode, frozenset[Cell]] = {}
    for i, component in enumerate(fpva.channel_components):
        rep: RegionNode = ("region", i)
        region_cells[rep] = component
        for cell in component:
            node_map[cell] = rep

    avoid = set(avoid_valves)
    g = nx.Graph()
    for cell in fpva.cells():
        g.add_node(node_map.get(cell, cell))
    for edge in fpva.flow_edges:
        if edge in fpva.channels or edge in avoid:
            continue
        u = node_map.get(edge.a, edge.a)
        v = node_map.get(edge.b, edge.b)
        if u == v:
            continue  # shorted valve (rejected by FPVA validation anyway)
        if g.has_edge(u, v):
            g.edges[u, v]["members"].append((edge.a, edge.b))
        else:
            g.add_edge(u, v, members=[(edge.a, edge.b)])
    for port in fpva.ports:
        cell = fpva.port_cell(port)
        u = node_map.get(cell, cell)
        g.add_node(port)
        g.add_edge(port, u, members=[(port, cell)])
    g.graph["regions"] = region_cells
    g.graph["node_map"] = node_map
    return g


def _channel_walk(fpva: FPVA, members: frozenset[Cell], enter: Cell, leave: Cell) -> list[Cell]:
    """Cells from ``enter`` to ``leave`` inside one channel region."""
    if enter == leave:
        return [enter]
    adj: dict[Cell, list[Cell]] = {}
    for edge in fpva.channels:
        if edge.a in members and edge.b in members:
            adj.setdefault(edge.a, []).append(edge.b)
            adj.setdefault(edge.b, []).append(edge.a)
    prev: dict[Cell, Cell | None] = {enter: None}
    queue = deque([enter])
    while queue:
        cur = queue.popleft()
        if cur == leave:
            break
        for nb in adj.get(cur, ()):
            if nb not in prev:
                prev[nb] = cur
                queue.append(nb)
    if leave not in prev:
        raise RoutingError("channel region is not internally connected")
    seq = [leave]
    while prev[seq[-1]] is not None:
        seq.append(prev[seq[-1]])  # type: ignore[arg-type]
    return list(reversed(seq))


def expand_contracted_route(
    fpva: FPVA,
    g: nx.Graph,
    route: Sequence[Hashable],
    pinned: dict[frozenset, tuple] | None = None,
) -> list[Hashable]:
    """Turn a route over contracted nodes into a concrete cell sequence.

    ``pinned`` maps a contracted node pair (frozenset) to the concrete
    original pair that must realize that hop (used to force the required
    valve).  Region super-nodes are expanded to channel walks between the
    arrival and departure cells.
    """
    pinned = pinned or {}
    regions: dict = g.graph["regions"]

    def side_cell(contracted: Hashable, original_pair: tuple, toward: Hashable):
        """Pick the element of ``original_pair`` that lies in ``toward``."""
        for item in original_pair:
            if item == toward:
                return item
            members = regions.get(toward)
            if members is not None and item in members:
                return item
        raise RoutingError("hop endpoints do not match contracted nodes")

    # For each hop, the concrete (depart_cell, arrive_cell) pair.
    hops: list[tuple] = []
    for u, v in zip(route, route[1:]):
        pair = pinned.get(frozenset((u, v)))
        if pair is None:
            pair = tuple(g.edges[u, v]["members"][0])
        hops.append((side_cell(u, pair, u), side_cell(v, pair, v)))

    out: list[Hashable] = []
    for i, node in enumerate(route):
        arrive = hops[i - 1][1] if i > 0 else None
        depart = hops[i][0] if i < len(hops) else None
        if node in regions:
            walk = _channel_walk(
                fpva, regions[node], arrive if arrive is not None else depart,
                depart if depart is not None else arrive,
            )
            if out and out[-1] == walk[0]:
                out.extend(walk[1:])
            else:
                out.extend(walk)
        else:
            concrete = arrive if arrive is not None else depart
            if not out or out[-1] != concrete:
                out.append(concrete)
    return out


def _split_digraph(g: nx.Graph) -> nx.DiGraph:
    """Node-split transformation: vertex capacities 1 for disjointness."""
    d = nx.DiGraph()
    for n in g.nodes:
        d.add_edge((n, "in"), (n, "out"), capacity=1)
    for u, v in g.edges:
        d.add_edge((u, "out"), (v, "in"), capacity=1)
        d.add_edge((v, "out"), (u, "in"), capacity=1)
    return d


def disjoint_route_through(
    fpva: FPVA, valve: Edge, avoid_valves: Iterable[Edge] = ()
) -> list[Hashable]:
    """A simple path source-port → sink-port using ``valve``.

    Returns the node sequence ``[source_port, cells..., sink_port]`` whose
    consecutive pairs include ``valve``'s cell pair.  Valves listed in
    ``avoid_valves`` are excluded from the route.  Channel regions are
    contracted during the search, so the result is physically simple.
    Raises :class:`RoutingError` when impossible.
    """
    avoid = set(avoid_valves)
    if valve in avoid:
        raise RoutingError(f"valve {valve} is both required and avoided")
    g = contracted_cell_graph(fpva, avoid_valves=avoid)
    node_map: dict = g.graph["node_map"]
    ma = node_map.get(valve.a, valve.a)
    mb = node_map.get(valve.b, valve.b)
    if ma == mb:
        raise RoutingError(f"valve {valve} is shorted by a channel region")

    d = _split_digraph(g)
    # Two node-disjoint legs: one from a source port and one from a sink
    # port, each landing on one end of the required valve.  The capacity-1
    # hubs force exactly one leg per port kind.
    d.add_edge("S*", "SRC*", capacity=1)
    d.add_edge("S*", "SNK*", capacity=1)
    for port in fpva.ports:
        hub = "SRC*" if port.is_source else "SNK*"
        d.add_edge(hub, (port, "in"), capacity=1)
    d.add_edge((ma, "out"), "T*", capacity=1)
    d.add_edge((mb, "out"), "T*", capacity=1)
    # The legs must not cross the required valve's own contracted edge.
    if d.has_edge((ma, "out"), (mb, "in")):
        d.remove_edge((ma, "out"), (mb, "in"))
        d.remove_edge((mb, "out"), (ma, "in"))

    flow_value, flow = nx.maximum_flow(d, "S*", "T*")
    if flow_value < 2:
        raise RoutingError(f"no simple port-to-port route through {valve}")

    legs = []
    for hub in ("SRC*", "SNK*"):
        first_hop = next((w for w, amt in flow[hub].items() if amt >= 1), None)
        if first_hop is None:
            continue
        leg = [first_hop[0]]
        node = first_hop
        for _ in range(g.number_of_nodes() + 1):
            node_out = (node[0], "out")
            nxt = next(
                (w for w, amt in flow[node_out].items() if amt >= 1), None
            )
            if nxt is None or nxt == "T*":
                break
            leg.append(nxt[0])
            node = nxt
        else:
            raise RoutingError(f"cyclic flow decomposition for {valve}")
        legs.append(leg)
    if len(legs) != 2:
        raise RoutingError(f"flow decomposition failed for {valve}")

    # Orient: the leg ending at ma comes first, the other is reversed.
    leg_a = next((l for l in legs if l[-1] == ma), None)
    leg_b = next((l for l in legs if l[-1] == mb), None)
    if leg_a is None or leg_b is None:
        raise RoutingError(f"flow legs do not end at {valve} endpoints")
    contracted_route = leg_a + list(reversed(leg_b))
    if isinstance(contracted_route[0], Port) and contracted_route[0].is_sink:
        contracted_route.reverse()
    if not (isinstance(contracted_route[0], Port) and contracted_route[0].is_source):
        raise RoutingError(f"route through {valve} does not start at a source")
    if not (isinstance(contracted_route[-1], Port) and contracted_route[-1].is_sink):
        raise RoutingError(f"route through {valve} does not end at a sink")

    pinned = {frozenset((ma, mb)): (valve.a, valve.b)}
    return expand_contracted_route(fpva, g, contracted_route, pinned)


def route_valves(fpva: FPVA, route: Sequence[Hashable]) -> list[Edge]:
    """The valves along a node route (ports and channel edges skipped)."""
    valves = []
    for u, v in zip(route, route[1:]):
        if isinstance(u, Port) or isinstance(v, Port):
            continue
        edge = Edge(min(u, v), max(u, v))
        if edge in fpva.valve_set:
            valves.append(edge)
    return valves


def shortest_route(fpva: FPVA, graph: nx.Graph | None = None) -> list[Hashable]:
    """Shortest source→sink route (used for sanity checks and examples)."""
    g = graph if graph is not None else cell_graph(fpva)
    best: list | None = None
    for s in fpva.sources:
        lengths, paths = nx.single_source_dijkstra(g, s)
        for t in fpva.sinks:
            if t in paths and (best is None or len(paths[t]) < len(best)):
                best = paths[t]
    if best is None:
        raise RoutingError("no source→sink route exists")
    return best

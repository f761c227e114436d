"""Coverage accounting: which faults does a vector actually exercise?

Coverage here is *observability-based*, not structural: a valve only counts
as stuck-at-0 covered by a vector if flipping that one valve closed changes
some meter reading, and stuck-at-1 covered if flipping it open does.  This
is exactly the single-fault detection condition, so the ledger cannot
over-report (the Fig 5(a) masking situation — a second source→sink
connection hiding a stuck-at-0 — is caught because the valve is then not a
bridge and flipping it changes nothing).

The checks are implemented with two graph tricks so large arrays stay fast:

* stuck-at-0: closing an open valve only matters if it is a *bridge* of the
  open-edge graph, so bridges are enumerated once per vector (Tarjan) and
  only those few candidates are re-simulated;
* stuck-at-1: opening a closed valve only matters if exactly one of its end
  cells is pressurized — only those candidates are re-simulated.

The candidate re-simulations themselves run **bit-parallel**: all of a
vector's SA0 closures (and SA1 leaks) are evaluated in one
:meth:`~repro.sim.kernel.ReachabilityKernel.batch_readings` call, 64
scenarios per machine word.  The one-query-at-a-time object-BFS checks
they replaced (per-candidate readings for SA0, a shared dark-region flood
for SA1) are the reference in ``tests/oracle.py`` that the batched path
is property-tested against.

Both observability functions take the same arguments —
``(source, vector, fpva=None)`` where ``source`` is an
:class:`~repro.context.ExecutionContext` or a
:class:`~repro.sim.pressure.PressureSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import networkx as nx

from repro.context import ExecutionContext
from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.control import iter_ordered_pairs
from repro.fpva.geometry import Cell, Edge
from repro.fpva.graph import cell_graph
from repro.fpva.ports import Port
from repro.sim.pressure import PressureSimulator


def open_edge_graph(fpva: FPVA, vector: TestVector) -> nx.Graph:
    """The physically open connections under a vector (fault-free)."""
    g = nx.Graph()
    g.add_nodes_from(fpva.cells())
    for edge in fpva.flow_edges:
        if edge in fpva.channels or edge in vector.open_valves:
            g.add_edge(edge.a, edge.b, edge=edge)
    for port in fpva.ports:
        g.add_edge(port, fpva.port_cell(port))
    return g


def _simulator(source: ExecutionContext | PressureSimulator) -> PressureSimulator:
    """The simulator behind an observability ``source``."""
    return source.simulator if isinstance(source, ExecutionContext) else source


def _sa0_candidates(fpva: FPVA, vector: TestVector) -> set[Edge]:
    """Open valves that are bridges of the live open-edge graph: closing
    any other open valve changes no reading."""
    g = open_edge_graph(fpva, vector)
    sources = [p for p in fpva.sources]
    live_nodes: set = set()
    for s in sources:
        live_nodes |= nx.node_connected_component(g, s)

    candidates: set[Edge] = set()
    live_graph = g.subgraph(live_nodes)
    for u, w in nx.bridges(live_graph):
        if isinstance(u, Port) or isinstance(w, Port):
            continue
        edge = Edge(min(u, w), max(u, w))
        if edge in vector.open_valves:
            candidates.add(edge)
    return candidates


def _sa1_candidates(
    sim: PressureSimulator, vector: TestVector, fpva: FPVA
) -> tuple[set[str], list[tuple[Edge, Cell]]]:
    """The vector's expected-dark meters, and the closed valves with
    exactly one pressurized end (paired with their dark end) — opening
    anything else changes no reading."""
    dark_sinks = {name for name, hit in vector.expected.items() if not hit}
    if not dark_sinks:
        return dark_sinks, []
    pressurized = sim.pressurized_nodes(vector.open_valves)
    candidates: list[tuple[Edge, Cell]] = []
    for valve in fpva.valves:
        if valve in vector.open_valves:
            continue
        a_live = valve.a in pressurized
        b_live = valve.b in pressurized
        if a_live == b_live:
            continue
        candidates.append((valve, valve.b if a_live else valve.a))
    return dark_sinks, candidates


def sa0_observable_valves(
    source: ExecutionContext | PressureSimulator,
    vector: TestVector,
    fpva: FPVA | None = None,
) -> set[Edge]:
    """Open valves whose lone closure changes the vector's meter readings."""
    sim = _simulator(source)
    fpva = sim.fpva if fpva is None else fpva
    candidates = _sa0_candidates(fpva, vector)
    if not candidates:
        return set()

    # All candidate closures of this vector in one bit-parallel batch.
    expected = dict(vector.expected)
    kernel = sim.kernel
    cand = sorted(candidates)
    rows = kernel.toggled_readings(
        kernel.valve_mask(vector.open_valves), cand, set_bit=False
    )
    names = kernel.sink_names
    return {
        valve
        for valve, row in zip(cand, rows)
        if {n: bool(b) for n, b in zip(names, row)} != expected
    }


def sa1_observable_valves(
    source: ExecutionContext | PressureSimulator,
    vector: TestVector,
    fpva: FPVA | None = None,
) -> set[Edge]:
    """Closed valves whose lone leak changes the vector's meter readings.

    Opening a valve can only *add* pressure, so a leak is observable exactly
    when it pressurizes a meter that expected no pressure.
    """
    sim = _simulator(source)
    fpva = sim.fpva if fpva is None else fpva
    dark_sinks, candidates = _sa1_candidates(sim, vector, fpva)
    if not candidates:
        return set()

    # All candidate leaks of this vector in one bit-parallel batch: the
    # leak is observable iff some expected-dark meter lights up.
    kernel = sim.kernel
    rows = kernel.toggled_readings(
        kernel.valve_mask(vector.open_valves),
        [valve for valve, _ in candidates],
        set_bit=True,
    )
    dark_cols = [
        j for j, name in enumerate(kernel.sink_names) if name in dark_sinks
    ]
    return {
        valve
        for (valve, _), row in zip(candidates, rows)
        if any(row[j] for j in dark_cols)
    }


def leak_covered_pairs(
    fpva: FPVA,
    simulator: PressureSimulator,
    vector: TestVector,
    candidate_pairs: Iterable[tuple[Edge, Edge]] | None = None,
    sa0_observable: set[Edge] | None = None,
) -> set[tuple[Edge, Edge]]:
    """Ordered pairs ``(aggressor, victim)`` this vector exercises.

    The vector covers the pair if the aggressor is commanded closed, the
    victim open, and the victim's forced closure (the leak's effect on a
    defective chip) changes a meter reading — i.e. the victim is SA0
    observable.
    """
    pairs = (
        candidate_pairs
        if candidate_pairs is not None
        else iter_ordered_pairs(fpva)
    )
    observable = (
        sa0_observable
        if sa0_observable is not None
        else sa0_observable_valves(simulator, vector, fpva)
    )
    return {
        (aggressor, victim)
        for aggressor, victim in pairs
        if victim in observable and aggressor not in vector.open_valves
    }


def leak_covered_unordered(
    fpva: FPVA,
    simulator: PressureSimulator,
    vector: TestVector,
    candidate_pairs: Iterable[frozenset],
    sa0_observable: set[Edge] | None = None,
) -> set[frozenset]:
    """Unordered leak pairs this vector exercises.

    The Fig 3(d) defect is symmetric (either pressurized line closes both
    valves), so one exercised direction detects the leak: some vector must
    hold one valve of the pair closed while the other is open on a live,
    observed path.
    """
    observable = (
        sa0_observable
        if sa0_observable is not None
        else sa0_observable_valves(simulator, vector, fpva)
    )
    out: set[frozenset] = set()
    for pair in candidate_pairs:
        a, b = tuple(pair)
        if (b in observable and a not in vector.open_valves) or (
            a in observable and b not in vector.open_valves
        ):
            out.add(pair)
    return out


@dataclass
class CoverageReport:
    """Full-suite coverage ledger."""

    sa0_covered: set[Edge] = field(default_factory=set)
    sa1_covered: set[Edge] = field(default_factory=set)
    leak_pairs_covered: set[frozenset] = field(default_factory=set)
    sa0_missing: set[Edge] = field(default_factory=set)
    sa1_missing: set[Edge] = field(default_factory=set)
    leak_pairs_missing: set[frozenset] = field(default_factory=set)

    @property
    def complete_stuck_at(self) -> bool:
        return not self.sa0_missing and not self.sa1_missing

    @property
    def complete(self) -> bool:
        return self.complete_stuck_at and not self.leak_pairs_missing

    def summary(self) -> str:
        return (
            f"SA0 {len(self.sa0_covered)} covered / {len(self.sa0_missing)} missing; "
            f"SA1 {len(self.sa1_covered)} covered / {len(self.sa1_missing)} missing; "
            f"leak pairs {len(self.leak_pairs_covered)} covered / "
            f"{len(self.leak_pairs_missing)} missing"
        )


def measure_coverage(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    include_leak_pairs: bool = True,
    context: ExecutionContext | None = None,
) -> CoverageReport:
    """Observability-based coverage of a suite over the array's fault list."""
    sim = ExecutionContext.resolve(context, fpva).simulator
    report = CoverageReport()
    all_pairs: set[frozenset] = set()
    if include_leak_pairs:
        from repro.fpva.control import control_adjacent_pairs
        from repro.sim.faults import untestable_leak_pairs

        all_pairs = set(control_adjacent_pairs(fpva)) - set(
            untestable_leak_pairs(fpva)
        )
    for vector in vectors:
        sa0 = sa0_observable_valves(sim, vector, fpva)
        report.sa0_covered |= sa0
        report.sa1_covered |= sa1_observable_valves(sim, vector, fpva)
        if include_leak_pairs:
            remaining = all_pairs - report.leak_pairs_covered
            report.leak_pairs_covered |= leak_covered_unordered(
                fpva, sim, vector, candidate_pairs=remaining, sa0_observable=sa0
            )
    valves = set(fpva.valves)
    report.sa0_missing = valves - report.sa0_covered
    report.sa1_missing = valves - report.sa1_covered
    if include_leak_pairs:
        report.leak_pairs_missing = all_pairs - report.leak_pairs_covered
    return report

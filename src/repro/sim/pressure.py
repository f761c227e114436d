"""Pressure propagation simulator.

The paper's test observation model is binary: air pressure applied at the
source ports either reaches a pressure meter or it does not, depending on
which valves are open.  That is graph reachability on the cell graph.

Queries are answered by the compiled
:class:`~repro.sim.kernel.ReachabilityKernel` (flat integer arrays, int
bitmask tests — no per-arc ``Edge`` hashing, no per-call dict rebuilds);
batch consumers grab :attr:`PressureSimulator.kernel` directly and
evaluate 64 scenarios per machine word.  The object-graph BFS the kernel
is differentially tested and benchmarked against is ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.fpva.array import FPVA
from repro.fpva.geometry import Cell, Edge
from repro.sim.kernel import ReachabilityKernel


class PressureSimulator:
    """Reachability-based pressure simulation for one array.

    The simulator is immutable and reusable: build once per array, call
    :meth:`meter_readings` per vector application.  A pre-compiled kernel
    may be supplied (campaign workers ship one per pool instead of
    re-deriving the graph per shard).
    """

    def __init__(self, fpva: FPVA, kernel: ReachabilityKernel | None = None):
        self.fpva = fpva
        if kernel is not None and kernel.fpva is not fpva:
            raise ValueError("kernel was compiled for a different array")
        self.kernel = kernel if kernel is not None else ReachabilityKernel(fpva)

    def meter_readings(
        self,
        open_valves: Iterable[Edge],
        blocked: frozenset[Edge] = frozenset(),
    ) -> dict[str, bool]:
        """Pressure reading at every sink port, keyed by port name."""
        kernel = self.kernel
        return kernel.readings(
            kernel.valve_mask(open_valves),
            kernel.edge_mask(blocked) if blocked else 0,
        )

    def pressurized_nodes(
        self,
        open_valves: Iterable[Edge],
        blocked: frozenset[Edge] = frozenset(),
    ) -> set:
        """All cell/port nodes reached by source pressure.

        ``blocked`` removes flow edges outright — a physically obstructed
        connection conducts no pressure regardless of valve state (the
        :class:`~repro.sim.faults.ChannelBlocked` scenario fault).
        """
        kernel = self.kernel
        seen = kernel.reach(
            kernel.valve_mask(open_valves),
            kernel.edge_mask(blocked) if blocked else 0,
        )
        nodes = kernel.nodes
        return {nodes[i] for i, hit in enumerate(seen) if hit}

    def cells_pressurized(self, open_valves: Iterable[Edge]) -> set[Cell]:
        """Only the pressurized fluid cells (ports filtered out)."""
        return {
            node
            for node in self.pressurized_nodes(open_valves)
            if isinstance(node, Cell)
        }

    def sink_separated(self, open_valves: Iterable[Edge]) -> bool:
        """True if no sink sees pressure (the cut-set expectation)."""
        return not any(self.meter_readings(open_valves).values())

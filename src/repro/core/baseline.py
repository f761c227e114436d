"""The paper's baseline: one valve exercised per vector.

Section IV compares against "a simple baseline method where only one valve
is switched open or closed each time for fault test.  The total number of
test vectors in this case would be two times the number of valves" — a
squared-complexity scheme relative to the proposed O(sqrt(n_v)) suite.

Per valve we emit:

* an **open-test** vector: a dedicated simple path routed through the valve
  (detects its stuck-at-0);
* a **closed-test** vector: a dedicated wall through the valve with every
  other valve open (detects its stuck-at-1).

This makes the baseline a *valid* test suite (every fault detectable), so
benchmark comparisons are apples-to-apples on fault coverage while showing
the 2·n_v vs ≈2·sqrt(n_v) vector-count gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.context import ExecutionContext
from repro.core.cutsets import CutSetGenerator
from repro.core.pathmodel import CoverPath, edge_key
from repro.core.paths import path_to_vector
from repro.core.routing import RoutingError, disjoint_route_through
from repro.core.vectors import TestVector, VectorKind
from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge


@dataclass
class BaselineResult:
    """The naive per-valve suite."""

    vectors: list[TestVector]
    skipped: list[Edge] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.vectors)


class BaselineGenerator:
    """Generates the naive 2-vectors-per-valve suite."""

    def __init__(self, fpva: FPVA, context: ExecutionContext | None = None):
        self.fpva = fpva
        self.context = ExecutionContext.resolve(context, fpva)
        self.kernel = self.context.kernel
        self._cuts = CutSetGenerator(fpva, strategy="sweep", context=self.context)

    def open_test(self, valve: Edge, name: str) -> TestVector | None:
        """A path vector dedicated to ``valve``'s stuck-at-0 fault."""
        try:
            route = disjoint_route_through(self.fpva, valve)
        except RoutingError:
            return None
        nodes = tuple(route)
        path = CoverPath(
            nodes=nodes,
            edges=tuple(edge_key(u, v) for u, v in zip(nodes, nodes[1:])),
        )
        return path_to_vector(
            self.kernel, path, name, kind=VectorKind.BASELINE
        )

    def closed_test(self, valve: Edge, name: str) -> TestVector | None:
        """A wall vector dedicated to ``valve``'s stuck-at-1 fault."""
        wall = self._cuts._wall_through(valve)
        if wall is None:
            return None
        open_valves = frozenset(self.fpva.valve_set - wall.valves)
        expected = self.kernel.meter_readings(open_valves)
        if any(expected.values()):
            return None
        return TestVector(
            name=name,
            kind=VectorKind.BASELINE,
            open_valves=open_valves,
            expected=expected,
            provenance=tuple(wall.junctions),
        )

    def generate(self) -> BaselineResult:
        """The full 2·n_v suite."""
        vectors: list[TestVector] = []
        skipped: list[Edge] = []
        for i, valve in enumerate(self.fpva.valves):
            open_vec = self.open_test(valve, f"bl-open{i}")
            closed_vec = self.closed_test(valve, f"bl-closed{i}")
            if open_vec is None or closed_vec is None:
                skipped.append(valve)
                continue
            vectors.append(open_vec)
            vectors.append(closed_vec)
        return BaselineResult(vectors=vectors, skipped=skipped)

    def vector_count(self) -> int:
        """The baseline's vector count without generating (2·n_v)."""
        return 2 * self.fpva.valve_count

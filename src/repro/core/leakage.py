"""Control-layer leakage test generation (Table I's n_l column).

The leaking-control-channel defect (Fig 3(d)) couples two neighbouring
valves: pressurizing either control line closes both.  To expose the leak
between valves ``a`` and ``b``, some vector must command one of them closed
while the other is open on a live, observed flow path — on a defective chip
the leak closes the live valve too and the meter goes dark.  The defect is
symmetric, so one exercised direction per unordered pair suffices.

The paper generates these vectors "by adapting the valve coverage problem"
(section III); consistently, this generator produces a self-contained set
of flow-path-shaped vectors such that every *testable* control-adjacent
pair is exercised:

1. reuse the flow-path vectors as candidate templates and greedily pick
   those covering the most remaining pairs (a path vector tests each
   on-path valve against all of its closed neighbours at once);
2. mop up with greedy pair-gain walks — fresh simple paths routed through
   the highest concentration of still-uncovered victims (this handles the
   "turning pairs" where the two valves always travel together on the
   template paths);
3. route a dedicated path per pair for the last stragglers.

Structurally untestable pairs (two valves forming the only openings of a
shared dead-end cell — see
:func:`repro.sim.faults.untestable_leak_pairs`) are excluded up front and
reported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.context import ExecutionContext
from repro.core.coverage import leak_covered_unordered, sa0_observable_valves
from repro.core.pathmodel import CoverPath, edge_key
from repro.core.paths import path_to_vector
from repro.core.routing import RoutingError, disjoint_route_through
from repro.core.vectors import TestVector, VectorKind
from repro.fpva.array import FPVA
from repro.fpva.control import control_adjacent_pairs
from repro.fpva.geometry import Edge
from repro.sim.faults import untestable_leak_pairs


@dataclass
class LeakageResult:
    """Generated control-leakage vectors plus pair-coverage metadata."""

    vectors: list[TestVector]
    pairs_total: int = 0
    pairs_covered: int = 0
    untestable_pairs: list[frozenset] = field(default_factory=list)

    @property
    def nl_leak(self) -> int:
        return len(self.vectors)


class LeakageGenerator:
    """Builds the control-leakage section of a test suite."""

    def __init__(
        self,
        fpva: FPVA,
        seed: int = 11,
        context: ExecutionContext | None = None,
    ):
        self.fpva = fpva
        self.seed = seed
        self.context = ExecutionContext.resolve(context, fpva)
        self.kernel = self.context.kernel

    def generate(
        self,
        template_vectors: Sequence[TestVector] = (),
        standalone: bool = True,
    ) -> LeakageResult:
        """Generate leakage vectors.

        ``template_vectors`` are existing flow-path vectors used as
        candidates.  With ``standalone=True`` (the Table I accounting) the
        chosen templates are re-emitted as LEAKAGE vectors, so the section
        alone covers all pairs; with ``standalone=False`` only the extra
        vectors beyond the templates are returned (the templates are
        assumed to stay in the suite).
        """
        structurally_untestable = set(untestable_leak_pairs(self.fpva))
        remaining: set[frozenset] = (
            set(control_adjacent_pairs(self.fpva)) - structurally_untestable
        )
        total = len(remaining)
        vectors: list[TestVector] = []

        # Greedy set cover over the template vectors.
        scored: list[tuple[TestVector, set]] = []
        for vec in template_vectors:
            covered = leak_covered_unordered(
                self.kernel, vec, candidate_pairs=remaining
            )
            if covered:
                scored.append((vec, covered))
        while remaining and scored:
            scored.sort(key=lambda item: len(item[1] & remaining), reverse=True)
            vec, covered = scored[0]
            gain = covered & remaining
            if not gain:
                break
            remaining -= gain
            scored.pop(0)
            if standalone:
                vectors.append(self._as_leak_vector(vec, len(vectors)))

        # Greedy pair-gain walks for the leftovers.
        from repro.core.heuristic import GreedyPathGenerator

        walker = GreedyPathGenerator(self.fpva, seed=self.seed, context=self.context)
        stall = 0
        while remaining and stall < 8:
            victim_count: Counter = Counter()
            for pair in remaining:
                for valve in pair:
                    victim_count[valve] += 1
            node_seq = walker.walk_once(
                lambda e: float(victim_count.get(e, 0))
            )
            if node_seq is None:
                stall += 1
                continue
            vec = self._path_vector(node_seq, len(vectors))
            covered = leak_covered_unordered(
                self.kernel, vec, candidate_pairs=remaining
            )
            if not covered:
                stall += 1
                continue
            stall = 0
            vectors.append(vec)
            remaining -= covered

        # Dedicated routes for the last stragglers.
        untestable: list[frozenset] = sorted(
            structurally_untestable, key=sorted
        )
        for pair in sorted(remaining.copy(), key=sorted):
            if pair not in remaining:
                continue
            a, b = sorted(pair)
            vec = self._targeted_vector(a, b, len(vectors)) or self._targeted_vector(
                b, a, len(vectors)
            )
            if vec is None:
                untestable.append(pair)
                remaining.discard(pair)
                continue
            covered = leak_covered_unordered(
                self.kernel, vec, candidate_pairs=remaining
            )
            vectors.append(vec)
            remaining -= covered

        return LeakageResult(
            vectors=vectors,
            pairs_total=total,
            pairs_covered=total - sum(1 for p in untestable if p not in structurally_untestable),
            untestable_pairs=untestable,
        )

    def _as_leak_vector(self, vector: TestVector, index: int) -> TestVector:
        return TestVector(
            name=f"leak{index}",
            kind=VectorKind.LEAKAGE,
            open_valves=vector.open_valves,
            expected=dict(vector.expected),
            provenance=vector.provenance,
        )

    def _path_vector(self, node_seq, index: int) -> TestVector:
        nodes = tuple(node_seq)
        path = CoverPath(
            nodes=nodes,
            edges=tuple(edge_key(u, v) for u, v in zip(nodes, nodes[1:])),
        )
        return path_to_vector(
            self.kernel, path, f"leak{index}", kind=VectorKind.LEAKAGE
        )

    def _targeted_vector(
        self, aggressor: Edge, victim: Edge, index: int
    ) -> TestVector | None:
        """A path vector through the victim with the aggressor off-path."""
        try:
            route = disjoint_route_through(
                self.fpva, victim, avoid_valves=[aggressor]
            )
        except RoutingError:
            return None
        vector = self._path_vector(route, index)
        # The victim must actually be observable on this path.
        if victim not in sa0_observable_valves(self.kernel, vector):
            return None
        return vector

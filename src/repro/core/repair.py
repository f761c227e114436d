"""Double-fault hardening: close the mixed-polarity masking gap.

The generated suite detects every single stuck-at fault by construction,
and same-polarity pairs cannot hide from it: meter readings are monotone
in the effective open set, so a second stuck-at-0 only darkens an
already-failing flow-path reading further, and a second stuck-at-1 only
brightens an already-failing cut reading.  The one genuinely adversarial
class is the *mixed* pair — ``SA0(e1)`` masked by ``SA1(e2)``:

* the flow path that would expose ``e1`` goes dark at ``e1``, but the
  permanently open ``e2`` re-routes pressure around the break and the
  expected meter lights anyway;
* the cut vector that would expose ``e2``'s leak needs the leak's route
  to the meter, which the broken ``e1`` severs.

Hypothesis found exactly this on a 5x4 obstacle layout; a 5x3 one is
pinned in ``tests/test_repair.py``.  This module
audits a generated suite for mixed pairs the suite misses and
synthesizes one breaker vector per miss:

* **detour path** — a source→sink flow path through ``e1`` that avoids
  the free cells of ``e2`` entirely, so the forced-open ``e2`` dangles
  into a dead end instead of bypassing the break;
* **leak probe** — failing that, a route through ``e2`` that avoids
  ``e1``, opened everywhere *except* ``e2``: a legal cut-style vector
  (all meters dark when healthy) that lights up through the leaking
  ``e2`` no matter what ``e1`` does.

Every synthesized vector is verified by simulation before it is added.
Adding vectors is monotone — it can only grow the set of detected fault
combinations — so one audit/synthesize round suffices.

The quadratic audit is the hot path, and it runs **batched**: every
ordered pair ``(SA0(e0), SA1(e1))`` with ``e0 != e1`` is one fault set
of a :class:`~repro.sim.kernel.BatchEvaluator`, which folds and
deduplicates the pairs' effective states (per vector only ``(opens + 1)
x (closeds + 1)`` of them are distinct) and simulates each once, 64 per
machine word.  The chip-at-a-time loop it replaced is the reference in
``tests/oracle.py``; both produce identical reports and identical
synthesized vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.context import ExecutionContext
from repro.core.routing import RoutingError, disjoint_route_through, route_valves
from repro.core.vectors import TestSet, TestVector, VectorKind, vector_from_open_set
from repro.fpva.array import FPVA
from repro.sim.diagnosis import DEFAULT_CHUNK_SIZE
from repro.sim.faults import StuckAt0, StuckAt1
from repro.sim.kernel import BatchEvaluator, ReachabilityKernel
from repro.sim.tester import Tester


@dataclass
class HardeningReport:
    """What the double-fault hardening pass found and fixed."""

    pairs_audited: int = 0
    pairs_missed: list[tuple[StuckAt0, StuckAt1]] = field(default_factory=list)
    vectors_added: list[TestVector] = field(default_factory=list)
    pairs_unrepaired: list[tuple[StuckAt0, StuckAt1]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.pairs_unrepaired


def find_masked_stuck_pairs(
    fpva: FPVA,
    vectors,
    context: ExecutionContext | None = None,
) -> tuple[int, list[tuple[StuckAt0, StuckAt1]]]:
    """All undetected ``(SA0, SA1)`` pairs under ``vectors``.

    Only mixed-polarity pairs are audited — the monotonicity argument in
    the module docstring rules the rest out.  Each ordered pair of
    distinct valves is one fault set of the ``SA0 + SA1`` universe,
    judged through one evaluator on the session's kernel, a dictionary
    chunk of pairs per ``slot_rows`` call.  Pair order and verdicts are
    identical to the serial reference loop.
    """
    kernel = ExecutionContext.resolve(context, fpva).kernel
    valves = list(fpva.valves)
    universe = [StuckAt0(v) for v in valves] + [StuckAt1(v) for v in valves]
    evaluator = BatchEvaluator(kernel, list(vectors), universe)
    pairs = np.argwhere(~np.eye(len(valves), dtype=bool)) + (0, len(valves))
    missed = []
    for lo in range(0, len(pairs), DEFAULT_CHUNK_SIZE):
        chunk = pairs[lo : lo + DEFAULT_CHUNK_SIZE]
        rows = evaluator.slot_rows(chunk)
        evaluator.flush()
        missed += [
            (universe[i0], universe[i1])
            for i0, i1 in chunk[~evaluator.detects(rows)].tolist()
        ]
    return len(pairs), missed


def synthesize_pair_breaker(
    fpva: FPVA,
    sa0: StuckAt0,
    sa1: StuckAt1,
    kernel: ReachabilityKernel,
    tester: Tester,
    name: str,
) -> TestVector | None:
    """One vector that a chip carrying exactly ``{sa0, sa1}`` fails.

    ``kernel`` gives the vector's fault-free readings; anything with the
    same ``meter_readings`` serves, so the reference hardening in
    ``tests/oracle.py`` passes its object-graph simulator.
    """
    e1, e2 = sa0.valve, sa1.valve

    # Detour path: through e1, never touching e2's free cells, so the
    # stuck-open e2 cannot reconnect the severed route.
    free_cells = set(e2.cells) - set(e1.cells)
    avoid = {
        valve
        for valve in fpva.valves
        if set(valve.cells) & free_cells and valve != e1
    }
    avoid.add(e2)
    try:
        route = disjoint_route_through(fpva, e1, avoid_valves=avoid)
        open_valves = frozenset(route_valves(fpva, route))
        vector = vector_from_open_set(
            fpva,
            name,
            VectorKind.FLOW_PATH,
            open_valves,
            kernel.meter_readings(open_valves),
            provenance=("harden-detour", e1, e2),
        )
        if tester.detects([sa0, sa1], [vector]):
            return vector
    except RoutingError:
        pass

    # Leak probe: a route through e2 that avoids e1, opened except for e2
    # itself.  Healthy chips read dark; the leaking e2 completes the route
    # and e1 is not on it, so the pair cannot mask the light-up.
    try:
        route = disjoint_route_through(fpva, e2, avoid_valves={e1})
        open_valves = frozenset(route_valves(fpva, route)) - {e2}
        vector = vector_from_open_set(
            fpva,
            name,
            VectorKind.CUT_SET,
            open_valves,
            kernel.meter_readings(open_valves),
            provenance=("harden-probe", e1, e2),
        )
        if tester.detects([sa0, sa1], [vector]):
            return vector
    except RoutingError:
        pass
    return None


def harden_double_faults(
    fpva: FPVA,
    testset: TestSet,
    context: ExecutionContext | None = None,
) -> HardeningReport:
    """Audit ``testset`` for masked mixed pairs and append breaker vectors.

    Exhaustive over ordered (SA0, SA1) valve pairs; the audit itself is
    batched through one evaluator on the session's kernel (see
    :func:`find_masked_stuck_pairs`), so arrays well past the old
    benchmark scale stay practical.
    """
    context = ExecutionContext.resolve(context, fpva)
    tester = context.tester
    report = HardeningReport()
    report.pairs_audited, missed = find_masked_stuck_pairs(
        fpva, testset.all_vectors(), context=context
    )
    report.pairs_missed = missed
    for i, (sa0, sa1) in enumerate(missed):
        if tester.detects([sa0, sa1], report.vectors_added):
            continue  # an earlier breaker already covers this pair
        vector = synthesize_pair_breaker(
            fpva, sa0, sa1, context.kernel, tester, name=f"harden{i}"
        )
        if vector is None:
            report.pairs_unrepaired.append((sa0, sa1))
            continue
        report.vectors_added.append(vector)
        if vector.kind is VectorKind.FLOW_PATH:
            testset.flow_paths.append(vector)
        else:
            testset.cut_sets.append(vector)
    return report

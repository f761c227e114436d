"""Independent legality checking of generated test vectors.

The generators already verify what they emit; this module re-derives the
guarantees from scratch so tests (and sceptical users) can audit a suite
without trusting generator internals:

* flow-path vectors: the opened valves form one simple source→sink path,
  every opened valve is a bridge of the open-edge graph (no Fig 5(a)
  bypass), and the stored expected readings match a fault-free simulation;
* cut-set vectors: the closed valves separate all sources from all sinks,
  and the expected readings are all-dark;
* suite level: full stuck-at coverage and — the paper's headline guarantee —
  detection of **any** single and double fault combination (exhaustive or
  sampled audit).  The audit judges its fault sets in bulk through
  :class:`~repro.sim.kernel.BatchEvaluator`, the detection check campaigns
  use; the chip-at-a-time loop it replaced is the reference in
  ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Sequence

import networkx as nx

from repro.context import ExecutionContext
from repro.core.coverage import (
    measure_coverage,
    open_edge_graph,
    sa0_observable_valves,
)
from repro.core.vectors import TestVector, VectorKind
from repro.fpva.array import FPVA
from repro.fpva.ports import Port
from repro.sim.diagnosis import DEFAULT_CHUNK_SIZE
from repro.sim.faults import Fault, fault_universe, faults_compatible
from repro.sim.kernel import BatchEvaluator, ReachabilityKernel


@dataclass
class ValidationIssue:
    vector: str
    problem: str

    def __repr__(self):
        return f"[{self.vector}] {self.problem}"


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, vector: TestVector, problem: str) -> None:
        self.issues.append(ValidationIssue(vector.name, problem))


def validate_vector(
    fpva: FPVA,
    vector: TestVector,
    report: ValidationReport | None = None,
    context: ExecutionContext | None = None,
) -> ValidationReport:
    """Structural and semantic checks for one vector."""
    kernel = ExecutionContext.resolve(context, fpva).kernel
    rep = report or ValidationReport()

    actual = kernel.meter_readings(vector.open_valves)
    if actual != dict(vector.expected):
        rep.add(vector, f"stored expectation {dict(vector.expected)} != simulated {actual}")

    if vector.kind in (VectorKind.FLOW_PATH, VectorKind.LEAKAGE):
        _validate_path_vector(fpva, vector, kernel, rep)
    elif vector.kind is VectorKind.CUT_SET:
        _validate_cut_vector(vector, actual, rep)
    return rep


def _validate_path_vector(
    fpva: FPVA, vector: TestVector, kernel: ReachabilityKernel, rep: ValidationReport
) -> None:
    if not any(vector.expected.values()):
        rep.add(vector, "flow-path vector expects no pressure anywhere")

    # The opened valves (plus channels/ports) must form a simple path in
    # the pressurized region: every pressurized cell has degree <= 2 among
    # opened valves, and opened valves must all be live.
    g = open_edge_graph(fpva, vector)
    live: set = set()
    for s in fpva.sources:
        live |= nx.node_connected_component(g, s)
    for valve in vector.open_valves:
        if valve.a not in live and valve.b not in live:
            rep.add(vector, f"opened valve {valve} is not pressurized (dead branch)")

    degree: dict = {}
    for valve in vector.open_valves:
        for cell in valve.cells:
            degree[cell] = degree.get(cell, 0) + 1
    for cell, deg in degree.items():
        if deg > 2:
            rep.add(vector, f"cell {cell} has {deg} opened valves (branching path)")

    # Fig 5(a): every opened valve must be a bridge, i.e. individually
    # observable.
    unobservable = vector.open_valves - sa0_observable_valves(kernel, vector)
    for valve in sorted(unobservable):
        rep.add(vector, f"opened valve {valve} not SA0-observable (bypass exists)")


def _validate_cut_vector(
    vector: TestVector, readings: dict[str, bool], rep: ValidationReport
) -> None:
    """``readings`` are the vector's fault-free readings."""
    if any(vector.expected.values()):
        rep.add(vector, "cut-set vector expects pressure at a meter")
    if any(readings.values()):
        rep.add(vector, "closed valves do not separate sources from sinks")


def validate_suite(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    check_pair_coverage: bool = False,
    context: ExecutionContext | None = None,
) -> ValidationReport:
    """Validate every vector and suite-level stuck-at coverage."""
    context = ExecutionContext.resolve(context, fpva)
    rep = ValidationReport()
    for vector in vectors:
        validate_vector(fpva, vector, rep, context)
    coverage = measure_coverage(
        fpva, vectors, include_leak_pairs=check_pair_coverage, context=context
    )
    placeholder = TestVector("suite", VectorKind.FLOW_PATH, frozenset(), {})
    for valve in sorted(coverage.sa0_missing):
        rep.add(placeholder, f"stuck-at-0 at {valve} never observed")
    for valve in sorted(coverage.sa1_missing):
        rep.add(placeholder, f"stuck-at-1 at {valve} never observed")
    if check_pair_coverage:
        for pair in sorted(coverage.leak_pairs_missing):
            rep.add(placeholder, f"control-leak pair {pair} never exercised")
    return rep


@dataclass
class TwoFaultAudit:
    """Result of the double-fault detection audit."""

    singles_checked: int = 0
    singles_missed: list[tuple[Fault, ...]] = field(default_factory=list)
    pairs_checked: int = 0
    pairs_missed: list[tuple[Fault, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.singles_missed and not self.pairs_missed


def audit_two_fault_detection(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    include_control_leaks: bool = False,
    max_pairs: int | None = 20_000,
    seed: int = 0,
    context: ExecutionContext | None = None,
) -> TwoFaultAudit:
    """Check the paper's guarantee: any one or two faults are detected.

    Exhaustive over single faults; over fault pairs it is exhaustive when
    their count is below ``max_pairs`` and uniformly sampled otherwise.
    Every single and pair is judged on the session's kernel through one
    :class:`~repro.sim.kernel.BatchEvaluator`, chunk by chunk as a
    dictionary build walks its fault sets.
    """
    kernel = ExecutionContext.resolve(context, fpva).kernel
    universe = fault_universe(fpva, include_control_leaks=include_control_leaks)
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(universe)), 2)
        if faults_compatible((universe[i], universe[j]))
    ]
    if max_pairs is not None and len(pairs) > max_pairs:
        pairs = random.Random(seed).sample(pairs, max_pairs)
    audit = TwoFaultAudit(singles_checked=len(universe), pairs_checked=len(pairs))
    index_sets = [(i,) for i in range(len(universe))] + pairs
    evaluator = BatchEvaluator(kernel, vectors)
    for lo in range(0, len(index_sets), DEFAULT_CHUNK_SIZE):
        chunk = index_sets[lo : lo + DEFAULT_CHUNK_SIZE]
        rows = evaluator.slot_rows(universe, chunk)
        evaluator.flush()
        for idx, hit in zip(chunk, evaluator.detects(rows).tolist()):
            if not hit:
                missed = audit.singles_missed if len(idx) == 1 else audit.pairs_missed
                missed.append(tuple(universe[i] for i in idx))
    return audit

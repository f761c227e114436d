"""The pure-Python references the batched production paths are pinned to.

Production simulates through one engine, the compiled bitmask kernel.
This module holds the object-graph engine and the serial loops that
kernel replaced, kept as they were, so tests and benchmarks can assert
exact equality against them:

* :class:`ObjectSimulator` — reachability by BFS over the object graph
  (``Edge`` hashing per arc); :func:`object_tester` puts a
  :class:`~repro.sim.tester.Tester` on it;
* :class:`ReferenceDictionary` — one full-suite simulation per fault set,
  and full-suite diagnosis by syndrome lookup;
* :func:`run_trials` — the chip-at-a-time campaign loop, drawing fault
  sets in the same RNG order as :func:`repro.sim.campaign.run_trials`;
* :func:`find_masked_stuck_pairs` and :func:`harden_double_faults` — the
  pair-by-pair mixed stuck-at audit and the hardening pass on top of it;
* :func:`sa0_observable_valves`, :func:`sa1_observable_valves` and
  :func:`measure_coverage` — one query per SA0 candidate, one flood per
  dark region.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from typing import Iterable

from repro.core.coverage import (
    CoverageReport,
    _sa0_candidates,
    _sa1_candidates,
    leak_covered_unordered,
    open_edge_graph,
)
from repro.core.repair import HardeningReport, synthesize_pair_breaker
from repro.core.vectors import VectorKind
from repro.fpva.control import control_adjacent_pairs
from repro.fpva.geometry import Cell, Edge
from repro.fpva.ports import Port
from repro.sim.campaign import CampaignResult, campaign_universe, sample_fault_set
from repro.sim.chip import ChipUnderTest
from repro.sim.diagnosis import DiagnosisReport, iter_fault_sets
from repro.sim.faults import (
    StuckAt0,
    StuckAt1,
    fault_universe,
    untestable_leak_pairs,
)
from repro.sim.tester import Tester


def _as_open_set(open_valves: Iterable[Edge]):
    """Coerce a commanded-open iterable to a set exactly once."""
    if isinstance(open_valves, (set, frozenset)):
        return open_valves
    return set(open_valves)


class ObjectSimulator:
    """Object-graph pressure simulation: the pre-kernel simulator."""

    def __init__(self, fpva):
        self.fpva = fpva
        nodes: list = list(fpva.cells()) + list(fpva.ports)
        self._index: dict = {node: i for i, node in enumerate(nodes)}
        self._nodes = nodes

        # adjacency[i] = list of (neighbour index, valve Edge or None, link);
        # valve None marks an always-open connection (channel or port
        # opening); link is the underlying flow Edge (None for port
        # openings) so physically blocked edges can be excluded.
        self._adjacency: list[list[tuple[int, Edge | None, Edge | None]]] = [
            [] for _ in nodes
        ]
        for edge in fpva.flow_edges:
            u, w = self._index[edge.a], self._index[edge.b]
            valve = edge if edge in fpva.valve_set else None
            self._adjacency[u].append((w, valve, edge))
            self._adjacency[w].append((u, valve, edge))
        for port in fpva.ports:
            p = self._index[port]
            c = self._index[fpva.port_cell(port)]
            self._adjacency[p].append((c, None, None))
            self._adjacency[c].append((p, None, None))

        self._source_idx = [self._index[p] for p in fpva.sources]
        self._sinks = [(p.name, self._index[p]) for p in fpva.sinks]
        self._sink_idx = {idx: name for name, idx in self._sinks}
        self._sink_names = [name for name, _ in self._sinks]

    def pressurized_nodes(
        self,
        open_valves: Iterable[Edge],
        blocked: frozenset[Edge] = frozenset(),
    ) -> set:
        """All cell/port nodes reached by source pressure."""
        open_set = _as_open_set(open_valves)
        seen = [False] * len(self._nodes)
        queue = deque()
        for s in self._source_idx:
            seen[s] = True
            queue.append(s)
        while queue:
            u = queue.popleft()
            for w, valve, link in self._adjacency[u]:
                if seen[w]:
                    continue
                if valve is not None and valve not in open_set:
                    continue
                if blocked and link is not None and link in blocked:
                    continue
                seen[w] = True
                queue.append(w)
        return {self._nodes[i] for i, hit in enumerate(seen) if hit}

    def meter_readings(
        self,
        open_valves: Iterable[Edge],
        blocked: frozenset[Edge] = frozenset(),
    ) -> dict[str, bool]:
        """Pressure reading at every sink port, keyed by port name."""
        open_set = _as_open_set(open_valves)
        sink_idx = self._sink_idx
        n_sinks = len(sink_idx)
        readings: dict[str, bool] = dict.fromkeys(self._sink_names, False)

        seen = [False] * len(self._nodes)
        queue = deque()
        for s in self._source_idx:
            seen[s] = True
            queue.append(s)
        found = 0
        while queue and found < n_sinks:
            u = queue.popleft()
            for w, valve, link in self._adjacency[u]:
                if seen[w]:
                    continue
                if valve is not None and valve not in open_set:
                    continue
                if blocked and link is not None and link in blocked:
                    continue
                seen[w] = True
                if w in sink_idx:
                    readings[sink_idx[w]] = True
                    found += 1
                queue.append(w)
        return readings


def object_tester(fpva) -> Tester:
    """A :class:`Tester` applying vectors through :class:`ObjectSimulator`."""
    return Tester(simulator=ObjectSimulator(fpva))


class ReferenceDictionary:
    """Syndrome dictionary built one full-suite simulation per fault set."""

    def __init__(
        self,
        fpva,
        vectors,
        include_control_leaks: bool = True,
        max_cardinality: int = 1,
        universe=None,
    ):
        self.fpva = fpva
        self.vectors = list(vectors)
        if universe is None:
            universe = fault_universe(
                fpva, include_control_leaks=include_control_leaks
            )
        self.tester = object_tester(fpva)
        self._table: dict = defaultdict(list)
        for faults in iter_fault_sets(list(universe), max_cardinality):
            syndrome = self._syndrome_of(faults)
            if syndrome:  # undetectable sets cannot be diagnosed
                self._table[syndrome].append(faults)

    def _syndrome_of(self, faults):
        chip = ChipUnderTest(self.fpva, faults)
        return self.tester.run(chip, self.vectors).syndrome()

    @property
    def distinct_syndromes(self) -> int:
        return len(self._table)

    def resolution(self) -> float:
        if not self._table:
            return 0.0
        return sum(len(v) for v in self._table.values()) / len(self._table)

    def diagnose_chip(self, chip) -> DiagnosisReport:
        syndrome = self.tester.run(chip, self.vectors).syndrome()
        return DiagnosisReport(
            syndrome=syndrome, candidates=list(self._table.get(syndrome, []))
        )


def run_trials(
    fpva,
    vectors,
    num_faults: int,
    trials: int,
    seed: int = 0,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
) -> CampaignResult:
    """The chip-at-a-time campaign, stopping each chip at its first fail."""
    universe = campaign_universe(fpva, scenario, include_control_leaks)
    rng = random.Random(seed)
    if scenario is None:
        draw = lambda: sample_fault_set(universe, num_faults, rng)  # noqa: E731
    else:
        draw = lambda: scenario.sample(universe, rng, num_faults)  # noqa: E731
    result = CampaignResult(num_faults=num_faults, trials=trials, detected=0)
    tester = object_tester(fpva)
    for trial in range(trials):
        faults = draw()
        chip = ChipUnderTest(fpva, faults)
        run = tester.run(chip, vectors, stop_at_first_fail=True)
        if run.fault_detected:
            result.detected += 1
        elif len(result.undetected_examples) < keep_undetected:
            result.undetected_examples.append(faults)
            result.undetected_trials.append(trial)
    return result


def find_masked_stuck_pairs(fpva, vectors, tester: Tester | None = None):
    """Every ordered ``(SA0, SA1)`` pair, one chip at a time."""
    vectors = list(vectors)
    tester = tester or object_tester(fpva)
    audited = 0
    missed: list[tuple[StuckAt0, StuckAt1]] = []
    for v0 in fpva.valves:
        sa0 = StuckAt0(v0)
        for v1 in fpva.valves:
            if v1 == v0:
                continue
            audited += 1
            pair = (sa0, StuckAt1(v1))
            if not tester.detects(list(pair), vectors):
                missed.append(pair)
    return audited, missed


def harden_double_faults(fpva, testset) -> HardeningReport:
    """:func:`repro.core.repair.harden_double_faults` on the object engine."""
    tester = object_tester(fpva)
    simulator = tester.simulator
    report = HardeningReport()
    report.pairs_audited, missed = find_masked_stuck_pairs(
        fpva, testset.all_vectors(), tester
    )
    report.pairs_missed = missed
    for i, (sa0, sa1) in enumerate(missed):
        if tester.detects([sa0, sa1], report.vectors_added):
            continue  # an earlier breaker already covers this pair
        vector = synthesize_pair_breaker(
            fpva, sa0, sa1, simulator, tester, name=f"harden{i}"
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


def sa0_observable_valves(sim: ObjectSimulator, vector) -> set[Edge]:
    """Open valves whose lone closure changes a reading: one query per
    bridge candidate."""
    expected = dict(vector.expected)
    out: set[Edge] = set()
    for valve in _sa0_candidates(sim.fpva, vector):
        readings = sim.meter_readings(vector.open_valves - {valve})
        if readings != expected:
            out.add(valve)
    return out


def sa1_observable_valves(sim: ObjectSimulator, vector) -> set[Edge]:
    """Closed valves whose lone leak lights an expected-dark meter.

    Dark candidates are grouped by their dark-side end cell — all valves
    leaking into the same dark region share one flood over the open-edge
    graph.
    """
    fpva = sim.fpva
    dark_sinks, candidates = _sa1_candidates(sim, vector, fpva)
    g = open_edge_graph(fpva, vector)
    flood_cache: dict[Cell, bool] = {}

    def flood_lights_dark_sink(start: Cell) -> bool:
        if start in flood_cache:
            return flood_cache[start]
        hit = False
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if isinstance(node, Port) and node.name in dark_sinks:
                hit = True
                break
            for nb in g.neighbors(node):
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        for cell in seen:
            if isinstance(cell, Cell):
                flood_cache[cell] = hit
        flood_cache[start] = hit
        return hit

    return {
        valve for valve, dark_end in candidates if flood_lights_dark_sink(dark_end)
    }


def measure_coverage(fpva, vectors, include_leak_pairs=True) -> CoverageReport:
    """:func:`repro.core.coverage.measure_coverage` on the object engine."""
    sim = ObjectSimulator(fpva)
    report = CoverageReport()
    all_pairs: set[frozenset] = set()
    if include_leak_pairs:
        all_pairs = set(control_adjacent_pairs(fpva)) - set(
            untestable_leak_pairs(fpva)
        )
    for vector in vectors:
        sa0 = sa0_observable_valves(sim, vector)
        report.sa0_covered |= sa0
        report.sa1_covered |= sa1_observable_valves(sim, vector)
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

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
  dark region;
* :class:`ReferenceAdaptiveDiagnoser` — the adaptive scheduler on one
  Python object per syndrome class, scoring each unapplied vector with a
  double loop over the survivors.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.coverage import (
    CoverageReport,
    _sa0_candidates,
    _sa1_candidates,
    leak_covered_unordered,
    open_edge_graph,
)
from repro.core.repair import HardeningReport, synthesize_pair_breaker
from repro.core.vectors import VectorKind
from repro.engine.adaptive import (
    AdaptiveDiagnosisResult,
    AdaptiveStep,
    Signature,
    _signature,
)
from repro.fpva.control import control_adjacent_pairs
from repro.fpva.geometry import Cell, Edge
from repro.fpva.ports import Port
from repro.sim.campaign import CampaignResult, campaign_universe, sample_fault_set
from repro.sim.chip import ChipUnderTest
from repro.sim.diagnosis import (
    DiagnosisReport,
    FaultDictionary,
    Syndrome,
    iter_fault_sets,
)
from repro.sim.faults import (
    Fault,
    StuckAt0,
    StuckAt1,
    fault_universe,
    untestable_leak_pairs,
)
from repro.sim.tester import Tester, VectorOutcome


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


@dataclass
class _Hypothesis:
    """One syndrome equivalence class (or the fault-free hypothesis)."""

    syndrome: Syndrome
    fault_sets: list[tuple[Fault, ...]]
    signatures: tuple[Signature, ...]  # predicted readout per vector index
    #: Per-vector signature interned to a small int (see the diagnoser below:
    #: ids are assigned per vector in hypothesis order, so bucketing and
    #: survivor filtering compare ints instead of hashing tuples).
    sig_ids: tuple[int, ...] = ()

    @property
    def weight(self) -> int:
        """Prior mass: how many concrete fault sets the class contains."""
        return max(1, len(self.fault_sets))


class ReferenceAdaptiveDiagnoser:
    """:class:`repro.engine.AdaptiveDiagnoser` on Python objects.

    One ``_Hypothesis`` per syndrome class, and a double loop over the
    survivors and the unapplied vectors per scheduling step.  ``tester``
    defaults to the dictionary's.
    """

    def __init__(self, dictionary: FaultDictionary, tester: Tester | None = None):
        self.dictionary = dictionary
        self.vectors = list(dictionary.vectors)
        self.tester = tester or dictionary.tester
        expected = tuple(_signature(dict(v.expected)) for v in self.vectors)
        name_to_index = {v.name: i for i, v in enumerate(self.vectors)}

        # The fault-free hypothesis: every vector reads as expected.  It
        # anchors the session for clean chips and is excluded from the
        # candidate list, mirroring the dictionary (whose table only holds
        # detectable — i.e. somewhere-failing — fault sets).
        self._nominal = _Hypothesis(
            syndrome=(), fault_sets=[], signatures=expected
        )
        self._hypotheses: list[_Hypothesis] = [self._nominal]
        for syndrome, fault_sets in dictionary.syndrome_classes():
            signatures = list(expected)
            for vector_name, observed_items in syndrome:
                signatures[name_to_index[vector_name]] = tuple(observed_items)
            self._hypotheses.append(
                _Hypothesis(
                    syndrome=syndrome,
                    fault_sets=fault_sets,
                    signatures=tuple(signatures),
                )
            )

        # Intern per-vector signatures to small integer ids (assigned in
        # hypothesis order) so scheduling buckets on ints instead of
        # repeatedly hashing signature tuples.
        self._sig_maps: list[dict[Signature, int]] = [
            {} for _ in self.vectors
        ]
        for h in self._hypotheses:
            ids = []
            for vi, sig in enumerate(h.signatures):
                sig_map = self._sig_maps[vi]
                ids.append(sig_map.setdefault(sig, len(sig_map)))
            h.sig_ids = tuple(ids)

    # -- scheduling --------------------------------------------------------
    def _best_split(
        self, alive: Sequence[_Hypothesis], unapplied: Sequence[bool]
    ) -> tuple[int | None, float]:
        """The unapplied vector whose outcome partition has max entropy.

        ``unapplied`` is a per-vector-index flag sequence.  Candidates are
        scanned in ascending vector index and a challenger must be
        *strictly* better, so ties break to the lowest vector index —
        sessions replay identically across platforms and runs.
        """
        best_index: int | None = None
        best_entropy = 0.0
        total = float(sum(h.weight for h in alive))
        sig_maps = self._sig_maps
        for vi in range(len(self.vectors)):
            if not unapplied[vi]:
                continue
            counts = [0] * len(sig_maps[vi])
            for h in alive:
                counts[h.sig_ids[vi]] += h.weight
            # Bucket masses in sig-id order == first-occurrence order, so
            # the entropy sum is evaluated deterministically.
            distinct = 0
            entropy = 0.0
            for mass in counts:
                if not mass:
                    continue
                distinct += 1
                p = mass / total
                entropy -= p * math.log2(p)
            if distinct < 2:
                continue
            if entropy > best_entropy:
                best_entropy = entropy
                best_index = vi
        return best_index, best_entropy

    # -- diagnosis ---------------------------------------------------------
    def diagnose(
        self,
        chip: ChipUnderTest,
        max_vectors: int | None = None,
    ) -> AdaptiveDiagnosisResult:
        """Adaptively localize ``chip``'s faults.

        ``max_vectors`` optionally caps the session; a capped session can
        end with residual ambiguity across several syndrome classes, in
        which case the candidates are the union of all surviving classes.
        """
        outcomes: list[VectorOutcome] = []
        steps: list[AdaptiveStep] = []
        exhausted = False
        alive = list(self._hypotheses)
        # O(1) application marking (the previous list held indices and paid
        # an O(n) scan per `.remove`); _best_split skips applied flags.
        unapplied = bytearray([1]) * len(self.vectors)

        while len(alive) > 1:
            if max_vectors is not None and len(outcomes) >= max_vectors:
                exhausted = True
                break
            vi, entropy = self._best_split(alive, unapplied)
            if vi is None:
                # All survivors predict identical readouts for every
                # unapplied vector — only possible across distinct
                # syndromes when the budget already hid the separating
                # vector, or the suite cannot separate them at all.
                break
            outcome = self.tester.apply(chip, self.vectors[vi])
            observed_id = self._sig_maps[vi].get(_signature(outcome.observed))
            before = len(alive)
            if observed_id is None:
                alive = []  # readout no hypothesis predicts (off-model chip)
            else:
                alive = [h for h in alive if h.sig_ids[vi] == observed_id]
            unapplied[vi] = 0
            outcomes.append(outcome)
            steps.append(
                AdaptiveStep(
                    vector_name=self.vectors[vi].name,
                    entropy_bits=entropy,
                    hypotheses_before=before,
                    hypotheses_after=len(alive),
                )
            )
            if not alive:
                break

        return AdaptiveDiagnosisResult(
            report=self._conclude(alive, outcomes),
            outcomes=outcomes,
            steps=steps,
            total_vectors=len(self.vectors),
            exhausted_budget=exhausted,
        )

    def _conclude(
        self, alive: list[_Hypothesis], outcomes: list[VectorOutcome]
    ) -> DiagnosisReport:
        survivors = [h for h in alive if h is not self._nominal]
        if len(alive) == 1 and alive[0] is self._nominal:
            return DiagnosisReport(syndrome=(), candidates=[])
        if len(survivors) == 1 and len(alive) == 1:
            h = survivors[0]
            return DiagnosisReport(
                syndrome=h.syndrome, candidates=list(h.fault_sets)
            )
        # Chip outside the hypothesis space (no survivors) or a
        # budget-capped session (several survivors): report what is known.
        observed_syndrome = tuple(
            (o.vector.name, _signature(o.observed))
            for o in outcomes
            if not o.passed
        )
        candidates = [fs for h in survivors for fs in h.fault_sets]
        return DiagnosisReport(syndrome=observed_syndrome, candidates=candidates)

"""Adaptive sequential diagnosis: entropy-guided vector scheduling.

The full-suite path applies every generated vector and looks the complete
syndrome up in a :class:`~repro.sim.diagnosis.FaultDictionary`.  A real
tester does not need to: after each observation, whole regions of the
hypothesis space become inconsistent and further vectors that cannot
separate the survivors carry no information.  This module schedules
vectors one at a time, greedily maximizing the Shannon entropy of the
partition each unapplied vector induces on the surviving syndrome
classes, applies the winner via :meth:`Tester.apply`, prunes, and stops
as soon as the diagnosis is unique or the residual ambiguity is
irreducible (one syndrome class left — its members are indistinguishable
under the *whole* suite, so no further vector can help).

Guarantee: for any chip whose behaviour matches one of the dictionary's
hypotheses (including the fault-free chip), the returned
:class:`DiagnosisReport` — syndrome and candidate list — is identical to
what :meth:`FaultDictionary.diagnose_chip` produces from the full suite,
in far fewer applied vectors.  Chips *outside* the hypothesis space get a
best-effort verdict: if the observations contradict every hypothesis the
candidate list is empty (as with the full suite), but an off-model chip
that mimics a modelled fault on every applied vector is reported as that
fault — the same conclusion a tester working under the fault-model
assumption would reach.  Either way every returned candidate is
consistent with every outcome actually observed.

Everything here needs only ``Tester.apply``; the compiled reachability
kernel (bitmask ``reach`` in :mod:`repro.sim.kernel`) accelerates the
underlying simulation below that API.  Scheduling runs on arrays built
once per diagnoser: ``_sig`` is an H×V int32 matrix of per-vector
signature ids (row 0 the fault-free hypothesis, then the dictionary's
syndrome classes; ids are assigned per vector in that row order, first
occurrence first) and ``_weights`` the H class masses.  Each step scores
every unapplied vector with one offset ``np.bincount`` over the surviving
rows, and survivors stay an ascending row-index array that one comparison
filters.  The entropy itself is summed in Python floats over each
vector's non-empty buckets in ascending id order — numpy's pairwise
summation or SIMD ``log2`` could move the last bit and flip a near-tie —
so sessions are bit-identical to the pure-Python scheduler kept as
``ReferenceAdaptiveDiagnoser`` in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.sim.chip import ChipUnderTest
from repro.sim.diagnosis import DiagnosisReport, FaultDictionary, Syndrome
from repro.sim.faults import Fault
from repro.sim.tester import Tester, VectorOutcome

#: Observation signature: the canonical hashable form of a meter readout.
Signature = tuple


def _signature(observed: dict) -> Signature:
    return tuple(sorted(observed.items()))


@dataclass
class AdaptiveStep:
    """One scheduled application, for tracing/benchmarking."""

    vector_name: str
    entropy_bits: float
    hypotheses_before: int
    hypotheses_after: int


@dataclass
class AdaptiveDiagnosisResult:
    """Outcome of one adaptive session."""

    report: DiagnosisReport
    outcomes: list[VectorOutcome] = field(default_factory=list)
    steps: list[AdaptiveStep] = field(default_factory=list)
    total_vectors: int = 0
    exhausted_budget: bool = False

    @property
    def num_applied(self) -> int:
        return len(self.outcomes)

    @property
    def saved_fraction(self) -> float:
        """Fraction of the full suite this session did *not* apply."""
        if not self.total_vectors:
            return 0.0
        return 1.0 - self.num_applied / self.total_vectors


class AdaptiveDiagnoser:
    """Schedules vectors by information gain over a fault dictionary.

    Build once per (array, suite) pair — construction derives each
    syndrome class's predicted readout for every vector from the
    dictionary's stored syndromes, with no extra simulation — then call
    :meth:`diagnose` per chip.
    """

    def __init__(self, dictionary: FaultDictionary, context=None):
        self.dictionary = dictionary
        self.vectors = list(dictionary.vectors)
        if context is not None:
            from repro.context import ExecutionContext

            context = ExecutionContext.resolve(context, dictionary.fpva)
            self.tester: Tester = context.tester
        else:
            self.tester = dictionary.tester
        name_to_index = {v.name: i for i, v in enumerate(self.vectors)}

        # Row 0 is the fault-free hypothesis: every vector reads as
        # expected.  It anchors the session for clean chips and is
        # excluded from the candidate list, mirroring the dictionary (whose
        # table only holds detectable — i.e. somewhere-failing — fault
        # sets).  Its readouts take id 0 in every column, so a class row
        # only interns the vectors its syndrome fails.
        self._classes: list[tuple[Syndrome, list[tuple[Fault, ...]]]] = [
            ((), [])
        ]
        self._classes.extend(dictionary.syndrome_classes())
        self._sig_maps: list[dict[Signature, int]] = [
            {_signature(dict(v.expected)): 0} for v in self.vectors
        ]
        self._sig = np.zeros(
            (len(self._classes), len(self.vectors)), dtype=np.int32
        )
        for row, (syndrome, _) in enumerate(self._classes):
            predicted = {
                name_to_index[name]: tuple(items) for name, items in syndrome
            }
            for vi, signature in predicted.items():
                sig_map = self._sig_maps[vi]
                self._sig[row, vi] = sig_map.setdefault(signature, len(sig_map))
        #: Prior mass: how many concrete fault sets each class contains.
        self._weights = np.array(
            [max(1, len(fault_sets)) for _, fault_sets in self._classes],
            dtype=np.int64,
        )
        self._n_ids = np.array([len(m) for m in self._sig_maps], dtype=np.int64)

    # -- scheduling --------------------------------------------------------
    def _best_split(
        self, alive: np.ndarray, unapplied: np.ndarray
    ) -> tuple[int | None, float]:
        """The unapplied vector whose outcome partition has max entropy.

        ``alive`` holds the surviving row indices and ``unapplied`` flags
        each vector index.  One offset bincount gives every unapplied
        vector's bucket masses; candidates are then scanned in ascending
        vector index and a challenger must be *strictly* better, so ties
        break to the lowest vector index — sessions replay identically
        across platforms and runs.
        """
        cols = np.flatnonzero(unapplied)
        offsets = np.zeros(len(cols) + 1, dtype=np.int64)
        np.cumsum(self._n_ids[cols], out=offsets[1:])
        weights = self._weights[alive]
        # Masses are integer sums of integer weights: exact in float64
        # below 2**53, and turned back into Python ints before dividing.
        masses = np.bincount(
            (self._sig[alive][:, cols] + offsets[:-1]).ravel(),
            weights=np.repeat(weights, len(cols)),
            minlength=int(offsets[-1]),
        )
        buckets = np.flatnonzero(masses)
        nonempty = masses[buckets].astype(np.int64).tolist()
        bounds = np.searchsorted(buckets, offsets).tolist()
        total = float(int(weights.sum()))

        best_index: int | None = None
        best_entropy = 0.0
        for j, vi in enumerate(cols.tolist()):
            lo, hi = bounds[j], bounds[j + 1]
            if hi - lo < 2:
                continue
            # Bucket masses in sig-id order == first-occurrence order, so
            # the entropy sum is evaluated deterministically.
            entropy = 0.0
            for mass in nonempty[lo:hi]:
                p = mass / total
                entropy -= p * math.log2(p)
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
        self.tester.mount(chip, self.vectors)
        alive = np.arange(len(self._classes), dtype=np.int64)
        unapplied = np.ones(len(self.vectors), dtype=bool)

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
                alive = alive[:0]  # readout no hypothesis predicts (off-model chip)
            else:
                alive = alive[self._sig[alive, vi] == observed_id]
            unapplied[vi] = False
            outcomes.append(outcome)
            steps.append(
                AdaptiveStep(
                    vector_name=self.vectors[vi].name,
                    entropy_bits=entropy,
                    hypotheses_before=before,
                    hypotheses_after=len(alive),
                )
            )

        return AdaptiveDiagnosisResult(
            report=self._conclude(alive.tolist(), outcomes),
            outcomes=outcomes,
            steps=steps,
            total_vectors=len(self.vectors),
            exhausted_budget=exhausted,
        )

    def _conclude(
        self, alive: list[int], outcomes: list[VectorOutcome]
    ) -> DiagnosisReport:
        if len(alive) == 1:
            # One class left (the fault-free row 0 reports no syndrome).
            syndrome, fault_sets = self._classes[alive[0]]
            return DiagnosisReport(syndrome=syndrome, candidates=list(fault_sets))
        # Chip outside the hypothesis space (no survivors) or a
        # budget-capped session (several survivors): report what is known.
        observed_syndrome = tuple(
            (o.vector.name, _signature(o.observed))
            for o in outcomes
            if not o.passed
        )
        candidates = [fs for row in alive for fs in self._classes[row][1]]
        return DiagnosisReport(syndrome=observed_syndrome, candidates=candidates)


def adaptive_diagnose(
    dictionary: FaultDictionary,
    chip: ChipUnderTest,
    max_vectors: int | None = None,
) -> AdaptiveDiagnosisResult:
    """One-shot convenience wrapper around :class:`AdaptiveDiagnoser`."""
    return AdaptiveDiagnoser(dictionary).diagnose(chip, max_vectors=max_vectors)

"""Test vectors and test sets.

A *test vector* (section II, problem formulation) defines the open/closed
state of every valve while test pressure is applied at the source ports and
read at the sink ports.  We store the commanded-open valve set (every valve
not listed is commanded closed — both flow-path and cut-set vectors are
naturally sparse in one direction) together with the fault-free expected
meter readings.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.fpva.array import FPVA
from repro.fpva.components import ValveState
from repro.fpva.geometry import Cell, Edge, edge_between


class VectorKind(enum.Enum):
    """Which family a vector belongs to (Table I columns)."""

    FLOW_PATH = "flow-path"  # detects stuck-at-0 (n_p)
    CUT_SET = "cut-set"  # detects stuck-at-1 (n_c)
    LEAKAGE = "control-leakage"  # detects control-layer leakage (n_l)
    BASELINE = "baseline"  # naive single-valve vectors


@dataclass(frozen=True)
class TestVector:
    """One applied pattern plus its fault-free expected observation.

    ``open_valves`` are commanded open; every other valve of the array is
    commanded closed.  ``expected`` maps sink-port names to the pressure
    reading a defect-free chip produces.  ``provenance`` records the
    structure the vector was derived from (path cells, wall junctions, ...)
    for rendering and debugging.
    """

    __test__ = False  # not a pytest test class despite the name

    name: str
    kind: VectorKind
    open_valves: frozenset[Edge]
    expected: Mapping[str, bool]
    provenance: tuple = ()

    def state_of(self, valve: Edge) -> ValveState:
        """Commanded state of a valve under this vector."""
        return (
            ValveState.OPEN if valve in self.open_valves else ValveState.CLOSED
        )

    def closed_valves(self, fpva: FPVA) -> frozenset[Edge]:
        """All valves commanded closed on ``fpva``."""
        return frozenset(fpva.valves) - self.open_valves

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind.value,
            "open_valves": sorted([list(v.a), list(v.b)] for v in self.open_valves),
            "expected": dict(self.expected),
        }

    def __repr__(self):
        return (
            f"TestVector({self.name!r}, {self.kind.value}, "
            f"{len(self.open_valves)} open)"
        )


@dataclass
class TestSet:
    """The complete generated suite for one array.

    Sections mirror Table I: ``flow_paths`` (n_p), ``cut_sets`` (n_c) and
    ``leakage`` (n_l).
    """

    __test__ = False  # not a pytest test class despite the name

    fpva: FPVA
    flow_paths: list[TestVector] = field(default_factory=list)
    cut_sets: list[TestVector] = field(default_factory=list)
    leakage: list[TestVector] = field(default_factory=list)

    @property
    def np_paths(self) -> int:
        return len(self.flow_paths)

    @property
    def nc_cuts(self) -> int:
        return len(self.cut_sets)

    @property
    def nl_leak(self) -> int:
        return len(self.leakage)

    @property
    def total(self) -> int:
        """Total vector count N = n_p + n_c + n_l."""
        return self.np_paths + self.nc_cuts + self.nl_leak

    def __iter__(self) -> Iterator[TestVector]:
        yield from self.flow_paths
        yield from self.cut_sets
        yield from self.leakage

    def __len__(self) -> int:
        return self.total

    def all_vectors(self) -> list[TestVector]:
        return list(self)

    def summary(self) -> str:
        return (
            f"{self.fpva.name}: N={self.total} "
            f"(n_p={self.np_paths}, n_c={self.nc_cuts}, n_l={self.nl_leak})"
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the suite (for archiving generated vectors)."""
        payload = {
            "array": self.fpva.name,
            "dimensions": [self.fpva.nr, self.fpva.nc],
            "flow_paths": [v.to_dict() for v in self.flow_paths],
            "cut_sets": [v.to_dict() for v in self.cut_sets],
            "leakage": [v.to_dict() for v in self.leakage],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, fpva: FPVA, text: str | bytes) -> "TestSet":
        """Rebuild a suite :meth:`to_json` wrote for ``fpva``.

        Each vector is rebuilt through :func:`vector_from_open_set`, so the
        result re-serializes byte for byte and addresses the same
        dictionaries and campaign shards as the suite that was written.
        ``provenance`` is not serialized and comes back empty.  A suite
        written for another array raises :exc:`ValueError`.
        """
        data = json.loads(text)
        shape = [fpva.nr, fpva.nc]
        if data["array"] != fpva.name or data["dimensions"] != shape:
            raise ValueError(
                f"suite for {data['array']!r} {data['dimensions']} does not "
                f"belong to {fpva.name!r} {shape}"
            )

        def section(key: str) -> list[TestVector]:
            return [
                vector_from_open_set(
                    fpva,
                    item["name"],
                    VectorKind(item["kind"]),
                    (
                        edge_between(Cell(*a), Cell(*b))
                        for a, b in item["open_valves"]
                    ),
                    item["expected"],
                )
                for item in data[key]
            ]

        return cls(
            fpva=fpva,
            flow_paths=section("flow_paths"),
            cut_sets=section("cut_sets"),
            leakage=section("leakage"),
        )


def vector_from_open_set(
    fpva: FPVA,
    name: str,
    kind: VectorKind,
    open_valves: Iterable[Edge],
    expected: Mapping[str, bool],
    provenance: tuple = (),
) -> TestVector:
    """Build a vector, checking every opened edge is a real valve."""
    open_set = frozenset(open_valves)
    bogus = open_set - fpva.valve_set
    if bogus:
        raise ValueError(f"vector {name!r} opens non-valve edges: {sorted(bogus)[:3]}")
    return TestVector(
        name=name,
        kind=kind,
        open_valves=open_set,
        expected=dict(expected),
        provenance=provenance,
    )

"""Fault model (section II of the paper), plus scenario extensions.

The four manufacturing defects of Fig 3 map onto three valve-level faults:

* broken flow channel → the valve at the channel entrance can never open:
  :class:`StuckAt0`;
* leaking flow channel → the valve separating the two channels can never
  close: :class:`StuckAt1`;
* broken control channel → actuation pressure never arrives, the valve can
  never close: :class:`StuckAt1`;
* leaking control channel → two valves close simultaneously whenever either
  control line is pressurized: :class:`ControlLeak`.

Beyond the paper's three models, the engine's scenario registry
(:mod:`repro.engine.scenarios`) draws on two further fault kinds:

* :class:`IntermittentStuckAt` — a marginal valve seat that misbehaves on
  only a fraction of actuations.  Whether the fault fires is a
  *deterministic* function of the applied vector (a keyed hash of the
  vector name), so a chip carrying one behaves identically no matter how
  many times, or in which order, vectors are applied — the property that
  makes dictionary and adaptive diagnosis agree;
* :class:`ChannelBlocked` — debris physically obstructing a flow edge.  On
  a valve edge it overrides any commanded or stuck behaviour; on a
  permanent transport channel it closes a connection the simulator
  otherwise treats as always open.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from repro.fpva.array import FPVA
from repro.fpva.control import control_adjacent_pairs
from repro.fpva.geometry import Edge


@dataclass(frozen=True)
class StuckAt0:
    """The valve can never open (always closed)."""

    valve: Edge

    def __repr__(self):
        return f"SA0({self.valve})"


@dataclass(frozen=True)
class StuckAt1:
    """The valve can never close (always open)."""

    valve: Edge

    def __repr__(self):
        return f"SA1({self.valve})"


@dataclass(frozen=True)
class ControlLeak:
    """Control-line leakage between two valves: closing either closes both."""

    a: Edge
    b: Edge

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("control leak needs two distinct valves")
        if self.b < self.a:  # normalize order
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def valves(self) -> tuple[Edge, Edge]:
        return (self.a, self.b)

    def __repr__(self):
        return f"Leak({self.a}~{self.b})"


@dataclass(frozen=True)
class IntermittentStuckAt:
    """A valve that misbehaves on a deterministic fraction of vectors.

    ``stuck_open`` selects the failure polarity (True: the seat fails to
    close, like a transient :class:`StuckAt1`; False: it fails to open).
    ``rate`` is the long-run fraction of vectors on which the fault fires;
    ``salt`` keys the per-vector hash so distinct physical defects on the
    same valve produce distinct firing patterns.
    """

    valve: Edge
    stuck_open: bool = True
    rate: float = 0.5
    salt: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"intermittent rate must be in (0, 1], got {self.rate}")

    def fires_on(self, vector_key: str) -> bool:
        """Deterministic per-vector activation (stable across processes)."""
        digest = hashlib.blake2b(
            f"{self.salt}:{self.valve!r}:{vector_key}".encode(),
            digest_size=8,
        ).digest()
        draw = int.from_bytes(digest, "big") / float(1 << 64)
        return draw < self.rate

    def __repr__(self):
        mode = "open" if self.stuck_open else "closed"
        return f"Flaky{mode}({self.valve}@{self.rate:g})"


@dataclass(frozen=True)
class ChannelBlocked:
    """Debris obstructing a flow edge (valve or permanent channel)."""

    edge: Edge

    def __repr__(self):
        return f"Blocked({self.edge})"


Fault = Union[StuckAt0, StuckAt1, ControlLeak, IntermittentStuckAt, ChannelBlocked]


def stuck_at_faults(fpva: FPVA) -> list[Fault]:
    """Both stuck-at faults for every valve."""
    out: list[Fault] = []
    for valve in fpva.valves:
        out.append(StuckAt0(valve))
        out.append(StuckAt1(valve))
    return out


def untestable_leak_pairs(fpva: FPVA) -> frozenset[frozenset[Edge]]:
    """Control pairs no pressure test can distinguish from a good chip.

    If two valves are the only two openings of a shared cell (a degree-2
    dead-end cell with no port), every flow route through one of them must
    also use the other — so neither "aggressor closed, victim live" pattern
    is realizable and the leak between them is physically undetectable at
    the meters.  The paper's random-injection experiment ("test vectors
    captured all the faults") implicitly ranges over detectable faults, so
    the campaign sampler excludes these pairs by default.
    """
    degree: dict = {}
    for edge in fpva.flow_edges:
        for cell in edge.cells:
            degree[cell] = degree.get(cell, 0) + 1
    for port in fpva.ports:
        cell = port.cell(fpva.nr, fpva.nc)
        degree[cell] = degree.get(cell, 0) + 1

    out: set[frozenset[Edge]] = set()
    for pair in control_adjacent_pairs(fpva):
        a, b = tuple(pair)
        shared = set(a.cells) & set(b.cells)
        if shared and degree[next(iter(shared))] == 2:
            out.add(pair)
    return frozenset(out)


def control_leak_faults(fpva: FPVA, testable_only: bool = True) -> list[Fault]:
    """One :class:`ControlLeak` per control-adjacent valve pair."""
    skip = untestable_leak_pairs(fpva) if testable_only else frozenset()
    out: list[Fault] = []
    for pair in sorted(control_adjacent_pairs(fpva), key=sorted):
        if pair in skip:
            continue
        a, b = sorted(pair)
        out.append(ControlLeak(a, b))
    return out


def fault_universe(
    fpva: FPVA,
    include_control_leaks: bool = True,
    testable_only: bool = True,
) -> list[Fault]:
    """Every injectable fault of the array.

    ``testable_only`` drops the physically undetectable control-leak pairs
    (see :func:`untestable_leak_pairs`); pass False to get the raw universe.
    """
    out = stuck_at_faults(fpva)
    if include_control_leaks:
        out.extend(control_leak_faults(fpva, testable_only=testable_only))
    return out


def faults_compatible(faults: Sequence[Fault]) -> bool:
    """True if the fault set is physically consistent: no two of its
    faults share a :func:`compatibility_key`.

    A single valve cannot be simultaneously stuck-at-0 and stuck-at-1 (a
    flow channel cannot be both permanently blocked and permanently leaking
    at the same valve seat).  Intermittent and blockage faults occupy their
    seat exclusively: stacking one on a seat that already carries any other
    seat-level fault is rejected, since the behaviours are physically
    contradictory or indistinguishable compositions.  Duplicate faults are
    rejected too.
    """
    keys = [compatibility_key(f) for f in faults]
    return len(set(keys)) == len(keys)


def compatibility_key(fault: Fault) -> object:
    """The one array resource a fault occupies.

    A stuck-at or intermittent fault holds its valve's seat, a blockage
    its flow edge (a valve edge's seat is the valve), and a control leak
    only itself; :func:`faults_compatible` admits a set exactly when its
    keys are pairwise distinct, which enumeration hot loops test on
    interned keys alone.
    """
    if isinstance(fault, (StuckAt0, StuckAt1, IntermittentStuckAt)):
        return fault.valve
    if isinstance(fault, ChannelBlocked):
        return fault.edge
    return fault


def max_compatible_faults(universe: Iterable[Fault]) -> int:
    """Size of the largest compatible fault set drawn from ``universe``:
    a chip carries at most one fault per :func:`compatibility_key`."""
    return len({compatibility_key(f) for f in universe})


def faulty_valves(faults: Iterable[Fault]) -> set[Edge]:
    """All valves/edges touched by any fault in the set."""
    out: set[Edge] = set()
    for f in faults:
        if isinstance(f, (StuckAt0, StuckAt1, IntermittentStuckAt)):
            out.add(f.valve)
        elif isinstance(f, ChannelBlocked):
            out.add(f.edge)
        else:
            out.update(f.valves)
    return out

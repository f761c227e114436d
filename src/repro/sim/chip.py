"""A chip under test: an FPVA plus a set of manufacturing faults.

Given a commanded test vector, :class:`ChipUnderTest` computes the
*effective* open valve set (and, for blockage faults, the physically
obstructed edges):

1. start from the commanded states (open set; everything else closed);
2. propagate control-layer leaks: pressurizing one leaking line closes its
   partner too — propagation is transitive across chained leaks;
3. apply stuck-at overrides: a stuck-at-1 valve is open no matter what, a
   stuck-at-0 valve is closed no matter what (a physically broken flow
   channel cannot be re-opened by control pressure, so SA0 wins over SA1 in
   the impossible event both are injected — the fault sampler forbids it);
4. apply intermittent faults that fire on this vector (a keyed hash of the
   vector name decides, so chip behaviour is a deterministic function of
   the vector — independent of application order or repetition);
5. blockage faults override everything: an obstructed valve edge is closed
   regardless of state, an obstructed channel edge is reported in the
   blocked set for the simulator to exclude.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge
from repro.sim.faults import (
    ChannelBlocked,
    ControlLeak,
    Fault,
    IntermittentStuckAt,
    StuckAt0,
    StuckAt1,
    faults_compatible,
)


class ChipUnderTest:
    """An FPVA with zero or more injected faults."""

    def __init__(self, fpva: FPVA, faults: Sequence[Fault] = ()):
        self.fpva = fpva
        self.faults = tuple(faults)
        if not faults_compatible(self.faults):
            raise ValueError(f"incompatible fault set: {self.faults}")
        self._sa0 = {f.valve for f in self.faults if isinstance(f, StuckAt0)}
        self._sa1 = {f.valve for f in self.faults if isinstance(f, StuckAt1)}
        self._intermittent = tuple(
            f for f in self.faults if isinstance(f, IntermittentStuckAt)
        )
        self._blocked = frozenset(
            f.edge for f in self.faults if isinstance(f, ChannelBlocked)
        )
        self._leaks: dict[Edge, list[Edge]] = defaultdict(list)
        for f in self.faults:
            if isinstance(f, ControlLeak):
                self._leaks[f.a].append(f.b)
                self._leaks[f.b].append(f.a)
        for valve in (
            self._sa0
            | self._sa1
            | set(self._leaks)
            | {f.valve for f in self._intermittent}
        ):
            if valve not in fpva.valve_set:
                raise ValueError(f"fault on non-existent valve {valve}")
        flow_edges = frozenset(fpva.flow_edges)
        for edge in self._blocked:
            if edge not in flow_edges:
                raise ValueError(f"blockage on non-existent flow edge {edge}")

    def effective_open_valves(
        self,
        commanded_open: Iterable[Edge],
        vector_key: str | None = None,
    ) -> frozenset[Edge]:
        """The valves that are physically open under the commanded pattern.

        ``vector_key`` identifies the applied vector for intermittent
        faults; a chip carrying one cannot be evaluated without it.
        """
        open_set = set(commanded_open)

        if self._leaks:
            # Control pressure spreads transitively through leaking lines:
            # every commanded-closed valve pressurizes its line; partners of
            # pressurized lines become pressurized (closed) as well.
            closed = {
                v for v in self.fpva.valves if v not in open_set
            }
            frontier = deque(v for v in closed if v in self._leaks)
            while frontier:
                v = frontier.popleft()
                for partner in self._leaks[v]:
                    if partner not in closed:
                        closed.add(partner)
                        open_set.discard(partner)
                        if partner in self._leaks:
                            frontier.append(partner)

        open_set.update(self._sa1)
        open_set.difference_update(self._sa0)

        if self._intermittent:
            if vector_key is None:
                raise ValueError(
                    "chip has intermittent faults; vector identity is "
                    "required to evaluate them (pass vector_key or use "
                    "effective_state)"
                )
            for fault in self._intermittent:
                if fault.fires_on(vector_key):
                    if fault.stuck_open:
                        open_set.add(fault.valve)
                    else:
                        open_set.discard(fault.valve)

        open_set.difference_update(self._blocked)
        return frozenset(open_set)

    def effective_state(
        self, vector: TestVector
    ) -> tuple[frozenset[Edge], frozenset[Edge]]:
        """Physically open valves and physically blocked edges for a vector."""
        open_set = self.effective_open_valves(
            vector.open_valves, vector_key=vector.name
        )
        return open_set, self._blocked

    def __repr__(self):
        return f"ChipUnderTest({self.fpva.name!r}, {len(self.faults)} faults)"

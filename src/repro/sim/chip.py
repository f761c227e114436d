"""A chip under test: an FPVA plus a set of manufacturing faults.

:class:`ChipUnderTest` holds the faults and checks at construction that
they can coexist on the array.  How they change a commanded test vector
into effective valve states is the fault model, defined once on arrays
by :class:`~repro.sim.kernel.FaultFold`;
:class:`~repro.sim.tester.Tester` applies a chip through it.
"""

from __future__ import annotations

from typing import Sequence

from repro.fpva.array import FPVA
from repro.sim.faults import (
    ChannelBlocked,
    Fault,
    faults_compatible,
    faulty_valves,
)


class ChipUnderTest:
    """An FPVA with zero or more injected faults."""

    def __init__(self, fpva: FPVA, faults: Sequence[Fault] = ()):
        self.fpva = fpva
        self.faults = tuple(faults)
        if not faults_compatible(self.faults):
            raise ValueError(f"incompatible fault set: {self.faults}")
        blocked = [f.edge for f in self.faults if isinstance(f, ChannelBlocked)]
        on_valves = [f for f in self.faults if not isinstance(f, ChannelBlocked)]
        for valve in faulty_valves(on_valves):
            if valve not in fpva.valve_set:
                raise ValueError(f"fault on non-existent valve {valve}")
        flow_edges = frozenset(fpva.flow_edges)
        for edge in blocked:
            if edge not in flow_edges:
                raise ValueError(f"blockage on non-existent flow edge {edge}")

    def __repr__(self):
        return f"ChipUnderTest({self.fpva.name!r}, {len(self.faults)} faults)"

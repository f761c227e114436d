"""Control-layer model.

Every valve is driven by its own control line (the paper's arrays are fully
programmable: each valve is individually addressable).  The control lines of
physically neighbouring valves run close together, so the leaking-control-
channel defect of Fig 3(d) couples *adjacent* valves: actuating one valve's
line also pressurizes (closes) the neighbour.

We model leakage candidates as unordered pairs of valves that share a
junction (the lattice corner where their channel segments meet) — this
covers both collinear neighbours and perpendicular "turning" neighbours.
"""

from __future__ import annotations

from collections import defaultdict

from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge, Junction


def valves_by_junction(fpva: FPVA) -> dict[Junction, list[Edge]]:
    """Map each junction to the valves whose dual edge touches it."""
    by_junction: dict[Junction, list[Edge]] = defaultdict(list)
    for valve in fpva.valves:
        for j in valve.dual():
            by_junction[j].append(valve)
    return dict(by_junction)


def control_adjacent_pairs(fpva: FPVA) -> frozenset[frozenset[Edge]]:
    """All candidate control-leakage pairs: valves sharing a junction."""
    pairs: set[frozenset[Edge]] = set()
    for valves in valves_by_junction(fpva).values():
        for i, a in enumerate(valves):
            for b in valves[i + 1 :]:
                pairs.add(frozenset((a, b)))
    return frozenset(pairs)


def neighbors_of(fpva: FPVA, valve: Edge) -> tuple[Edge, ...]:
    """Valves control-adjacent to ``valve`` (sharing a junction)."""
    by_junction = valves_by_junction(fpva)
    out: set[Edge] = set()
    for j in valve.dual():
        out.update(by_junction.get(j, ()))
    out.discard(valve)
    return tuple(sorted(out))


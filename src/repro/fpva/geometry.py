"""Lattice geometry of an FPVA.

The chip is modeled as the interleaved lattice the paper's constraint (1)
implies:

* **Cells** — fluid chambers at integer coordinates ``(r, c)`` with
  ``1 <= r <= n_r`` and ``1 <= c <= n_c`` (the paper's row/column indexing).
  Cell ``(r, c)`` occupies the unit square ``[r-1, r] x [c-1, c]``.
* **Valves** — one per edge between orthogonally adjacent cells.  A valve is
  identified by the (normalized) pair of cells it separates.
* **Junctions** — the corner points ``(r, c)`` with ``0 <= r <= n_r`` and
  ``0 <= c <= n_c``.  Junctions form the planar dual lattice: each valve
  corresponds to exactly one *dual edge* between the two junctions at the
  ends of the wall segment it sits on.  Cut-sets are paths in this dual
  lattice (section III-C of the paper).

The chip boundary (the perimeter of the ``n_r x n_c`` cell block) is sealed
except where ports breach it; the breached perimeter segments are *gaps*
identified by the junction pair at their ends.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple


class Cell(NamedTuple):
    """A fluid cell at 1-based ``(row, col)``."""

    r: int
    c: int

    def __repr__(self):
        return f"Cell({self.r},{self.c})"


class Junction(NamedTuple):
    """A valve-corner lattice point at 0-based ``(row, col)``."""

    r: int
    c: int

    def __repr__(self):
        return f"J({self.r},{self.c})"


class Side(enum.Enum):
    """A side of the chip."""

    NORTH = "north"
    EAST = "east"
    SOUTH = "south"
    WEST = "west"


class Orientation(enum.Enum):
    """Orientation of an edge (the direction fluid flows through it)."""

    HORIZONTAL = "horizontal"  # connects cells in the same row
    VERTICAL = "vertical"  # connects cells in the same column


class Edge(NamedTuple):
    """An undirected flow edge between two adjacent cells (normalized a < b).

    Use :func:`edge_between` to construct; it normalizes the endpoint order
    so edges compare and hash consistently.
    """

    a: Cell
    b: Cell

    @property
    def orientation(self) -> Orientation:
        if self.a.r == self.b.r:
            return Orientation.HORIZONTAL
        return Orientation.VERTICAL

    @property
    def cells(self) -> tuple[Cell, Cell]:
        return (self.a, self.b)

    def other(self, cell: Cell) -> Cell:
        if cell == self.a:
            return self.b
        if cell == self.b:
            return self.a
        raise ValueError(f"{cell} is not an endpoint of {self}")

    def dual(self) -> tuple[Junction, Junction]:
        """The junction pair at the ends of this edge's wall segment.

        A horizontal edge between cells ``(r, c)`` and ``(r, c+1)`` crosses
        the vertical wall segment from junction ``(r-1, c)`` to ``(r, c)``.
        A vertical edge between ``(r, c)`` and ``(r+1, c)`` crosses the
        horizontal segment from junction ``(r, c-1)`` to ``(r, c)``.
        """
        if self.orientation is Orientation.HORIZONTAL:
            r, c = self.a.r, self.a.c
            return (Junction(r - 1, c), Junction(r, c))
        r, c = self.a.r, self.a.c
        return (Junction(r, c - 1), Junction(r, c))

    def __repr__(self):
        return f"Edge[{self.a.r},{self.a.c}|{self.b.r},{self.b.c}]"


def edge_between(c1: Cell, c2: Cell) -> Edge:
    """The normalized edge between two orthogonally adjacent cells."""
    if not cells_adjacent(c1, c2):
        raise ValueError(f"cells {c1} and {c2} are not orthogonally adjacent")
    return Edge(min(c1, c2), max(c1, c2))


def cells_adjacent(c1: Cell, c2: Cell) -> bool:
    """True if the two cells share a wall segment."""
    return abs(c1.r - c2.r) + abs(c1.c - c2.c) == 1


def neighbors4(cell: Cell) -> tuple[Cell, Cell, Cell, Cell]:
    """The four orthogonal neighbour coordinates (may be out of bounds)."""
    r, c = cell
    return (Cell(r - 1, c), Cell(r + 1, c), Cell(r, c - 1), Cell(r, c + 1))


def in_bounds(cell: Cell, nr: int, nc: int) -> bool:
    return 1 <= cell.r <= nr and 1 <= cell.c <= nc


def iter_cells(nr: int, nc: int) -> Iterator[Cell]:
    for r in range(1, nr + 1):
        for c in range(1, nc + 1):
            yield Cell(r, c)


def iter_interior_edges(nr: int, nc: int) -> Iterator[Edge]:
    """All edges of the full ``nr x nc`` cell grid (``2*nr*nc - nr - nc``)."""
    for r in range(1, nr + 1):
        for c in range(1, nc + 1):
            if c < nc:
                yield Edge(Cell(r, c), Cell(r, c + 1))
            if r < nr:
                yield Edge(Cell(r, c), Cell(r + 1, c))


def junctions_of_cell(cell: Cell) -> tuple[Junction, ...]:
    """The four corner junctions of a cell."""
    r, c = cell
    return (
        Junction(r - 1, c - 1),
        Junction(r - 1, c),
        Junction(r, c - 1),
        Junction(r, c),
    )


def is_boundary_junction(j: Junction, nr: int, nc: int) -> bool:
    return j.r in (0, nr) or j.c in (0, nc)


def perimeter_junction_cycle(nr: int, nc: int) -> list[Junction]:
    """Boundary junctions in clockwise order starting from ``(0, 0)``.

    The returned list is a cycle: consecutive entries (and last→first) are
    the endpoints of consecutive perimeter wall segments.
    """
    cycle: list[Junction] = []
    for c in range(0, nc + 1):  # north edge, west→east
        cycle.append(Junction(0, c))
    for r in range(1, nr + 1):  # east edge, north→south
        cycle.append(Junction(r, nc))
    for c in range(nc - 1, -1, -1):  # south edge, east→west
        cycle.append(Junction(nr, c))
    for r in range(nr - 1, 0, -1):  # west edge, south→north
        cycle.append(Junction(r, 0))
    return cycle


def boundary_cell(side: Side, index: int, nr: int, nc: int) -> Cell:
    """The boundary cell at 1-based position ``index`` along ``side``.

    For NORTH/SOUTH, ``index`` is the column; for EAST/WEST it is the row.
    """
    if side is Side.NORTH:
        cell = Cell(1, index)
    elif side is Side.SOUTH:
        cell = Cell(nr, index)
    elif side is Side.WEST:
        cell = Cell(index, 1)
    else:
        cell = Cell(index, nc)
    if not in_bounds(cell, nr, nc):
        raise ValueError(f"port position {side}/{index} outside a {nr}x{nc} array")
    return cell


def port_gap(side: Side, cell: Cell) -> tuple[Junction, Junction]:
    """The perimeter segment (junction pair) a port at ``cell`` breaches."""
    r, c = cell
    if side is Side.NORTH:
        return (Junction(r - 1, c - 1), Junction(r - 1, c))
    if side is Side.SOUTH:
        return (Junction(r, c - 1), Junction(r, c))
    if side is Side.WEST:
        return (Junction(r - 1, c - 1), Junction(r, c - 1))
    return (Junction(r - 1, c), Junction(r, c))


def side_of_boundary_cell(cell: Cell, nr: int, nc: int) -> list[Side]:
    """All chip sides the cell touches (corner cells touch two)."""
    sides = []
    if cell.r == 1:
        sides.append(Side.NORTH)
    if cell.r == nr:
        sides.append(Side.SOUTH)
    if cell.c == 1:
        sides.append(Side.WEST)
    if cell.c == nc:
        sides.append(Side.EAST)
    return sides


def full_grid_valve_count(nr: int, nc: int) -> int:
    """Number of interior edges (valve positions) of a full grid."""
    return 2 * nr * nc - nr - nc

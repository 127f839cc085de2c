"""Routing-path-parameterised qubit layouts (paper Fig. 3).

A layout hosts a ``k x k`` block of data qubits and ``r`` routing paths made
of bus qubits.  Paths are added in a fixed order: the four boundary edges
(top, left, bottom, right) and then internal bus columns and rows inserted
alternately between data rows/columns, evenly spread.  The maximum is
``r = 2k + 2`` (all edges + every internal gap), at which point every data
qubit is fully surrounded by bus — the fully-provisioned regime of prior
work.

For a 10x10 data block this reproduces the paper's qubit counts:
r=2 -> 121, r=3 -> 132, r=4 -> 144, r=5 -> 156, r=6 -> 169, r=10 -> 225,
r=22 -> 441.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .grid import CellRole, Grid, Position


class LayoutError(ValueError):
    """Raised for unsatisfiable layout requests."""


@dataclass
class Layout:
    """A populated grid plus the bookkeeping the compiler needs.

    Attributes:
        grid: the :class:`~repro.arch.grid.Grid` with roles assigned.
        side_rows / side_cols: data block dimensions (k x k when square).
        num_data: number of data qubit slots actually used by the program.
        routing_paths: the ``r`` parameter.
        data_slots: row-major positions reserved for data qubits.
        port_positions: boundary bus cells where factory output arrives.
    """

    grid: Grid
    side_rows: int
    side_cols: int
    num_data: int
    routing_paths: int
    data_slots: List[Position] = field(default_factory=list)
    port_positions: List[Position] = field(default_factory=list)

    @property
    def total_qubits(self) -> int:
        """Logical qubits in the computation block (data + bus, no factories)."""
        return self.grid.num_cells

    @property
    def num_bus(self) -> int:
        """Bus/ancilla qubit count."""
        return self.total_qubits - len(self.data_slots)

    @property
    def data_to_ancilla_ratio(self) -> float:
        """Data : ancilla ratio (paper quotes ~2:1 for r=3,4)."""
        bus = self.num_bus
        return len(self.data_slots) / bus if bus else math.inf

    def describe(self) -> str:
        return (
            f"layout r={self.routing_paths}: grid {self.grid.rows}x{self.grid.cols}"
            f" = {self.total_qubits} qubits ({len(self.data_slots)} data slots,"
            f" {self.num_bus} bus)"
        )


def max_routing_paths(side: int) -> int:
    """The 2k+2 upper limit of Fig. 12."""
    return 2 * side + 2


def _spread_gap_indices(num_gaps: int, picks: int) -> List[int]:
    """Choose ``picks`` of ``num_gaps`` inter-data gaps, evenly spread.

    Deterministic and nested-ish: picks are placed at evenly spaced
    fractions of the gap range so successive r values change the layout
    incrementally.
    """
    if picks > num_gaps:
        raise LayoutError(f"cannot insert {picks} paths into {num_gaps} gaps")
    if picks == 0:
        return []
    chosen: List[int] = []
    for i in range(picks):
        idx = round((i + 1) * (num_gaps + 1) / (picks + 1)) - 1
        idx = min(max(idx, 0), num_gaps - 1)
        while idx in chosen:
            idx += 1
            if idx >= num_gaps:
                idx = 0
        chosen.append(idx)
    return sorted(chosen)


def _axis_offsets(side: int, leading: bool, internal: int) -> List[int]:
    """Grid coordinates of the data lines along one axis.

    Args:
        side: number of data rows (or columns).
        leading: whether a bus edge precedes the block.
        internal: number of internal bus lines inserted between data lines.

    Returns:
        For each data index 0..side-1, its grid coordinate.
    """
    gaps = _spread_gap_indices(side - 1, internal) if side > 1 else []
    coords: List[int] = []
    cursor = 1 if leading else 0
    for i in range(side):
        coords.append(cursor)
        cursor += 1
        if i in gaps:
            cursor += 1  # skip a bus line
    return coords


def routing_plan(num_data: int, routing_paths: int) -> Tuple[int, int, int, int]:
    """``(side_rows, side_cols, internal_rows, internal_cols)`` for ``r`` paths.

    The data block is the smallest near-square rectangle holding
    ``num_data`` qubits (exact ``k x k`` for square counts, the paper's
    benchmark sizes 4, 16, 36, 64, 100 all are).  Raises
    :class:`LayoutError` for every ``(num_data, r)`` with no layout.
    """
    if num_data < 1:
        raise LayoutError("need at least one data qubit")
    if routing_paths < 1:
        raise LayoutError("need at least one routing path (r >= 1)")

    side_cols = math.ceil(math.sqrt(num_data))
    side_rows = math.ceil(num_data / side_cols)
    side = max(side_rows, side_cols)
    limit = max_routing_paths(side)
    if routing_paths > limit:
        raise LayoutError(
            f"r={routing_paths} exceeds the 2k+2={limit} limit for k={side}"
        )

    # Order of path insertion: top, left, bottom, right, then alternating
    # internal columns / rows.
    extra = max(0, routing_paths - 4)
    internal_cols = (extra + 1) // 2
    internal_rows = extra // 2
    if internal_cols > side_cols - 1 or internal_rows > side_rows - 1:
        # Rebalance if the rectangle is uneven (non-square data counts).
        overflow_cols = max(0, internal_cols - (side_cols - 1))
        overflow_rows = max(0, internal_rows - (side_rows - 1))
        internal_cols = internal_cols - overflow_cols + overflow_rows
        internal_rows = internal_rows - overflow_rows + overflow_cols
        if internal_cols > side_cols - 1 or internal_rows > side_rows - 1:
            raise LayoutError(
                f"r={routing_paths} unsatisfiable for {side_rows}x{side_cols} data block"
            )
    return side_rows, side_cols, internal_rows, internal_cols


def build_layout(num_data: int, routing_paths: int) -> Layout:
    """Construct the Fig. 3 layout for ``num_data`` qubits and ``r`` paths.

    Raises :class:`LayoutError` where :func:`routing_plan` does.
    """
    side_rows, side_cols, internal_rows, internal_cols = routing_plan(
        num_data, routing_paths
    )
    top = routing_paths >= 1
    left = routing_paths >= 2
    bottom = routing_paths >= 3
    right = routing_paths >= 4

    row_coords = _axis_offsets(side_rows, leading=top, internal=internal_rows)
    col_coords = _axis_offsets(side_cols, leading=left, internal=internal_cols)

    rows = row_coords[-1] + 1 + (1 if bottom else 0)
    cols = col_coords[-1] + 1 + (1 if right else 0)

    grid = Grid(rows, cols)  # every cell defaults to BUS
    data_slots: List[Position] = []
    for i in range(side_rows):
        for j in range(side_cols):
            if len(data_slots) >= num_data:
                break
            pos = (row_coords[i], col_coords[j])
            grid.set_role(pos, CellRole.DATA)
            data_slots.append(pos)

    layout = Layout(
        grid=grid,
        side_rows=side_rows,
        side_cols=side_cols,
        num_data=num_data,
        routing_paths=routing_paths,
        data_slots=data_slots,
    )
    layout.port_positions = _default_ports(layout)
    return layout


def _boundary_bus_cells(layout: Layout) -> List[Position]:
    """Bus cells on the outer boundary of the grid, clockwise from (0, 0)."""
    grid = layout.grid
    ring: List[Position] = []
    r_max, c_max = grid.rows - 1, grid.cols - 1
    ring.extend((0, c) for c in range(grid.cols))
    ring.extend((r, c_max) for r in range(1, grid.rows))
    ring.extend((r_max, c) for c in range(c_max - 1, -1, -1))
    ring.extend((r, 0) for r in range(r_max - 1, 0, -1))
    return [p for p in ring if grid.role(p) == CellRole.BUS]


def _default_ports(layout: Layout, max_ports: Optional[int] = None) -> List[Position]:
    """Spread candidate factory ports around the boundary bus ring."""
    ring = _boundary_bus_cells(layout)
    if not ring:
        raise LayoutError("layout has no boundary bus cells for factory ports")
    limit = max_ports if max_ports is not None else 8
    count = min(limit, len(ring))
    step = len(ring) / count
    return [ring[int(i * step)] for i in range(count)]


#: boundary bus cells that must stay port-free.  Ports become transit-only
#: (no parking), so handing too many boundary bus cells to factories strips
#: a small layout of its alignment/eviction room and wedges the scheduler
#: on the first CNOT — found by the fuzzer on 1x2 through 3x3 data blocks
#: with four factories at r=2.
PORT_FREE_RESERVE = 2


def _max_distinct_ports(ring_size: int) -> int:
    """Distinct boundary cells factories may claim without bricking the grid.

    Two constraints, both fuzzer-derived: keep an absolute reserve of
    :data:`PORT_FREE_RESERVE` cells, and never port more than half the
    ring — on r=2 layouts the ring is one edge plus a sliver, and porting
    a whole edge leaves data-block corners with no eviction room.
    """
    return max(1, min(ring_size - PORT_FREE_RESERVE, ring_size // 2))


def assign_factory_ports(layout: Layout, num_factories: int) -> List[Position]:
    """Pick one boundary port per factory, spread around the perimeter.

    More factories than the ring can safely port (see
    :func:`_max_distinct_ports`) wrap around: two factories then share a
    port, which serialises their delivery — exactly the congestion effect
    the paper's Fig. 9 measures.
    """
    if num_factories < 1:
        raise LayoutError("need at least one factory")
    ring = _boundary_bus_cells(layout)
    distinct = min(num_factories, _max_distinct_ports(len(ring)))
    step = max(1, len(ring) // distinct)
    ports = [ring[(i * step) % len(ring)] for i in range(distinct)]
    return [ports[i % distinct] for i in range(num_factories)]


def port_headroom(layout: Layout, num_factories: int) -> int:
    """Parkable bus cells left once ``num_factories`` ports are assigned.

    The fabric's slack for alignment, eviction and magic-state drop-offs.
    The fuzzer's architecture generator keeps this comfortably positive
    (dense r=2 blocks with near-zero headroom can wedge the displacement
    planner on long programs), and capacity planning can use it the same
    way.
    """
    ports = set(assign_factory_ports(layout, num_factories))
    return layout.num_bus - len(ports)


def layout_family(num_data: int, r_values: Optional[List[int]] = None) -> List[Layout]:
    """Layouts for a sweep over routing paths (Fig. 3's family).

    Args:
        num_data: data qubit count.
        r_values: explicit list of r values; defaults to every feasible r
            from 2 to 2k+2.
    """
    side = math.ceil(math.sqrt(num_data))
    if r_values is None:
        r_values = list(range(2, max_routing_paths(side) + 1))
    return [build_layout(num_data, r) for r in r_values]


def paper_r_values(side: int) -> List[int]:
    """The routing-path settings highlighted in the paper's figures."""
    candidates = [3, 4, 6, 10, 18, 22]
    limit = max_routing_paths(side)
    return [r for r in candidates if r <= limit]

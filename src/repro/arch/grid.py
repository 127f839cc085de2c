"""2D grid of logical surface-code patches with occupancy tracking.

Each cell of the grid holds one logical qubit patch (Fig. 1b of the paper).
Cells are classified by *role* — data sites, bus/ancilla sites forming
routing paths, factory sites and factory output ports — and carry a dynamic
*occupancy* (which program qubit, if any, currently lives there).

Coordinates are ``(row, col)`` with row 0 at the top, matching the paper's
figures.

Storage layout
--------------
The grid is the hottest data structure in the compiler: every scheduled
gate triggers Dijkstra searches and what-if displacement planning over it.
Cells are therefore kept as *flat parallel arrays* indexed by
``row * cols + col`` rather than an object graph:

* ``_role`` — list of :class:`CellRole` per cell;
* ``_occ`` — occupant program-qubit id (or ``None``) per cell;
* ``_routable_b`` / ``_parkable_b`` — bytearray role predicates, so the
  router's inner loop is a single indexed byte read;
* neighbor tables (4-connected and diagonal, as positions and as flat
  indices) are precomputed once per ``(rows, cols)`` shape and shared by
  every grid of that shape, including clones and scratch copies.

Row-major flat indices compare exactly like ``(row, col)`` tuples, so
index-based tie-breaking in the router matches position-based ordering.

Scratch mode (copy-on-write planning)
-------------------------------------
The routing heuristics constantly ask "what if" questions — displace this
blocker, walk this path — on a throwaway copy of the grid.  Instead of
deep-copying, :meth:`Grid.scratch` enters *scratch mode*: mutations apply
to the live arrays while an undo log records only the cells actually
touched, and leaving the ``with`` block rolls everything (including the
occupancy epoch) back in O(changes).  Scratch blocks nest LIFO, matching
the recursive structure of the displacement planner.

The :attr:`Grid.epoch` counter increments on every mutation and is
restored on rollback, so "same epoch" means "bit-identical occupancy and
roles" — the router keys its path cache on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..perf.profiler import profiled

Position = Tuple[int, int]


class CellRole(str, Enum):
    """Static classification of a grid cell."""

    DATA = "data"          # reserved for program data qubits
    BUS = "bus"            # routing path / operational ancilla
    FACTORY = "factory"    # body of a magic state distillation factory
    PORT = "port"          # factory output port (states emerge here)
    VOID = "void"          # outside the usable layout


#: roles magic states / moves may traverse (not factory interiors).
_ROUTABLE_ROLES = (CellRole.BUS, CellRole.DATA, CellRole.PORT)
#: roles where a data qubit may come to rest (ports are transit-only).
_PARKABLE_ROLES = (CellRole.BUS, CellRole.DATA)


@dataclass
class Cell:
    """One logical patch: static role plus dynamic occupant.

    Cells returned by :meth:`Grid.cell` / iteration are *snapshots* of the
    flat storage; mutate the grid through its methods, not through these.
    """

    position: Position
    role: CellRole
    occupant: Optional[int] = None  # program qubit id, or None

    @property
    def is_free(self) -> bool:
        """A cell is free when nothing occupies it and it is routable."""
        return self.occupant is None and self.role in _PARKABLE_ROLES


class GridError(RuntimeError):
    """Raised on invalid grid operations (e.g. moving onto an occupied cell)."""


#: per-shape neighbor tables: (rows, cols) -> (positions, nbr_pos, nbr_idx, diag_pos)
_SHAPE_TABLES: Dict[Tuple[int, int], tuple] = {}


def _tables_for(rows: int, cols: int) -> tuple:
    """Precomputed geometry for one grid shape (shared across instances)."""
    cached = _SHAPE_TABLES.get((rows, cols))
    if cached is not None:
        return cached
    positions: List[Position] = [
        (r, c) for r in range(rows) for c in range(cols)
    ]
    nbr_pos: List[Tuple[Position, ...]] = []
    nbr_idx: List[Tuple[int, ...]] = []
    nbr_sorted: List[Tuple[Tuple[Position, int], ...]] = []
    diag_pos: List[Tuple[Position, ...]] = []
    for r, c in positions:
        quad = [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
        inside = [
            p for p in quad if 0 <= p[0] < rows and 0 <= p[1] < cols
        ]
        nbr_pos.append(tuple(inside))
        nbr_idx.append(tuple(p[0] * cols + p[1] for p in inside))
        # Row-major position order (flat indices compare like positions) —
        # lets callers that need deterministic sorted neighbour scans skip
        # the per-call sort.
        nbr_sorted.append(
            tuple(sorted((p, p[0] * cols + p[1]) for p in inside))
        )
        diag = [(r - 1, c - 1), (r - 1, c + 1), (r + 1, c - 1), (r + 1, c + 1)]
        diag_pos.append(
            tuple(p for p in diag if 0 <= p[0] < rows and 0 <= p[1] < cols)
        )
    tables = (
        tuple(positions),
        tuple(nbr_pos),
        tuple(nbr_idx),
        tuple(nbr_sorted),
        tuple(diag_pos),
    )
    _SHAPE_TABLES[(rows, cols)] = tables
    return tables


class _ScratchHandle:
    """Context manager entering/leaving one level of grid scratch mode."""

    __slots__ = ("_grid", "_token")

    def __init__(self, grid: "Grid") -> None:
        self._grid = grid
        self._token: Optional[Tuple[int, int]] = None

    def __enter__(self) -> "Grid":
        self._token = self._grid.begin_scratch()
        return self._grid

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._grid.rollback(self._token)
        return False


class Grid:
    """Rectangular grid of cells with qubit placement bookkeeping."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        self.rows = rows
        self.cols = cols
        n = rows * cols
        self._role: List[CellRole] = [CellRole.BUS] * n
        self._occ: List[Optional[int]] = [None] * n
        self._routable_b = bytearray([1]) * n
        self._parkable_b = bytearray([1]) * n
        self._qubit_position: Dict[int, Position] = {}
        (
            self._positions,
            self._nbr_pos,
            self._nbr_idx,
            self._nbr_sorted,
            self._diag_pos,
        ) = _tables_for(rows, cols)
        #: state id: bumped to a fresh value on every mutation; rollback
        #: restores the entry value (the state is bit-identical again).
        self._epoch = 0
        #: never-decreasing allocator for state ids — a rolled-back epoch is
        #: never re-issued to a *different* state, so "same epoch" is safe
        #: to use as a cache key across scratch boundaries.
        self._epoch_counter = 0
        #: undo log entries while scratch mode is active (LIFO).
        self._undo: List[tuple] = []
        self._scratch_depth = 0
        #: per-epoch route cache buckets owned by repro.routing.dijkstra.
        self._route_cache: Dict[int, dict] = {}

    # -- indexing ---------------------------------------------------------------

    def _index(self, pos: Position) -> int:
        """Flat index of ``pos``, raising :class:`GridError` out of bounds."""
        r, c = pos
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return r * self.cols + c
        raise GridError(f"position {pos} outside {self.rows}x{self.cols} grid")

    # -- basic access ---------------------------------------------------------

    def __contains__(self, pos: Position) -> bool:
        r, c = pos
        return 0 <= r < self.rows and 0 <= c < self.cols

    def __iter__(self) -> Iterator[Cell]:
        for i, pos in enumerate(self._positions):
            yield Cell(pos, self._role[i], self._occ[i])

    def cell(self, pos: Position) -> Cell:
        """Snapshot view of one cell (read-only; mutate via grid methods)."""
        i = self._index(pos)
        return Cell(pos, self._role[i], self._occ[i])

    def set_role(self, pos: Position, role: CellRole) -> None:
        """Assign the static role of a cell (layout construction only)."""
        i = self._index(pos)
        old = self._role[i]
        if old is role:
            return
        if self._scratch_depth:
            self._undo.append(("role", i, old))
        self._role[i] = role
        self._routable_b[i] = 1 if role in _ROUTABLE_ROLES else 0
        self._parkable_b[i] = 1 if role in _PARKABLE_ROLES else 0
        self._epoch_counter += 1
        self._epoch = self._epoch_counter

    def role(self, pos: Position) -> CellRole:
        r, c = pos
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return self._role[r * self.cols + c]
        raise GridError(f"position {pos} outside {self.rows}x{self.cols} grid")

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    @property
    def epoch(self) -> int:
        """Mutation counter; equal epochs imply identical grid state."""
        return self._epoch

    def cells_with_role(self, role: CellRole) -> List[Position]:
        """All positions having ``role``, row-major sorted."""
        roles = self._role
        return [
            pos for i, pos in enumerate(self._positions) if roles[i] == role
        ]

    # -- geometry ---------------------------------------------------------------

    def neighbors(self, pos: Position) -> List[Position]:
        """4-connected neighbours inside the grid (up, down, left, right)."""
        return list(self._nbr_pos[self._index(pos)])

    def diagonal_neighbors(self, pos: Position) -> List[Position]:
        """The four diagonal neighbours inside the grid."""
        return list(self._diag_pos[self._index(pos)])

    @staticmethod
    def manhattan(a: Position, b: Position) -> int:
        """Manhattan distance d(a, b) used by the routing cost function."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    @staticmethod
    def are_diagonal(a: Position, b: Position) -> bool:
        """True when the two cells touch at a corner only."""
        return abs(a[0] - b[0]) == 1 and abs(a[1] - b[1]) == 1

    @staticmethod
    def between_diagonal(a: Position, b: Position) -> List[Position]:
        """The two cells completing the 2x2 square of a diagonal pair."""
        if not Grid.are_diagonal(a, b):
            raise GridError(f"cells {a} and {b} are not diagonal")
        return [(a[0], b[1]), (b[0], a[1])]

    # -- occupancy -------------------------------------------------------------

    def place(self, qubit: int, pos: Position) -> None:
        """Put program qubit ``qubit`` on ``pos`` (must be empty)."""
        i = self._index(pos)
        occupant = self._occ[i]
        if occupant is not None:
            raise GridError(f"cell {pos} already occupied by qubit {occupant}")
        if qubit in self._qubit_position:
            raise GridError(f"qubit {qubit} already placed")
        if self._scratch_depth:
            self._undo.append(("place", qubit, i))
        self._occ[i] = qubit
        self._qubit_position[qubit] = pos
        self._epoch_counter += 1
        self._epoch = self._epoch_counter

    def remove(self, qubit: int) -> Position:
        """Remove a qubit from the grid, returning its last position."""
        pos = self.position_of(qubit)
        i = pos[0] * self.cols + pos[1]
        if self._scratch_depth:
            self._undo.append(("remove", qubit, i))
        self._occ[i] = None
        del self._qubit_position[qubit]
        self._epoch_counter += 1
        self._epoch = self._epoch_counter
        return pos

    def move(self, qubit: int, dest: Position) -> Position:
        """Relocate a qubit to an empty cell; returns the origin position."""
        try:
            origin = self._qubit_position[qubit]
        except KeyError as exc:
            raise GridError(f"qubit {qubit} is not placed") from exc
        r, c = dest
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise GridError(f"position {dest} outside {self.rows}x{self.cols} grid")
        j = r * self.cols + c
        occupant = self._occ[j]
        if occupant is not None:
            raise GridError(
                f"cannot move qubit {qubit} onto occupied cell {dest} "
                f"(holds {occupant})"
            )
        i = origin[0] * self.cols + origin[1]
        if self._scratch_depth:
            self._undo.append(("move", qubit, i))
        self._occ[i] = None
        self._occ[j] = qubit
        self._qubit_position[qubit] = dest
        self._epoch = self._epoch_counter = self._epoch_counter + 1
        return origin

    def position_of(self, qubit: int) -> Position:
        try:
            return self._qubit_position[qubit]
        except KeyError as exc:
            raise GridError(f"qubit {qubit} is not placed") from exc

    def occupant(self, pos: Position) -> Optional[int]:
        r, c = pos
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return self._occ[r * self.cols + c]
        raise GridError(f"position {pos} outside {self.rows}x{self.cols} grid")

    def is_occupied(self, pos: Position) -> bool:
        r, c = pos
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return self._occ[r * self.cols + c] is not None
        raise GridError(f"position {pos} outside {self.rows}x{self.cols} grid")

    def occupied_positions(self) -> Set[Position]:
        return set(self._qubit_position.values())

    def placed_qubits(self) -> Dict[int, Position]:
        """Snapshot of qubit -> position."""
        return dict(self._qubit_position)

    def free_neighbors(self, pos: Position) -> List[Position]:
        """Adjacent cells that can host an ancilla right now."""
        i = self._index(pos)
        occ = self._occ
        parkable = self._parkable_b
        return [
            p
            for p, j in zip(self._nbr_pos[i], self._nbr_idx[i])
            if occ[j] is None and parkable[j]
        ]

    def free_neighbors_sorted(self, pos: Position) -> List[Position]:
        """:meth:`free_neighbors` in row-major (sorted-position) order.

        Uses the precomputed sorted neighbour table, so deterministic
        tie-breaking scans (the displacement ladder) pay no per-call sort.
        """
        i = self._index(pos)
        occ = self._occ
        parkable = self._parkable_b
        return [
            p
            for p, j in self._nbr_sorted[i]
            if occ[j] is None and parkable[j]
        ]

    def routable(self, pos: Position) -> bool:
        """Cells magic states / moves may traverse (not factory interiors)."""
        r, c = pos
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return bool(self._routable_b[r * self.cols + c])
        raise GridError(f"position {pos} outside {self.rows}x{self.cols} grid")

    def parkable(self, pos: Position) -> bool:
        """Cells where a data qubit may come to rest (ports are transit-only)."""
        r, c = pos
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return bool(self._parkable_b[r * self.cols + c])
        raise GridError(f"position {pos} outside {self.rows}x{self.cols} grid")

    # -- copying and scratch mode -----------------------------------------------

    @profiled("grid.clone")
    def clone(self) -> "Grid":
        """Independent deep copy (array copies; geometry tables shared)."""
        dup = Grid.__new__(Grid)
        dup.rows = self.rows
        dup.cols = self.cols
        dup._role = list(self._role)
        dup._occ = list(self._occ)
        dup._routable_b = bytearray(self._routable_b)
        dup._parkable_b = bytearray(self._parkable_b)
        dup._qubit_position = dict(self._qubit_position)
        dup._positions = self._positions
        dup._nbr_pos = self._nbr_pos
        dup._nbr_idx = self._nbr_idx
        dup._nbr_sorted = self._nbr_sorted
        dup._diag_pos = self._diag_pos
        dup._epoch = 0
        dup._epoch_counter = 0
        dup._undo = []
        dup._scratch_depth = 0
        dup._route_cache = {}
        return dup

    def scratch(self) -> _ScratchHandle:
        """Enter scratch (what-if) mode::

            with grid.scratch() as scratch:
                scratch.move(q, dest)   # applied to the live arrays
                ...                     # plan freely
            # all mutations rolled back here, epoch restored

        The yielded object *is* the grid; mutations inside the block are
        recorded in an undo log and reverted on exit in O(changes), which
        replaces deep-copy cloning in the planning heuristics.  Blocks
        nest; inner blocks must exit before outer ones (guaranteed by
        ``with`` scoping).
        """
        return _ScratchHandle(self)

    def begin_scratch(self) -> Tuple[int, int]:
        """Low-level scratch entry; prefer :meth:`scratch`.  Returns a token."""
        self._scratch_depth += 1
        return (len(self._undo), self._epoch)

    def rollback(self, token: Tuple[int, int]) -> None:
        """Undo every mutation since ``token`` (LIFO with :meth:`begin_scratch`)."""
        mark, epoch = token
        undo = self._undo
        occ = self._occ
        qpos = self._qubit_position
        while len(undo) > mark:
            entry = undo.pop()
            kind = entry[0]
            if kind == "move":
                __, qubit, i = entry
                cur = qpos[qubit]
                j = cur[0] * self.cols + cur[1]
                occ[j] = None
                occ[i] = qubit
                qpos[qubit] = self._positions[i]
            elif kind == "place":
                __, qubit, i = entry
                occ[i] = None
                del qpos[qubit]
            elif kind == "remove":
                __, qubit, i = entry
                occ[i] = qubit
                qpos[qubit] = self._positions[i]
            else:  # "role"
                __, i, old = entry
                self._role[i] = old
                self._routable_b[i] = 1 if old in _ROUTABLE_ROLES else 0
                self._parkable_b[i] = 1 if old in _PARKABLE_ROLES else 0
        self._scratch_depth -= 1
        # State is bit-identical to scratch entry, so the old epoch (and any
        # cached routes tagged with it) is valid again.
        self._epoch = epoch

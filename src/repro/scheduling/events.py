"""Schedule data structures produced by the lattice-surgery scheduler."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import add, attrgetter
from typing import Iterator, Optional, Sequence, Tuple

from ..arch.grid import Position

#: note prefix tagging ops that carry / consume a distilled magic state;
#: the factory index follows (e.g. ``"magic-state from f2"``).  Route hops
#: and the final consume op both carry it, so the validity engine can
#: attribute every consumption to its producing factory.
MAGIC_NOTE_PREFIX = "magic-state from f"

#: kinds of the data-qubit moves the compiler inserts (:attr:`Schedule.num_moves`).
MOVE_KINDS = ("move", "evict", "restore")


@dataclass(slots=True)
class ScheduledOp:
    """One scheduled lattice-surgery operation.

    A view of one row of a :class:`Schedule`'s columns, built by each read
    of :attr:`Schedule.ops`.  Treated as immutable (copy with
    :func:`dataclasses.replace`, and make a new :class:`Schedule` from the
    edited ops); not ``frozen=True`` because a read builds tens of
    thousands at once and the frozen init is ~6x slower.

    Attributes:
        uid: unique, monotonically increasing id in schedule order.
        kind: operation class — "gate", "move", "route", "evict".
        name: gate mnemonic (for kind="gate") or "move"/"route".
        qubits: program qubits whose timelines this op occupies.
        cells: grid cells locked for the op's duration (ancillas, route).
        start: start time in units of d.
        duration: latency in units of d.
        min_start: external release time (e.g. magic state availability);
            resimulation must not start the op earlier.
        gate_index: DAG node index of the originating gate, if any.
        note: free-form annotation for debugging / reports.
    """

    uid: int
    kind: str
    name: str
    qubits: Tuple[int, ...]
    cells: Tuple[Position, ...]
    start: float
    duration: float
    min_start: float = 0.0
    gate_index: Optional[int] = None
    note: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def resource_cells(self) -> Tuple[Position, ...]:
        """Cells this op actually locks for its duration.

        Data-qubit moves lock only their destination: a contiguous chain of
        patches can shift together in one move cycle (the vacated origin is
        immediately reusable by the patch behind), so serialising on the
        origin would forbid the standard simultaneous row shift.  Gates,
        routes and everything else lock every listed cell.
        """
        return resource_cells(self.kind, self.cells)

    def magic_factory(self) -> Optional[int]:
        """Index of the factory whose state this op carries/consumes.

        Parsed from the ``note`` tag the scheduler writes on magic-state
        route hops and consume ops; None for everything else.
        """
        return magic_factory(self.note)

    def to_dict(self) -> dict:
        """JSON-safe representation; :meth:`from_dict` restores it exactly."""
        return {
            "uid": self.uid,
            "kind": self.kind,
            "name": self.name,
            "qubits": list(self.qubits),
            "cells": [list(c) for c in self.cells],
            "start": self.start,
            "duration": self.duration,
            "min_start": self.min_start,
            "gate_index": self.gate_index,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduledOp":
        return cls(
            uid=data["uid"],
            kind=data["kind"],
            name=data["name"],
            qubits=tuple(data["qubits"]),
            cells=tuple(tuple(c) for c in data["cells"]),
            start=data["start"],
            duration=data["duration"],
            min_start=data.get("min_start", 0.0),
            gate_index=data.get("gate_index"),
            note=data.get("note", ""),
        )

    def __str__(self) -> str:
        qubits = ",".join(map(str, self.qubits))
        return f"[{self.start:7.1f} +{self.duration:4.1f}] {self.name:6s} q({qubits})"


def resource_cells(kind: str, cells: Tuple[Position, ...]) -> Tuple[Position, ...]:
    """The cells an op of ``kind`` over ``cells`` locks (see
    :meth:`ScheduledOp.resource_cells`)."""
    if kind in MOVE_KINDS and len(cells) == 2:
        return cells[1:]
    return cells


def magic_factory(note: str) -> Optional[int]:
    """Factory index a ``note`` tags (see :data:`MAGIC_NOTE_PREFIX`), else None."""
    if not note.startswith(MAGIC_NOTE_PREFIX):
        return None
    try:
        return int(note[len(MAGIC_NOTE_PREFIX):])
    except ValueError:
        return None


#: fields :meth:`Schedule.columns` holds as a :class:`TableColumn`: few
#: distinct values, each shared by many ops.
TABLE_FIELDS = ("kind", "name", "qubits", "cells", "note")

#: positions of the columns :class:`Schedule` summarizes without ops.
_KIND = ScheduledOp.__slots__.index("kind")
_START = ScheduledOp.__slots__.index("start")
_DURATION = ScheduledOp.__slots__.index("duration")

class TableColumn:
    """A column held as its distinct values plus one table row per op."""

    __slots__ = ("table", "rows")

    def __init__(self, table: Sequence, rows: Sequence[int]) -> None:
        self.table = table
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator:
        return map(self.table.__getitem__, self.rows)

    @classmethod
    def of(cls, values: list):
        """``values`` over their distinct values in first-seen order, or
        ``values`` itself when one of them is unhashable."""
        try:
            rows = {value: row for row, value in enumerate(dict.fromkeys(values))}
        except TypeError:
            return values
        return cls(list(rows), array("I", map(rows.__getitem__, values)))

    def count_in(self, values: Tuple) -> int:
        """How many ops hold one of ``values``."""
        return sum(
            self.rows.count(row)
            for row, value in enumerate(self.table)
            if value in values
        )


class Schedule:
    """A lattice-surgery op schedule held as its columns.

    One column per :class:`ScheduledOp` field, in field order (a sequence or
    a :class:`TableColumn` each).  The scheduler, the Sec. V-D pass and the
    codec make schedules with :meth:`from_columns`; ``Schedule(ops)``
    derives the columns from a list of ops once.  ``len()``,
    :attr:`makespan` and :attr:`num_moves` read the columns, and so do the
    Sec. V-D pass, the replay validator and the encoder (:meth:`columns`).
    :attr:`ops` builds a fresh tuple of :class:`ScheduledOp` on each read.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, ops: Sequence[ScheduledOp] = ()) -> None:
        columns = []
        for field in ScheduledOp.__slots__:
            column = list(map(attrgetter(field), ops))
            columns.append(TableColumn.of(column) if field in TABLE_FIELDS else column)
        self._columns = tuple(columns)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Schedule":
        """A schedule over one equal-length column per op field, in
        :class:`ScheduledOp` field order (a sequence or a
        :class:`TableColumn` each)."""
        schedule = cls.__new__(cls)
        schedule._columns = tuple(columns)
        return schedule

    def columns(self) -> tuple:
        """One column per :class:`ScheduledOp` field, in field order.

        A list per field, or a :class:`TableColumn` for each of
        :data:`TABLE_FIELDS` whose values are all hashable.  Treat them as
        read-only.
        """
        return self._columns

    @property
    def ops(self) -> Tuple[ScheduledOp, ...]:
        """The ops, built from the columns on each read: read once per pass."""
        return tuple(map(ScheduledOp, *self._columns))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ops == other.ops

    def __repr__(self) -> str:
        return f"Schedule(ops={self.ops!r})"

    def __len__(self) -> int:
        return len(self._columns[_KIND])

    def __iter__(self) -> Iterator[ScheduledOp]:
        return iter(self.ops)

    @property
    def makespan(self) -> float:
        """Total execution time in units of d."""
        best = 0.0
        for end in map(add, self._columns[_START], self._columns[_DURATION]):
            if end > best:
                best = end
        return best

    @property
    def num_moves(self) -> int:
        """Move operations inserted by the compiler (incl. evictions)."""
        kinds = self._columns[_KIND]
        if isinstance(kinds, TableColumn):
            return kinds.count_in(MOVE_KINDS)
        return sum(1 for kind in kinds if kind in MOVE_KINDS)

    def validate(self) -> None:
        """Check per-qubit timelines and cell footprints; raise on conflict.

        Thin wrapper over the :mod:`repro.verify` replay validator's
        resource checks (the full engine adds DAG and magic-state audits —
        use :func:`repro.verify.validate_schedule` for those).
        """
        from ..verify.validator import ScheduleValidator

        validator = ScheduleValidator(self)
        validator.check_timelines()
        validator.check_cell_conflicts()
        validator.check_min_start()
        if not validator.report.ok:
            raise ValueError(validator.report.summary())

    def to_dict(self) -> dict:
        """JSON-safe representation (the sweep cache's on-disk form)."""
        return {"ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        return cls([ScheduledOp.from_dict(op) for op in data["ops"]])

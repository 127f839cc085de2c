"""Schedule data structures produced by the lattice-surgery scheduler."""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

    Treated as immutable everywhere (re-timing copies via :meth:`shifted`);
    not ``frozen=True`` because the scheduler constructs tens of thousands
    of these per compile and the frozen ``object.__setattr__`` init is ~6x
    slower than plain slot assignment.

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
        if self.kind in MOVE_KINDS and len(self.cells) == 2:
            return self.cells[1:]
        return self.cells

    def magic_factory(self) -> Optional[int]:
        """Index of the factory whose state this op carries/consumes.

        Parsed from the ``note`` tag the scheduler writes on magic-state
        route hops and consume ops; None for everything else.
        """
        if not self.note.startswith(MAGIC_NOTE_PREFIX):
            return None
        suffix = self.note[len(MAGIC_NOTE_PREFIX):]
        try:
            return int(suffix)
        except ValueError:
            return None

    def shifted(self, new_start: float) -> "ScheduledOp":
        """Copy with a different start time (used by resimulation)."""
        if new_start == self.start:
            return self
        return ScheduledOp(
            uid=self.uid, kind=self.kind, name=self.name, qubits=self.qubits,
            cells=self.cells, start=new_start, duration=self.duration,
            min_start=self.min_start, gate_index=self.gate_index,
            note=self.note,
        )

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


#: positions of the columns :class:`Schedule` summarizes without ops.
_KIND = ScheduledOp.__slots__.index("kind")
_START = ScheduledOp.__slots__.index("start")
_DURATION = ScheduledOp.__slots__.index("duration")

#: guards the one-time build of a column-backed schedule's ops.
_BUILD_LOCK = threading.Lock()


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

    def count_in(self, values: Tuple) -> int:
        """How many ops hold one of ``values``."""
        return sum(
            self.rows.count(row)
            for row, value in enumerate(self.table)
            if value in values
        )


class Schedule:
    """An ordered list of :class:`ScheduledOp` plus summary statistics.

    A schedule made by :meth:`from_columns` holds its ops as columns and
    builds the :class:`ScheduledOp` objects on first access to
    :attr:`ops`, then drops the columns.  ``len()``, :attr:`makespan` and
    :attr:`num_moves` read the columns while the ops are unbuilt.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, ops: Optional[List[ScheduledOp]] = None) -> None:
        self._ops = [] if ops is None else ops
        self._columns: Optional[tuple] = None

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Schedule":
        """A schedule over one equal-length column per op field, in
        :class:`ScheduledOp` field order (a sequence or a
        :class:`TableColumn` each); the ops are built on first access."""
        schedule = cls()
        schedule._ops = None
        schedule._columns = tuple(columns)
        return schedule

    @property
    def built(self) -> bool:
        """Whether the ops exist as :class:`ScheduledOp` objects."""
        return self._ops is not None

    @property
    def ops(self) -> List[ScheduledOp]:
        ops = self._ops
        if ops is None:
            with _BUILD_LOCK:
                ops = self._ops
                if ops is None:
                    # publish the ops before dropping the columns: a reader
                    # that finds no columns then always finds the ops
                    ops = self._ops = list(map(ScheduledOp, *self._columns))
                    self._columns = None
        return ops

    @ops.setter
    def ops(self, ops: List[ScheduledOp]) -> None:
        with _BUILD_LOCK:
            self._ops = ops
            self._columns = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ops == other.ops

    def __repr__(self) -> str:
        return f"Schedule(ops={self.ops!r})"

    def append(self, op: ScheduledOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        columns = self._columns
        return len(self._ops) if columns is None else len(columns[_KIND])

    def __iter__(self) -> Iterator[ScheduledOp]:
        return iter(self.ops)

    @property
    def makespan(self) -> float:
        """Total execution time in units of d."""
        columns = self._columns
        if columns is None:
            ends = (op.start + op.duration for op in self._ops)
        else:
            ends = map(add, columns[_START], columns[_DURATION])
        best = 0.0
        for end in ends:
            if end > best:
                best = end
        return best

    def count_kind(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.kind == kind)

    @property
    def num_moves(self) -> int:
        """Move operations inserted by the compiler (incl. evictions)."""
        columns = self._columns
        if columns is None:
            return sum(1 for op in self._ops if op.kind in MOVE_KINDS)
        kinds = columns[_KIND]
        if isinstance(kinds, TableColumn):
            return kinds.count_in(MOVE_KINDS)
        return sum(1 for kind in kinds if kind in MOVE_KINDS)

    @property
    def num_gates(self) -> int:
        return self.count_kind("gate")

    def kind_histogram(self) -> Dict[str, int]:
        return dict(Counter(op.kind for op in self.ops))

    def name_histogram(self) -> Dict[str, int]:
        return dict(Counter(op.name for op in self.ops))

    def busy_time(self) -> float:
        """Sum of all op durations (an activity measure, not the makespan)."""
        return sum(op.duration for op in self.ops)

    def ops_for_qubit(self, qubit: int) -> List[ScheduledOp]:
        return [op for op in self.ops if qubit in op.qubits]

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
        return cls(ops=[ScheduledOp.from_dict(op) for op in data["ops"]])

    def timeline_text(self, limit: int = 40) -> str:
        """Human-readable dump of the first ``limit`` ops."""
        lines = [str(op) for op in self.ops[:limit]]
        if len(self.ops) > limit:
            lines.append(f"... ({len(self.ops) - limit} more ops)")
        return "\n".join(lines)

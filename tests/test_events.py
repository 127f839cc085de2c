"""Unit tests for schedule data structures."""

import pytest

from repro.scheduling.events import (
    TABLE_FIELDS,
    Schedule,
    ScheduledOp,
    TableColumn,
)


def op(uid, kind="gate", name="h", qubits=(0,), cells=(), start=0.0,
       duration=1.0, min_start=0.0):
    return ScheduledOp(
        uid=uid, kind=kind, name=name, qubits=qubits, cells=cells,
        start=start, duration=duration, min_start=min_start,
    )


class TestScheduledOp:
    def test_end(self):
        assert op(0, start=2.0, duration=3.0).end == 5.0

    def test_resource_cells_move_locks_destination_only(self):
        move = op(0, kind="move", name="move", cells=((0, 0), (0, 1)))
        assert move.resource_cells() == ((0, 1),)

    def test_resource_cells_gate_locks_all(self):
        gate = op(0, kind="gate", cells=((0, 0), (0, 1)))
        assert gate.resource_cells() == ((0, 0), (0, 1))

    def test_resource_cells_route_locks_pair(self):
        hop = op(0, kind="route", name="move", cells=((0, 0), (0, 1)))
        assert hop.resource_cells() == ((0, 0), (0, 1))


class TestSchedule:
    def test_makespan(self):
        schedule = Schedule([op(0, start=0, duration=2), op(1, start=5, duration=3)])
        assert schedule.makespan == 8.0

    def test_empty_makespan(self):
        assert Schedule().makespan == 0.0

    def test_move_counting(self):
        schedule = Schedule([
            op(0, kind="move", name="move"),
            op(1, kind="evict", name="move"),
            op(2, kind="restore", name="move"),
            op(3, kind="gate"),
        ])
        assert schedule.num_moves == 3

    def test_validate_accepts_sequential(self):
        schedule = Schedule([
            op(0, start=0, duration=2),
            op(1, start=2, duration=2),
        ])
        schedule.validate()

    def test_validate_rejects_overlap(self):
        schedule = Schedule([
            op(0, start=0, duration=5),
            op(1, start=2, duration=2),
        ])
        with pytest.raises(ValueError):
            schedule.validate()

    def test_columns_hold_each_field_in_op_field_order(self):
        ops = [op(0, cells=((0, 0),)), op(1, name="cx", qubits=(0, 1), start=1)]
        columns = Schedule(ops).columns()
        assert len(columns) == len(ScheduledOp.__slots__)
        for field, column in zip(ScheduledOp.__slots__, columns):
            assert isinstance(column, TableColumn) == (field in TABLE_FIELDS)
            assert list(column) == [getattr(o, field) for o in ops]

    def test_from_columns_matches_a_schedule_of_ops(self):
        ops = [
            op(0, kind="move", name="move", start=0, duration=2),
            op(1, start=2, duration=3),
        ]
        derived = Schedule(ops)
        plain = [[getattr(o, field) for o in ops] for field in ScheduledOp.__slots__]
        for schedule in (Schedule.from_columns(derived.columns()),
                         Schedule.from_columns(plain)):
            assert schedule == derived
            assert list(schedule.ops) == ops
            assert len(schedule) == 2
            assert schedule.makespan == 5.0
            assert schedule.num_moves == 1

    def test_each_read_of_ops_is_a_fresh_tuple(self):
        schedule = Schedule([op(0), op(1, start=1)])
        first, second = schedule.ops, schedule.ops
        assert type(first) is tuple
        assert first == second
        assert first is not second and first[0] is not second[0]
        assert list(schedule) == list(first)

    def test_ops_cannot_be_edited_in_place(self):
        schedule = Schedule([op(0), op(1, start=1)])
        with pytest.raises(TypeError):
            schedule.ops[0] = op(2)
        with pytest.raises(AttributeError):
            setattr(schedule, "ops", [op(2)])
        assert [o.uid for o in schedule.ops] == [0, 1]

    def test_dict_round_trip(self):
        schedule = Schedule([
            op(0, cells=((0, 0), (0, 1)), min_start=0.5),
            op(1, kind="route", name="move", start=1),
        ])
        copy = Schedule.from_dict(schedule.to_dict())
        assert copy == schedule
        assert copy.to_dict() == schedule.to_dict()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Schedule())


class TestTableColumn:
    def test_values_over_their_distinct_values(self):
        column = TableColumn.of(["gate", "move", "gate", "evict"])
        assert column.table == ["gate", "move", "evict"]
        assert list(column.rows) == [0, 1, 0, 2]
        assert list(column) == ["gate", "move", "gate", "evict"]
        assert len(column) == 4
        assert column.count_in(("move", "evict")) == 2

    def test_unhashable_values_stay_a_list(self):
        values = [[0], [1]]
        assert TableColumn.of(values) is values

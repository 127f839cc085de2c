"""Unit tests for schedule data structures."""

import pytest

from repro.scheduling.events import Schedule, ScheduledOp


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
        assert schedule.num_gates == 1

    def test_histograms(self):
        schedule = Schedule([op(0), op(1, name="cx", qubits=(0, 1))])
        assert schedule.kind_histogram() == {"gate": 2}
        assert schedule.name_histogram() == {"h": 1, "cx": 1}

    def test_ops_for_qubit(self):
        schedule = Schedule([op(0, qubits=(0,)), op(1, qubits=(1,))])
        assert len(schedule.ops_for_qubit(0)) == 1

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

    def test_busy_time(self):
        schedule = Schedule([op(0, duration=2), op(1, duration=3)])
        assert schedule.busy_time() == 5.0

    def test_timeline_text_truncates(self):
        schedule = Schedule([op(i) for i in range(50)])
        text = schedule.timeline_text(limit=10)
        assert "more ops" in text

"""Layout tests — including the paper's exact qubit counts."""

import pytest

from repro.arch.grid import CellRole
from repro.arch.layout import (
    LayoutError,
    assign_factory_ports,
    build_layout,
    layout_family,
    max_routing_paths,
    paper_r_values,
    routing_plan,
)


class TestPaperQubitCounts:
    """The 10x10 layout family must reproduce Sec. VII's numbers."""

    @pytest.mark.parametrize(
        "r,expected",
        [(2, 121), (3, 132), (4, 144), (5, 156), (6, 169), (10, 225), (22, 441)],
    )
    def test_total_qubits_10x10(self, r, expected):
        assert build_layout(100, r).total_qubits == expected

    def test_max_routing_paths(self):
        assert max_routing_paths(10) == 22

    def test_r4_ratio_about_two_to_one(self):
        layout = build_layout(100, 4)
        assert 2.0 <= layout.data_to_ancilla_ratio <= 2.5

    def test_r22_about_three_ancilla_per_data(self):
        layout = build_layout(100, 22)
        assert layout.num_bus / 100 >= 3.0


class TestConstruction:
    def test_data_slot_count(self):
        layout = build_layout(16, 4)
        assert len(layout.data_slots) == 16

    def test_data_slots_have_data_role(self):
        layout = build_layout(16, 4)
        for pos in layout.data_slots:
            assert layout.grid.role(pos) == CellRole.DATA

    def test_r_exceeding_limit_rejected(self):
        with pytest.raises(LayoutError):
            build_layout(16, max_routing_paths(4) + 1)

    def test_routing_plan_is_the_one_feasibility_check(self):
        assert routing_plan(16, max_routing_paths(4)) == (4, 4, 3, 3)
        # 2 data qubits sit in a 1x2 block: r=6 is within 2k+2 but needs
        # an internal row the block does not have
        for num_data, r in ((16, 11), (16, 100000), (2, 6), (0, 2), (16, 0)):
            with pytest.raises(LayoutError):
                routing_plan(num_data, r)
            with pytest.raises(LayoutError):
                build_layout(num_data, r)

    def test_zero_data_rejected(self):
        with pytest.raises(LayoutError):
            build_layout(0, 2)

    def test_zero_paths_rejected(self):
        with pytest.raises(LayoutError):
            build_layout(16, 0)

    def test_non_square_counts_supported(self):
        layout = build_layout(12, 4)
        assert len(layout.data_slots) == 12

    def test_r1_single_edge(self):
        layout = build_layout(16, 1)
        # only the top row is bus
        assert layout.grid.rows == 5
        assert layout.grid.cols == 4

    def test_internal_paths_separate_columns(self):
        # r=6 on 4x4: internal column and row inserted.
        layout = build_layout(16, 6)
        cols = {pos[1] for pos in layout.data_slots}
        assert len(cols) == 4
        full = set(range(layout.grid.cols))
        assert cols != full  # some columns are pure bus


class TestPorts:
    def test_default_ports_on_boundary_bus(self):
        layout = build_layout(16, 4)
        for pos in layout.port_positions:
            assert layout.grid.role(pos) == CellRole.BUS

    def test_assign_spreads_ports(self):
        layout = build_layout(100, 4)
        ports = assign_factory_ports(layout, 4)
        assert len(set(ports)) == 4

    def test_more_factories_than_ring_wraps(self):
        layout = build_layout(4, 2)
        ports = assign_factory_ports(layout, 50)
        assert len(ports) == 50

    def test_zero_factories_rejected(self):
        layout = build_layout(16, 4)
        with pytest.raises(LayoutError):
            assign_factory_ports(layout, 0)


class TestFamilies:
    def test_layout_family_defaults(self):
        family = layout_family(16)
        assert [l.routing_paths for l in family] == list(range(2, 11))

    def test_family_qubits_monotone(self):
        family = layout_family(100)
        totals = [l.total_qubits for l in family]
        assert totals == sorted(totals)

    def test_paper_r_values_clamped(self):
        assert paper_r_values(4) == [3, 4, 6, 10]
        assert paper_r_values(10) == [3, 4, 6, 10, 18, 22]

    def test_describe_mentions_r(self):
        assert "r=4" in build_layout(16, 4).describe()

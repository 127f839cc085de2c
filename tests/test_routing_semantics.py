"""Regression tests locking in the Eq. 1 routing-cost semantics.

The Dijkstra core has been rewritten for speed (flat arrays, single-pass
multi-goal search, path caching); these tests pin down the behavioural
contract so any future rewrite is provably behaviour-preserving:

* path cost is ``d * (1 + p)`` — length times one plus weighted crossings;
* the source and destination cells never contribute to the penalty;
* ``avoid`` is honoured everywhere, including at the destination;
* the multi-goal searches agree exactly with a goal-by-goal sweep.
"""

import random

import pytest

from repro.arch.grid import CellRole, Grid
from repro.routing.dijkstra import (
    NoPathError,
    RoutingRequest,
    find_path,
    find_path_to_any,
    find_paths_to_all,
)


@pytest.fixture
def grid():
    return Grid(6, 6)


class TestCostFormula:
    def test_unobstructed_cost_equals_length(self, grid):
        path = find_path(grid, RoutingRequest((0, 0), (0, 5)))
        assert path.cost == 5.0
        assert path.occupied_crossings == 0

    def test_each_crossing_multiplies_cost(self, grid):
        # Walls across rows 2 and 4 force two crossings on any route.
        for col in range(6):
            grid.place(100 + col, (2, col))
            grid.place(200 + col, (4, col))
        path = find_path(grid, RoutingRequest((0, 0), (5, 0)))
        assert path.occupied_crossings == 2
        assert path.cost == path.num_moves * (1 + 2)

    def test_penalty_weight_scales_crossings(self, grid):
        for col in range(6):
            grid.place(100 + col, (2, col))
        path = find_path(
            grid, RoutingRequest((0, 0), (5, 0), penalty_weight=7)
        )
        assert path.occupied_crossings == 7  # one crossing, weighted 7
        assert path.cost == path.num_moves * (1 + 7)

    def test_cost_is_minimal_product(self, grid):
        # A single blocker with room to detour: the router must take the
        # detour when (d+2)*1 < d*2, i.e. for any route longer than 2.
        grid.place(99, (0, 2))
        path = find_path(grid, RoutingRequest((0, 0), (0, 4)))
        assert path.occupied_crossings == 0
        assert path.cost == 6.0  # 4 straight + 2 detour steps


class TestEndpointExemption:
    def test_occupied_source_not_penalised(self, grid):
        grid.place(7, (0, 0))
        path = find_path(grid, RoutingRequest((0, 0), (0, 3)))
        assert path.occupied_crossings == 0
        assert path.cost == 3.0

    def test_occupied_destination_not_penalised(self, grid):
        grid.place(7, (0, 3))
        path = find_path(grid, RoutingRequest((0, 0), (0, 3)))
        assert path.occupied_crossings == 0
        assert path.cost == 3.0

    def test_occupied_destination_reachable_when_occupied_forbidden(self, grid):
        # allow_occupied=False forbids interior crossings but the
        # destination itself (the consumer) must stay reachable.
        grid.place(7, (0, 3))
        path = find_path(
            grid, RoutingRequest((0, 0), (0, 3), allow_occupied=False)
        )
        assert path.destination == (0, 3)

    def test_interior_occupied_blocks_when_forbidden(self, grid):
        for row in range(6):
            grid.place(100 + row, (row, 2))
        with pytest.raises(NoPathError):
            find_path(
                grid, RoutingRequest((0, 0), (0, 4), allow_occupied=False)
            )


class TestAvoid:
    def test_avoid_honoured_in_interior(self, grid):
        path = find_path(
            grid, RoutingRequest((0, 0), (0, 4), avoid=frozenset({(0, 2)}))
        )
        assert (0, 2) not in path.cells

    def test_avoid_honoured_at_destination(self, grid):
        with pytest.raises(NoPathError):
            find_path(
                grid,
                RoutingRequest((0, 0), (0, 4), avoid=frozenset({(0, 4)})),
            )

    def test_avoided_goal_skipped_in_multi_goal(self, grid):
        path = find_path_to_any(
            grid, (0, 0), {(0, 2), (5, 5)}, avoid={(0, 2)}
        )
        assert path.destination == (5, 5)


def _random_grid(rng: random.Random) -> Grid:
    grid = Grid(rng.randint(4, 7), rng.randint(4, 7))
    cells = [(r, c) for r in range(grid.rows) for c in range(grid.cols)]
    rng.shuffle(cells)
    for i, pos in enumerate(cells[: rng.randint(0, len(cells) // 2)]):
        grid.place(i, pos)
    for pos in cells[len(cells) // 2: len(cells) // 2 + 3]:
        grid.set_role(pos, CellRole.FACTORY)
    return grid


def _sweep_reference(grid, source, goals, avoid, allow_occupied, weight):
    """The pre-rewrite goal-by-goal implementation of find_path_to_any."""
    best = None
    for goal in sorted(goals):
        try:
            candidate = find_path(
                grid,
                RoutingRequest(
                    source=source,
                    destination=goal,
                    avoid=frozenset(avoid),
                    allow_occupied=allow_occupied,
                    penalty_weight=weight,
                ),
            )
        except NoPathError:
            continue
        if best is None or candidate.cost < best.cost:
            best = candidate
    return best


class TestMultiGoalEquivalence:
    """The single-pass searches must match a per-goal sweep exactly."""

    @pytest.mark.parametrize("seed", range(30))
    def test_find_path_to_any_matches_sweep(self, seed):
        rng = random.Random(seed)
        grid = _random_grid(rng)
        free = [
            (r, c)
            for r in range(grid.rows)
            for c in range(grid.cols)
            if grid.routable((r, c))
        ]
        source = rng.choice(free)
        goals = set(rng.sample(free, min(len(free), rng.randint(1, 5))))
        avoid = set(rng.sample(free, min(len(free), rng.randint(0, 2))))
        allow = rng.random() < 0.5
        weight = rng.choice([1, 2, 8])
        expected = _sweep_reference(grid, source, goals, avoid, allow, weight)
        if expected is None:
            with pytest.raises(NoPathError):
                find_path_to_any(
                    grid, source, goals, avoid=avoid,
                    allow_occupied=allow, penalty_weight=weight,
                )
            return
        actual = find_path_to_any(
            grid, source, goals, avoid=avoid,
            allow_occupied=allow, penalty_weight=weight,
        )
        assert actual.cost == expected.cost
        assert actual.destination == expected.destination
        assert actual.cells == expected.cells
        assert actual.occupied_crossings == expected.occupied_crossings

    @pytest.mark.parametrize("seed", range(30))
    def test_find_paths_to_all_matches_per_goal_search(self, seed):
        rng = random.Random(seed + 1000)
        grid = _random_grid(rng)
        free = [
            (r, c)
            for r in range(grid.rows)
            for c in range(grid.cols)
            if grid.routable((r, c))
        ]
        source = rng.choice(free)
        goals = set(rng.sample(free, min(len(free), rng.randint(1, 6))))
        allow = rng.random() < 0.5
        weight = rng.choice([1, 8, 32])
        batched = find_paths_to_all(
            grid, source, goals, allow_occupied=allow, penalty_weight=weight
        )
        for goal in goals:
            try:
                expected = find_path(
                    grid,
                    RoutingRequest(
                        source=source,
                        destination=goal,
                        allow_occupied=allow,
                        penalty_weight=weight,
                    ),
                )
            except NoPathError:
                assert goal not in batched
                continue
            assert goal in batched
            assert batched[goal].cells == expected.cells
            assert batched[goal].cost == expected.cost
            assert batched[goal].occupied_crossings == expected.occupied_crossings


class TestPathCache:
    """Repeated queries.  ``find_path`` keeps no route cache: each query
    searches, and the same grid state gives the same route."""

    def test_same_epoch_queries_give_the_same_route(self, grid):
        request = RoutingRequest((0, 0), (3, 3))
        first = find_path(grid, request)
        second = find_path(grid, request)
        assert second == first

    def test_mutation_invalidates_cache(self, grid):
        request = RoutingRequest((0, 0), (0, 3))
        first = find_path(grid, request)
        grid.place(9, (0, 1))
        second = find_path(grid, request)
        assert second is not first
        assert (0, 1) not in second.cells or second.occupied_crossings > 0

    def test_rollback_restores_the_route(self, grid):
        request = RoutingRequest((0, 0), (3, 3))
        first = find_path(grid, request)
        with grid.scratch() as scratch:
            scratch.place(5, (0, 2))  # on the first route
            during = find_path(scratch, request)
            assert during != first
        after = find_path(grid, request)
        assert after == first

    def test_no_path_results_cached_and_reraised(self, grid):
        for row in range(6):
            grid.set_role((row, 2), CellRole.FACTORY)
        request = RoutingRequest((0, 0), (0, 5))
        with pytest.raises(NoPathError):
            find_path(grid, request)
        with pytest.raises(NoPathError):
            find_path(grid, request)

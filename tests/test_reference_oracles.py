"""The compiler's hot loops against slow, obviously-correct references.

Routing, reachability, magic-state delivery, redundant-move detection,
re-timing and the validator's checks run on flat arrays, columns, caches,
lazy and single-pass sweeps.  Each test here rebuilds the same answer the naive way — a BFS or
Dijkstra over ``(row, col)`` tuples, every delivery sweep run up front, a
pairwise interval scan, a replay of qubit positions, an op-by-op walk over
:class:`ScheduledOp` objects — on seeded random inputs and compiled
schedules, and demands the fast path agree.
"""

import contextlib
import dataclasses
import heapq
import json
import math
import random
from collections import deque
from dataclasses import replace
from functools import partial

import pytest

from repro.arch.grid import CellRole, Grid
from repro.arch.instruction_set import InstructionSet
from repro.compiler import CompilerConfig, FaultTolerantCompiler, codec
from repro.fuzz import load_artifact
from repro.fuzz.artifact import corpus_paths
from repro.fuzz.generators import generate_scenario
from repro.ir import gates as g
from repro.ir.circuit import Circuit
from repro.ir.dag import DagCircuit
from repro.perf import bench_cases
from repro.routing.dijkstra import (
    NoPathError,
    RoutingRequest,
    bus_cells_adjacent_to,
    find_path,
    find_path_to_any,
    find_paths_to_all,
    reachable_free_cells,
)
from repro.routing.path import Path
from repro.routing.space_search import _displace_blocker, _walk_path_inner
from repro.scheduling.events import Schedule, ScheduledOp
from repro.scheduling.redundant_moves import (
    EliminationReport,
    eliminate_redundant_moves,
    find_redundant_pairs,
)
from repro.scheduling.resim import optimize_schedule, resimulate
from repro.scheduling.scheduler import LatticeSurgeryScheduler
from repro.strategies import STRATEGIES, Strategy
from repro.verify import MUTATIONS, ValidationReport, Violation
from repro.verify.mutations import MutationContext
from repro.verify.validator import (
    EPS,
    ScheduleValidator,
    config_distill_times,
    validate_schedule,
)
from repro.workloads import ising_2d, load_benchmark

ROUTABLE = (CellRole.BUS, CellRole.DATA, CellRole.PORT)
PARKABLE = (CellRole.BUS, CellRole.DATA)
TRIALS = 40


def random_grid(rng):
    """A small grid with scattered qubits, factory walls and ports."""
    grid = Grid(rng.randint(4, 8), rng.randint(4, 8))
    cells = all_cells(grid)
    rng.shuffle(cells)
    for qubit, pos in enumerate(cells[: rng.randint(0, len(cells) // 2)]):
        grid.place(qubit, pos)
    for pos in rng.sample(cells, 3):
        grid.set_role(pos, rng.choice([CellRole.FACTORY, CellRole.PORT]))
    return grid


def all_cells(grid):
    return [(r, c) for r in range(grid.rows) for c in range(grid.cols)]


def random_query(rng, grid):
    cells = all_cells(grid)
    source = rng.choice(cells)
    goals = set(rng.sample(cells, rng.randint(1, 6)))
    avoid = set(rng.sample(cells, rng.randint(0, 3))) - {source}
    return source, goals, avoid


# -- routing references -----------------------------------------------------


def reference_path(grid, src, dst, avoid=frozenset(), allow_occupied=True,
                   weight=1):
    """Dijkstra over tuple positions and dicts: ``(cells, cost, crossings)``
    or ``None``.  Interior cells obey the transit rules; the destination is
    always enterable unless avoided."""
    if src == dst:
        return (src,), 0, 0
    if dst in avoid:
        return None
    best = {src: 0}
    parent = {}
    heap = [(0, 0, 0, src)]
    while heap:
        cost, length, crossings, pos = heapq.heappop(heap)
        if pos == dst:
            cells = [dst]
            while cells[-1] != src:
                cells.append(parent[cells[-1]])
            return tuple(reversed(cells)), cost, crossings
        if cost > best[pos]:
            continue
        for nxt in grid.neighbors(pos):
            crossed = crossings
            if nxt != dst:
                if not grid.routable(nxt) or nxt in avoid:
                    continue
                if grid.is_occupied(nxt):
                    if not allow_occupied:
                        continue
                    crossed += weight
            new_cost = (length + 1) * (1 + crossed)
            if new_cost < best.get(nxt, float("inf")):
                best[nxt] = new_cost
                parent[nxt] = pos
                heapq.heappush(heap, (new_cost, length + 1, crossed, nxt))
    return None


def transit_distances(grid, source, avoid):
    """BFS distances over cells a route may pass through when occupied
    cells are forbidden; the source itself is always a start."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        pos = queue.popleft()
        for nxt in grid.neighbors(pos):
            if nxt in dist or nxt in avoid:
                continue
            if not grid.routable(nxt) or grid.is_occupied(nxt):
                continue
            dist[nxt] = dist[pos] + 1
            queue.append(nxt)
    return dist


def reference_goal_costs(grid, source, goals, avoid):
    """Cost of reaching each goal with occupied crossings forbidden: one
    step past the nearest transit cell adjacent to it."""
    dist = transit_distances(grid, source, avoid)
    costs = {}
    for goal in goals:
        if goal == source:
            costs[goal] = 0
            continue
        if goal in avoid:
            continue
        near = [dist[n] for n in grid.neighbors(goal) if n in dist]
        if near:
            costs[goal] = min(near) + 1
    return costs


def assert_legal_route(grid, path, avoid, allow_occupied, weight):
    cells = path.cells
    for a, b in zip(cells, cells[1:]):
        assert Grid.manhattan(a, b) == 1, cells
    interior = cells[1:-1]
    assert not set(interior) & set(avoid)
    assert all(grid.routable(p) for p in interior)
    occupied = sum(1 for p in interior if grid.is_occupied(p))
    if not allow_occupied:
        assert occupied == 0
    assert path.occupied_crossings == occupied * weight
    assert path.cost == (len(cells) - 1) * (1 + path.occupied_crossings)


class TestRoutingReference:
    def test_find_path_matches_tuple_reference(self):
        rng = random.Random(1)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source, goals, avoid = random_query(rng, grid)
            allow = rng.random() < 0.6
            weight = rng.choice([1, 2, 8])
            for goal in sorted(goals):
                want = reference_path(grid, source, goal, frozenset(avoid),
                                      allow, weight)
                request = RoutingRequest(source, goal, frozenset(avoid),
                                         allow, weight)
                # Twice: the second answer comes from the route cache.
                for _ in range(2):
                    if want is None:
                        with pytest.raises(NoPathError):
                            find_path(grid, request)
                        continue
                    got = find_path(grid, request)
                    assert (got.cells, got.cost, got.occupied_crossings) == \
                        want, f"trial {trial} goal {goal}"

    def test_find_path_returns_legal_routes(self):
        rng = random.Random(2)
        for _ in range(TRIALS):
            grid = random_grid(rng)
            source, goals, avoid = random_query(rng, grid)
            allow = rng.random() < 0.6
            weight = rng.choice([1, 3])
            for goal in goals - {source}:
                try:
                    path = find_path(grid, RoutingRequest(
                        source, goal, frozenset(avoid), allow, weight))
                except NoPathError:
                    continue
                assert path.source == source and path.destination == goal
                assert_legal_route(grid, path, avoid, allow, weight)

    def test_forbidden_crossings_cost_the_bfs_distance(self):
        rng = random.Random(3)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source, goals, avoid = random_query(rng, grid)
            want = reference_goal_costs(grid, source, goals, avoid)
            for goal in goals:
                request = RoutingRequest(source, goal, frozenset(avoid),
                                         allow_occupied=False)
                if goal not in want:
                    with pytest.raises(NoPathError):
                        find_path(grid, request)
                    continue
                assert find_path(grid, request).cost == want[goal], \
                    f"trial {trial} goal {goal}"

    def test_paths_to_all_match_bfs_reference(self):
        rng = random.Random(4)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source, goals, avoid = random_query(rng, grid)
            got = find_paths_to_all(grid, source, goals, avoid=avoid)
            want = reference_goal_costs(grid, source, goals, avoid)
            assert {g: p.cost for g, p in got.items()} == want, \
                f"trial {trial}"
            for path in got.values():
                assert_legal_route(grid, path, avoid, False, 1)

    def test_paths_to_all_with_crossings_match_tuple_reference(self):
        rng = random.Random(5)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source, goals, avoid = random_query(rng, grid)
            weight = rng.choice([1, 4])
            got = find_paths_to_all(grid, source, goals, avoid=avoid,
                                    allow_occupied=True, penalty_weight=weight)
            for goal in goals:
                want = reference_path(grid, source, goal, frozenset(avoid),
                                      True, weight)
                if want is None:
                    assert goal not in got
                    continue
                path = got[goal]
                assert (path.cells, path.cost, path.occupied_crossings) == \
                    want, f"trial {trial} goal {goal}"

    def test_path_to_any_picks_cheapest_then_row_major_goal(self):
        rng = random.Random(6)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source, goals, avoid = random_query(rng, grid)
            want = reference_goal_costs(grid, source, goals, avoid)
            if not want:
                with pytest.raises(NoPathError):
                    find_path_to_any(grid, source, goals, avoid=avoid)
                continue
            cheapest = min(want.values())
            path = find_path_to_any(grid, source, goals, avoid=avoid)
            assert path.cost == cheapest, f"trial {trial}"
            assert path.destination == min(
                g for g, cost in want.items() if cost == cheapest
            ), f"trial {trial}"


    def test_find_path_keeps_one_cost_per_cell(self):
        # D.##    S at (1, 2), D at (0, 0), # occupied.  The search reaches
        # .#S.    (1, 0) first through the occupied (1, 1) at cost
        # ....    2 * (1 + 1) = 4, then again along the bottom at the same
        # cost 4 with no crossing; only the first is kept, so D costs
        # 3 * (1 + 1) = 6 through (0, 2) although the free detour costs 5.
        grid = Grid(3, 4)
        for qubit, pos in enumerate([(0, 2), (0, 3), (1, 1)]):
            grid.place(qubit, pos)
        source, goal = (1, 2), (0, 0)
        detour = ((1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0))
        assert_legal_route(grid, Path(detour, 5.0, 0), (), True, 1)
        got = find_path(grid, RoutingRequest(source, goal, allow_occupied=True))
        assert (got.cost, got.occupied_crossings) == (6.0, 1)
        assert got.cells == ((1, 2), (0, 2), (0, 1), (0, 0))
        swept = find_paths_to_all(grid, source, {goal}, allow_occupied=True)
        assert swept[goal] == got
        # with crossings forbidden the same query is exact
        free = find_path(grid, RoutingRequest(source, goal, allow_occupied=False))
        assert free.cells == detour and free.cost == 5.0


# -- magic-state delivery reference -------------------------------------------

#: penalty weights of the weighted delivery sweeps, lowest first.
DELIVERY_WEIGHTS = (1, 8, 32)


def eager_delivery(grid, port, goals, rank, magic_id):
    """Magic-state delivery with every weighted sweep run up front.

    The scheduler's route before the sweeps became lazy: one free-only
    sweep, then one sweep per weight over the goals it left blocked, the
    candidates (goal order, then weight order, distinct cells) ranked by
    ``rank`` and walked until one succeeds.  Returns ``(drop, moves)``.
    """
    free = find_paths_to_all(grid, port, goals, allow_occupied=False)
    blocked = {goal for goal in goals if goal not in free}
    penalised = {
        weight: find_paths_to_all(grid, port, blocked, allow_occupied=True,
                                  penalty_weight=weight)
        for weight in (DELIVERY_WEIGHTS if blocked else ())
    }
    candidates, seen = [], set()
    for goal in sorted(goals):
        if goal in free:
            candidates.append(free[goal])
            continue
        for weight in penalised:
            path = penalised[weight].get(goal)
            if path is not None and path.cells not in seen:
                seen.add(path.cells)
                candidates.append(path)
    for path in rank(candidates):
        with grid.scratch() as scratch:
            prefix = []
            if scratch.is_occupied(port):
                prefix = _displace_blocker(
                    scratch, port, frozenset(), set(path.cells), 0
                )
                if prefix is None:
                    continue
            scratch.place(magic_id, port)
            moves = _walk_path_inner(scratch, magic_id, path, banned=frozenset(),
                                     keep_off=set(), depth=0)
        if moves is not None:
            return path.destination, prefix + moves
    return None, []


def historical_rank(scheduler, candidates):
    """The shipped strategies' delivery rankings, written out by hand."""
    if scheduler.strategy.name == "default":
        return sorted(candidates, key=lambda p: p.cost)
    assert scheduler.strategy.name == "balanced"
    grid, moves = scheduler.grid, scheduler.strategy._moves

    def churn(path):
        return 0.25 * sum(moves.get(grid.occupant(c), 0) for c in path.cells
                          if grid.occupant(c) is not None)

    return sorted(candidates, key=lambda p: (p.cost + churn(p), p.cost, p.cells))


def rung_floors(grid, port, goals):
    """The cost floor of each weighted sweep: (1 + w) x the Manhattan
    distance to the nearest goal with no free route (empty if none)."""
    free = find_paths_to_all(grid, port, goals, allow_occupied=False)
    blocked = [goal for goal in goals if goal not in free]
    if not blocked:
        return []
    nearest = min(Grid.manhattan(port, goal) for goal in blocked)
    return [(1 + weight) * nearest for weight in DELIVERY_WEIGHTS]


class SnapToFloor(Strategy):
    """Keys snapped up to the next sweep floor, so many candidates tie at
    a floor exactly: the cases a lazy sweep must break like the eager one.
    Non-snapping keys add a hashed second component."""

    name = "snap-to-floor"

    def __init__(self, floors, salt):
        self.floors = floors
        self.salt = salt

    def snapped(self, path):
        return next((f for f in self.floors if f >= path.cost), path.cost)

    def delivery_key(self, scheduler):
        if self.salt is None:
            return lambda path: (self.snapped(path),)
        return lambda path: (self.snapped(path), hash((self.salt, path.cells)))


def random_delivery(rng):
    """A grid 30-70% occupied, a port and a drop-off goal set like a
    scheduler delivery: the free neighbours of a data qubit, sometimes
    plus scattered cells."""
    grid = Grid(rng.randint(4, 9), rng.randint(4, 9))
    cells = all_cells(grid)
    rng.shuffle(cells)
    for qubit, pos in enumerate(cells[: int(len(cells) * rng.uniform(0.3, 0.7))]):
        grid.place(qubit, pos)
    for pos in rng.sample(cells, 2):
        grid.set_role(pos, rng.choice([CellRole.FACTORY, CellRole.PORT]))
    routable = [p for p in all_cells(grid) if grid.routable(p)]
    parked = [p for p in routable if grid.is_occupied(p)]
    goals = set()
    if parked:
        goals = {p for p in grid.free_neighbors(rng.choice(parked))
                 if grid.routable(p)}
    free_cells = [p for p in routable if not grid.is_occupied(p)]
    if not goals or rng.random() < 0.3:
        goals |= set(rng.sample(free_cells, min(len(free_cells), 2)))
    port = rng.choice([p for p in routable if p not in goals])
    return grid, port, goals


class TestDeliveryAgainstEagerSweeps:
    def test_every_matrix_delivery(self, monkeypatch):
        """Each delivery of the full bench matrix, both strategies, against
        the eager route on the live grid at the moment of the call."""
        lazy = LatticeSurgeryScheduler._route_magic_state
        checked = []

        def route(self, port, qubit, goals):
            want = eager_delivery(self.grid, port, goals,
                                  partial(historical_rank, self), self._MAGIC_ID)
            got = lazy(self, port, qubit, goals)
            assert got == want, (port, sorted(goals))
            checked.append(bool(rung_floors(self.grid, port, goals)))
            return got

        monkeypatch.setattr(LatticeSurgeryScheduler, "_route_magic_state", route)
        assert sorted(STRATEGIES) == ["balanced", "default"]
        for strategy in sorted(STRATEGIES):
            for case in bench_cases():
                FaultTolerantCompiler(CompilerConfig(
                    routing_paths=case.routing_paths,
                    num_factories=case.num_factories,
                    strategy=strategy,
                )).compile(load_benchmark(case.workload))
        assert len(checked) == 2 * 1502
        assert sum(checked) > 2000  # most deliveries had a blocked goal

    @pytest.mark.parametrize("salt", [None, 7])
    def test_seeded_grids_with_keys_tied_at_the_floors(self, salt):
        rng = random.Random(11)
        blocked = ties = 0
        for trial in range(600):
            grid, port, goals = random_delivery(rng)
            floors = rung_floors(grid, port, goals)
            strategy = SnapToFloor(floors, salt)
            scheduler = LatticeSurgeryScheduler(
                grid, InstructionSet(), [port], strategy=strategy
            )
            key = strategy.delivery_key(scheduler)
            want = eager_delivery(grid, port, goals,
                                  lambda c: sorted(c, key=key), 10**9)
            got = scheduler._route_magic_state(port, 0, goals)
            assert got == want, f"trial {trial}"
            blocked += bool(floors)
            ties += any(strategy.snapped(p) in floors and p.cost < strategy.snapped(p)
                        for p in find_paths_to_all(grid, port, goals).values())
        assert blocked > 300 and ties > 100

    @pytest.mark.parametrize("name", ["default", "balanced"])
    def test_seeded_grids_with_shipped_strategies(self, name):
        rng = random.Random(12)
        for trial in range(300):
            grid, port, goals = random_delivery(rng)
            scheduler = LatticeSurgeryScheduler(
                grid, InstructionSet(), [port], strategy=name
            )
            scheduler.strategy._moves = {
                q: rng.randint(0, 6) for q in range(grid.rows * grid.cols)
            }
            want = eager_delivery(grid, port, goals,
                                  partial(historical_rank, scheduler), 10**9)
            assert scheduler._route_magic_state(port, 0, goals) == want, \
                f"trial {trial}"


# -- reachability references ------------------------------------------------


def reference_reachable(grid, source, max_distance=None, predicate=None):
    """Every free routable cell reachable through routable cells, sorted."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        pos = queue.popleft()
        for nxt in grid.neighbors(pos):
            if nxt not in dist and grid.routable(nxt):
                dist[nxt] = dist[pos] + 1
                queue.append(nxt)
    return sorted(
        (d, pos)
        for pos, d in dist.items()
        if pos != source
        and not grid.is_occupied(pos)
        and (max_distance is None or d <= max_distance)
        and (predicate is None or predicate(pos))
    )


class TestReachabilityReference:
    def test_unbounded_sweep_matches_bfs(self):
        rng = random.Random(7)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source = rng.choice(all_cells(grid))
            assert reachable_free_cells(grid, source) == \
                reference_reachable(grid, source), f"trial {trial}"

    def test_max_distance_truncates_the_sweep(self):
        rng = random.Random(8)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source = rng.choice(all_cells(grid))
            bound = rng.randint(0, 5)
            assert reachable_free_cells(grid, source, max_distance=bound) == \
                reference_reachable(grid, source, max_distance=bound), \
                f"trial {trial}"

    def test_limit_keeps_whole_distance_rings(self):
        rng = random.Random(9)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source = rng.choice(all_cells(grid))
            limit = rng.randint(1, 6)
            full = reference_reachable(grid, source)
            if len(full) >= limit:
                ring = full[limit - 1][0]
                want = [entry for entry in full if entry[0] <= ring]
            else:
                want = full
            assert reachable_free_cells(grid, source, limit=limit) == want, \
                f"trial {trial}"

    def test_predicate_filters_reported_cells_only(self):
        rng = random.Random(10)
        for trial in range(TRIALS):
            grid = random_grid(rng)
            source = rng.choice(all_cells(grid))

            def even(pos):
                return (pos[0] + pos[1]) % 2 == 0

            assert reachable_free_cells(grid, source, predicate=even) == \
                reference_reachable(grid, source, predicate=even), \
                f"trial {trial}"

    def test_bus_cells_adjacent_matches_neighbour_scan(self):
        rng = random.Random(11)
        for _ in range(TRIALS):
            grid = random_grid(rng)
            for pos in all_cells(grid):
                want = {
                    n for n in grid.neighbors(pos)
                    if grid.role(n) in (CellRole.BUS, CellRole.PORT)
                    and not grid.is_occupied(n)
                }
                assert bus_cells_adjacent_to(grid, pos) == want


# -- grid flat arrays -------------------------------------------------------


def random_mutation(rng, grid, next_qubit):
    """Apply one legal random mutation; returns the next unused qubit id."""
    cells = all_cells(grid)
    placed = grid.placed_qubits()
    free = [p for p in cells if not grid.is_occupied(p)]
    choice = rng.random()
    if choice < 0.3 and free:
        grid.place(next_qubit, rng.choice(free))
        return next_qubit + 1
    if choice < 0.5 and placed:
        grid.remove(rng.choice(sorted(placed)))
    elif choice < 0.8 and placed and free:
        grid.move(rng.choice(sorted(placed)), rng.choice(free))
    else:
        grid.set_role(rng.choice(cells), rng.choice(list(CellRole)))
    return next_qubit


def snapshot(grid):
    return (
        list(grid._role),
        list(grid._occ),
        bytes(grid._routable_b),
        bytes(grid._parkable_b),
        grid.placed_qubits(),
        grid.epoch,
    )


def assert_arrays_consistent(grid):
    positions = grid.placed_qubits()
    for i, pos in enumerate(all_cells(grid)):
        role = grid._role[i]
        assert grid._routable_b[i] == (role in ROUTABLE)
        assert grid._parkable_b[i] == (role in PARKABLE)
        occupant = grid._occ[i]
        if occupant is not None:
            assert positions[occupant] == pos
    assert sum(q is not None for q in grid._occ) == len(positions)


class TestGridArrays:
    def test_flat_arrays_track_random_mutations(self):
        rng = random.Random(12)
        grid = Grid(6, 7)
        qubit = 0
        for _ in range(400):
            qubit = random_mutation(rng, grid, qubit)
            assert_arrays_consistent(grid)

    def test_rollback_restores_every_array(self):
        rng = random.Random(13)
        grid = Grid(6, 6)
        qubit = 0
        for _ in range(30):
            qubit = random_mutation(rng, grid, qubit)
        for _ in range(20):
            before = snapshot(grid)
            with grid.scratch():
                for _ in range(rng.randint(1, 15)):
                    qubit = random_mutation(rng, grid, qubit)
                inner = snapshot(grid)
                with grid.scratch():
                    for _ in range(rng.randint(1, 15)):
                        qubit = random_mutation(rng, grid, qubit)
                assert snapshot(grid) == inner
            assert snapshot(grid) == before
            qubit = random_mutation(rng, grid, qubit)

    def test_clone_arrays_are_independent(self):
        rng = random.Random(14)
        grid = Grid(5, 6)
        qubit = 0
        for _ in range(40):
            qubit = random_mutation(rng, grid, qubit)
        original = snapshot(grid)
        dup = grid.clone()
        assert snapshot(dup)[:5] == original[:5]
        for _ in range(60):
            qubit = random_mutation(rng, dup, qubit)
            assert_arrays_consistent(dup)
        assert snapshot(grid) == original


# -- redundant-move references ----------------------------------------------


def random_move_schedule(rng, qubits=4, length=60):
    """Moves that often step straight back, interleaved with gates and
    routes that touch random cells."""
    where = {q: (q, 0) for q in range(qubits)}
    came_from = {}
    ops = []
    for uid in range(length):
        roll = rng.random()
        if roll < 0.55:
            q = rng.randrange(qubits)
            origin = where[q]
            if q in came_from and rng.random() < 0.6:
                dest = came_from[q]
            else:
                r, c = origin
                dest = rng.choice([(r + 1, c), (r, c + 1), (r - 1, c),
                                   (r, c - 1)])
            came_from[q] = origin
            where[q] = dest
            ops.append(ScheduledOp(
                uid=uid, kind=rng.choice(["move", "evict", "restore"]),
                name="move", qubits=(q,), cells=(origin, dest),
                start=float(uid), duration=1.0,
            ))
        elif roll < 0.8:
            gate_qubits = tuple(rng.sample(range(qubits), rng.randint(1, 2)))
            ops.append(ScheduledOp(
                uid=uid, kind="gate", name="cx", qubits=gate_qubits,
                cells=((rng.randrange(4), rng.randrange(4)),),
                start=float(uid), duration=1.0,
            ))
        else:
            ops.append(ScheduledOp(
                uid=uid, kind="route", name="route", qubits=(),
                cells=((rng.randrange(4), rng.randrange(4)),
                       (rng.randrange(4), rng.randrange(4))),
                start=float(uid), duration=1.0,
            ))
    return Schedule(ops=ops)


@pytest.fixture(scope="module")
def raw_schedules():
    """Random move schedules plus compiled ones with elimination off."""
    rng = random.Random(15)
    schedules = [random_move_schedule(rng) for _ in range(TRIALS)]
    for side, paths in ((3, 3), (4, 3), (4, 6)):
        schedules.append(FaultTolerantCompiler(CompilerConfig(
            routing_paths=paths, eliminate_redundant_moves=False,
        )).compile(ising_2d(side)).schedule)
    return schedules


def is_qubit_move(op):
    return op.kind in ("move", "evict", "restore") and len(op.cells) == 2


def positions_at_uses(schedule, start):
    """Replay moves: for each non-move op, where each of its qubits sits."""
    where = dict(start)
    seen = []
    for op in schedule.ops:
        if is_qubit_move(op):
            where[op.qubits[0]] = op.cells[1]
        else:
            seen.append((op.uid, tuple(where.get(q) for q in op.qubits)))
    return seen, where


class TestRedundantPairsReference:
    def test_pairs_are_inverse_moves_of_one_qubit(self, raw_schedules):
        found = 0
        for schedule in raw_schedules:
            ops = schedule.ops
            for i, j in find_redundant_pairs(schedule):
                found += 1
                first, second = ops[i], ops[j]
                assert i < j
                assert first.name == second.name == "move"
                assert first.qubits == second.qubits
                assert first.cells == tuple(reversed(second.cells))
        assert found > 0

    def test_pairs_are_disjoint(self, raw_schedules):
        for schedule in raw_schedules:
            members = [k for pair in find_redundant_pairs(schedule)
                       for k in pair]
            assert len(members) == len(set(members))

    def test_nothing_between_a_pair_uses_its_qubit(self, raw_schedules):
        for schedule in raw_schedules:
            ops = schedule.ops
            for i, j in find_redundant_pairs(schedule):
                (qubit,) = ops[i].qubits
                assert all(qubit not in op.qubits for op in ops[i + 1:j])

    def test_nothing_surviving_between_a_pair_locks_its_cells(
        self, raw_schedules
    ):
        for schedule in raw_schedules:
            ops = schedule.ops
            pairs = find_redundant_pairs(schedule)
            cancelled = {k for pair in pairs for k in pair}
            for i, j in pairs:
                ends = set(ops[i].cells)
                for k in range(i + 1, j):
                    if k not in cancelled:
                        assert not ends & set(ops[k].cells), (i, j, k)

    def test_elimination_preserves_positions_at_every_use(
        self, raw_schedules
    ):
        for schedule in raw_schedules:
            start = {}
            for op in schedule.ops:
                if is_qubit_move(op):
                    start.setdefault(op.qubits[0], op.cells[0])
            pruned, report = eliminate_redundant_moves(schedule)
            assert report.ops_after == len(pruned.ops)
            assert report.ops_before - report.ops_after == report.moves_removed
            assert positions_at_uses(pruned, start) == \
                positions_at_uses(schedule, start)


# -- Sec. V-D pass against the op walk --------------------------------------


def reference_redundant_pairs(ops):
    """Inverse move pairs, found by walking :class:`ScheduledOp` objects
    (the pass as it read ``schedule.ops``)."""
    pairs = []
    claimed = set()
    pending = {}
    last_use = {}
    last_touch = {}
    for idx, op in enumerate(ops):
        if (op.kind in ("move", "evict", "restore") and op.name == g.MOVE
                and len(op.cells) == 2):
            (qubit,) = op.qubits
            origin, dest = op.cells
            prior = pending.get(qubit)
            if (
                prior is not None
                and last_use.get(qubit, -1) <= prior[0]
                and prior[1] == dest
                and prior[2] == origin
                and last_touch.get(origin, -1) <= prior[0]
                and last_touch.get(dest, -1) <= prior[0]
                and prior[0] not in claimed
            ):
                pairs.append((prior[0], idx))
                claimed.add(prior[0])
                claimed.add(idx)
                pending.pop(qubit, None)
                continue
            pending[qubit] = (idx, origin, dest)
            last_touch[origin] = idx
            last_touch[dest] = idx
            continue
        for qubit in op.qubits:
            last_use[qubit] = idx
        for cell in op.cells:
            last_touch[cell] = idx
    return pairs


def reference_resimulate(ops):
    """Earliest-start replay that copies each moved op (the pass as it
    re-timed ``ScheduledOp`` objects)."""
    qubit_free, cell_free, retimed = {}, {}, []
    for op in ops:
        resources = op.resource_cells()
        start = op.min_start
        for q in op.qubits:
            if qubit_free.get(q, 0.0) > start:
                start = qubit_free.get(q, 0.0)
        for c in resources:
            if cell_free.get(c, 0.0) > start:
                start = cell_free.get(c, 0.0)
        retimed.append(op if start == op.start else replace(op, start=start))
        end = start + op.duration
        for q in op.qubits:
            qubit_free[q] = end
        for c in resources:
            cell_free[c] = end
    return retimed


def column_text(columns):
    """Every value of every column as its repr: an int time and a float
    time, or a tuple and a list, never compare equal here."""
    return [list(map(repr, column)) for column in columns]


def op_columns(ops):
    return [[getattr(op, field) for op in ops] for field in ScheduledOp.__slots__]


@contextlib.contextmanager
def building_no_op(what):
    """Fail ``what`` if the block constructs a :class:`ScheduledOp`."""
    made = []
    init = ScheduledOp.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    ScheduledOp.__init__ = counting
    try:
        yield
    finally:
        ScheduledOp.__init__ = init
    assert made == [], what


def assert_same_pass(schedule, what):
    """``find_redundant_pairs``, ``resimulate`` and ``optimize_schedule`` on
    ``schedule`` equal the op walk: the same pairs, and output columns with
    the same values of the same types, and none of them builds an op.
    Returns the expected optimised ops."""
    ops = list(map(ScheduledOp, *schedule.columns()))
    pairs = reference_redundant_pairs(ops)
    with building_no_op(what):
        found = find_redundant_pairs(schedule)
        retimed = resimulate(schedule)
        optimised, report = optimize_schedule(schedule)
    assert found == pairs, what
    assert column_text(retimed.columns()) == column_text(
        op_columns(reference_resimulate(ops))
    ), what
    dropped = {k for pair in pairs for k in pair}
    expected = reference_resimulate(
        [op for k, op in enumerate(ops) if k not in dropped]
    )
    assert column_text(optimised.columns()) == column_text(op_columns(expected)), what
    assert report == EliminationReport(len(pairs), len(ops), len(expected)), what
    return expected


def timed_move_schedule(rng):
    """A :func:`random_move_schedule` with int and float times, equal
    starts and ``min_start`` floors."""
    schedule = random_move_schedule(
        rng, qubits=rng.randint(2, 5), length=rng.randint(0, 80)
    )
    times = (0, 1, 2, 3, 0.0, 0.5, 1.0, 2.0, 3.0, 7.5)
    return Schedule(ops=[
        replace(
            op,
            start=rng.choice((op.start, int(op.start), rng.choice(times))),
            duration=rng.choice((1, 1.0, 0.5, 2.0, 0.0)),
            min_start=rng.choice((0.0, 0.0, 0, op.start, rng.choice(times))),
        )
        for op in schedule.ops
    ])


def _hop(uid, qubit, a, b, start=0.0, min_start=0.0, kind="move"):
    return ScheduledOp(uid, kind, g.MOVE, (qubit,), (a, b), start, 1.0, min_start)


def _gate(uid, qubits, cells, start, duration=2.0, min_start=0.0):
    return ScheduledOp(uid, "gate", g.CX, qubits, cells, start, duration, min_start)


HAND_MADE = {
    # int times: unmoved ops keep their int start, moved ones take the
    # replay's value
    "int times": [
        _gate(0, (0,), (), 0, duration=2), _hop(1, 1, (0, 0), (0, 1), start=5),
        _hop(2, 1, (0, 1), (0, 0), start=6), _gate(3, (0,), (), 2, duration=1),
        _gate(4, (1,), (), 7, duration=1),
    ],
    # two ops computed to the same start; one holds 3 as an int where the
    # replay computes 3.0, so it keeps the int
    "start ties": [
        _gate(0, (0,), ((1, 1),), 0.0, duration=3.0),
        _gate(1, (1,), ((2, 2),), 0.0, duration=3.0),
        _gate(2, (0,), (), 3), _gate(3, (1,), (), 3.0),
        _gate(4, (2,), ((1, 1),), 4.0),
    ],
    # floors hold ops back once the pair in front of them is gone
    "min_start floors": [
        _hop(0, 0, (0, 0), (0, 1), start=0.0),
        _hop(1, 0, (0, 1), (0, 0), start=1.0, min_start=1.0),
        _gate(2, (0,), (), 2.0, min_start=1.5),
        _gate(3, (1,), (), 8.0, min_start=9),
        _gate(4, (0, 1), (), 11.0, duration=1.0, min_start=4.0),
    ],
    # back-to-back and nested inverse pairs of one qubit, a pair broken by
    # a route over its cell, and a pair of evictions
    "chained inverse pairs": [
        _hop(0, 0, (0, 0), (0, 1), start=0.0),
        _hop(1, 0, (0, 1), (0, 0), start=1.0),
        _hop(2, 0, (0, 0), (0, 1), start=2.0),
        _hop(3, 0, (0, 1), (0, 0), start=3.0),
        _hop(4, 0, (0, 0), (1, 0), start=4.0),
        _hop(5, 0, (1, 0), (2, 0), start=5.0),
        _hop(6, 0, (2, 0), (1, 0), start=6.0),
        _hop(7, 0, (1, 0), (0, 0), start=7.0),
        _hop(8, 1, (5, 5), (5, 6), start=0.0, kind="evict"),
        ScheduledOp(9, "route", g.MOVE, (), ((5, 6), (4, 6)), 1.0, 1.0),
        _hop(10, 1, (5, 6), (5, 5), start=2.0, kind="restore"),
        _hop(11, 2, (7, 7), (7, 8), start=0.0, kind="evict"),
        _hop(12, 2, (7, 8), (7, 7), start=1.0, kind="restore"),
        _gate(13, (0, 1, 2), (), 8.0),
    ],
}


@pytest.fixture(scope="module")
def full_matrix_raw():
    """``(name, raw result)`` per full-matrix case and strategy: the
    scheduler's output before the Sec. V-D pass."""
    return [
        (
            f"{strategy}/{case.workload}/r{case.routing_paths}/f{case.num_factories}",
            FaultTolerantCompiler(CompilerConfig(
                routing_paths=case.routing_paths, num_factories=case.num_factories,
                strategy=strategy, eliminate_redundant_moves=False,
            )).compile(load_benchmark(case.workload)),
        )
        for strategy in ("default", "balanced")
        for case in bench_cases()
    ]


class TestSecVDAgainstOpWalk:
    """Pruning and re-timing on columns give the op walk's pairs and its
    columns, value for value and type for type."""

    def test_full_matrix_raw_schedules(self, full_matrix_raw):
        removed = 0
        for name, raw in full_matrix_raw:
            schedule = raw.schedule
            expected = assert_same_pass(schedule, name)
            removed += len(schedule) - len(expected)
            # the intern tables too: the optimised result encodes as the
            # op walk's does
            optimised, _ = optimize_schedule(Schedule.from_columns(schedule.columns()))
            assert codec.encode(replace(raw, schedule=optimised)) == codec.encode(
                replace(raw, schedule=Schedule(ops=expected))
            ), name
        assert removed > 0

    def test_seeded_fuzz_schedules(self):
        rng = random.Random(2707)
        paired = moved_ints = 0
        for trial in range(200):
            schedule = timed_move_schedule(rng)
            columnar = Schedule.from_columns(op_columns(schedule.ops))
            assert_same_pass(columnar, f"trial {trial} (list columns)")
            expected = assert_same_pass(schedule, f"trial {trial}")
            paired += len(schedule) > len(expected)
            moved_ints += any(type(op.start) is int for op in expected)
        assert paired > 100 and moved_ints > 100

    def test_hand_made_cases(self):
        for name, ops in HAND_MADE.items():
            assert_same_pass(Schedule(ops=list(ops)), name)
            assert_same_pass(Schedule.from_columns(op_columns(ops)), f"{name} (columns)")
        int_times, _ = optimize_schedule(Schedule(ops=HAND_MADE["int times"]))
        assert [repr(op.start) for op in int_times.ops] == ["0", "2", "0.0"]
        ties = resimulate(Schedule(ops=HAND_MADE["start ties"]))
        assert [repr(op.start) for op in ties.ops] == ["0.0", "0.0", "3", "3.0", "3.0"]
        floors, _ = optimize_schedule(Schedule(ops=HAND_MADE["min_start floors"]))
        assert [repr(op.start) for op in floors.ops] == ["1.5", "9", "11.0"]
        assert find_redundant_pairs(Schedule(ops=HAND_MADE["chained inverse pairs"])) == [
            (0, 1), (2, 3), (5, 6), (11, 12),
        ]


# -- validator interval references ------------------------------------------


@pytest.fixture(scope="module")
def valid_schedule():
    return FaultTolerantCompiler(
        CompilerConfig(routing_paths=3)
    ).compile(ising_2d(3)).schedule


def perturbed(rng, schedule):
    """Shift a few ops' start and release times by half-unit steps, and
    stretch some so that one long span can cover several later ones."""
    ops = list(schedule.ops)
    for k in rng.sample(range(len(ops)), rng.randint(1, 6)):
        op = ops[k]
        start = max(0.0, op.start + 0.5 * rng.randint(-6, 6))
        min_start = op.min_start
        if rng.random() < 0.3:
            min_start = max(0.0, op.start + 0.5 * rng.randint(-2, 2))
        duration = op.duration
        if rng.random() < 0.5:
            duration *= rng.randint(2, 6)
        ops[k] = replace(op, start=start, min_start=min_start,
                         duration=duration)
    return Schedule(ops=ops)


def run_interval_checks(schedule):
    validator = ScheduleValidator(schedule)
    validator.check_timelines()
    validator.check_cell_conflicts()
    validator.check_min_start()
    return validator.report


def flagged(report, code):
    return [v for v in report.violations if v.code == code]


class TestValidatorReference:
    def test_compiled_schedule_passes_with_exact_counts(self, valid_schedule):
        report = run_interval_checks(valid_schedule)
        ops = valid_schedule.ops
        assert report.ok, report.summary()
        assert report.checks["timeline"] == sum(len(op.qubits) for op in ops)
        assert report.checks["cell-conflict"] == sum(
            len(op.resource_cells()) for op in ops if op.duration > 0
        )
        assert report.checks["min-start"] == len(ops)

    def test_timeline_flags_exactly_the_double_booked_qubits(
        self, valid_schedule
    ):
        rng = random.Random(16)
        for trial in range(TRIALS):
            schedule = perturbed(rng, valid_schedule)
            ops = schedule.ops
            want = {
                qubit
                for k, later in enumerate(ops)
                for earlier in ops[:k]
                for qubit in set(later.qubits) & set(earlier.qubits)
                if later.start + EPS < earlier.end
            }
            got = {v.qubit for v in flagged(run_interval_checks(schedule),
                                            "timeline")}
            assert got == want, f"trial {trial}"

    def test_cell_conflicts_match_pairwise_overlap(self, valid_schedule):
        rng = random.Random(17)
        for trial in range(TRIALS):
            schedule = perturbed(rng, valid_schedule)
            spans = {}
            for op in schedule.ops:
                if op.duration > 0:
                    for cell in op.resource_cells():
                        spans.setdefault(cell, []).append(
                            (op.start, op.end, op.uid))
            want = set()
            for cell, intervals in spans.items():
                intervals.sort()
                for k, (start, _, uid) in enumerate(intervals):
                    if any(start + EPS < end for _, end, _ in intervals[:k]):
                        want.add((cell, uid))
            got = {(v.cell, v.uid) for v in flagged(
                run_interval_checks(schedule), "cell-conflict")}
            assert got == want, f"trial {trial}"

    def test_min_start_flags_every_early_op(self, valid_schedule):
        rng = random.Random(18)
        for trial in range(TRIALS):
            schedule = perturbed(rng, valid_schedule)
            want = [op.uid for op in schedule.ops
                    if op.start + EPS < op.min_start]
            got = [v.uid for v in flagged(run_interval_checks(schedule),
                                          "min-start")]
            assert got == want, f"trial {trial}"


# -- the validator against an op-by-op walk ----------------------------------


_REF_CELL_REQUIRED = frozenset({g.H, g.SX, g.SXDG, g.CX, g.CZ, g.T, g.TDG})
_REF_MAGIC_PREFIX = "magic-state from f"


def _ref_resource_cells(op):
    if op.kind in ("move", "evict", "restore") and len(op.cells) == 2:
        return op.cells[1:]
    return op.cells


def _ref_magic_factory(op):
    if not op.note.startswith(_REF_MAGIC_PREFIX):
        return None
    try:
        return int(op.note[len(_REF_MAGIC_PREFIX):])
    except ValueError:
        return None


class ReferenceValidator:
    """The replay validator as an op-by-op walk over ``schedule.ops``: each
    check loops over the :class:`ScheduledOp` objects on its own.  The
    columnar validator must produce the same report, violation for
    violation and count for count."""

    def __init__(self, schedule, eps=EPS, label=""):
        self.ops = schedule.ops
        self.eps = eps
        self.report = ValidationReport(label=label, ops_checked=len(self.ops))

    def _flag(self, **kwargs):
        self.report.add(Violation(**kwargs))

    def check_structure(self):
        prev_uid = None
        for op in self.ops:
            if prev_uid is not None and op.uid <= prev_uid:
                self._flag(
                    code="structure", uid=op.uid, other_uid=prev_uid,
                    message=f"op uid {op.uid} not increasing after {prev_uid}",
                )
            prev_uid = op.uid
            if not all(
                math.isfinite(t) for t in (op.start, op.duration, op.min_start)
            ):
                self._flag(
                    code="structure", uid=op.uid,
                    message=(
                        f"op {op.uid} has non-finite times "
                        f"(start={op.start}, duration={op.duration}, "
                        f"min_start={op.min_start})"
                    ),
                )
                continue
            if op.start < -self.eps:
                self._flag(
                    code="structure", uid=op.uid, time=op.start,
                    message=f"op {op.uid} starts before t=0 ({op.start})",
                )
            if op.duration < 0:
                self._flag(
                    code="structure", uid=op.uid,
                    message=f"op {op.uid} has negative duration {op.duration}",
                )
        self.report.checks["structure"] = len(self.ops)

    def check_footprints(self, dag=None):
        checked = 0
        for op in self.ops:
            checked += 1
            if op.kind in ("move", "evict", "restore", "route"):
                if len(op.cells) != 2:
                    self._flag(
                        code="footprint", uid=op.uid, gate_index=op.gate_index,
                        message=(
                            f"{op.kind} op {op.uid} must carry an "
                            f"(origin, dest) cell pair, has {len(op.cells)}"
                        ),
                    )
                continue
            if op.kind != "gate":
                continue
            needs_cell = op.name in _REF_CELL_REQUIRED
            if not needs_cell and dag is not None and isinstance(op.gate_index, int):
                if 0 <= op.gate_index < len(dag.nodes):
                    gate = dag.node(op.gate_index).gate
                    needs_cell = gate.is_t_like and gate.name != g.SWAP
            if needs_cell and not op.cells:
                self._flag(
                    code="footprint", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"gate op {op.uid} ({op.name}) locks no cell but "
                        f"requires an ancilla/drop footprint"
                    ),
                )
        self.report.checks["footprint"] = checked

    def check_timelines(self):
        last = {}
        intervals = 0
        for op in self.ops:
            for qubit in op.qubits:
                prev = last.get(qubit)
                if prev is not None and op.start + self.eps < prev.end:
                    self._flag(
                        code="timeline", uid=op.uid, other_uid=prev.uid,
                        qubit=qubit, time=op.start, gate_index=op.gate_index,
                        message=(
                            f"qubit {qubit} double-booked: op {op.uid} "
                            f"starts at {op.start} before op {prev.uid} "
                            f"ends at {prev.end}"
                        ),
                    )
                last[qubit] = op
                intervals += 1
        self.report.checks["timeline"] = intervals

    def check_cell_conflicts(self):
        by_cell = {}
        for op in self.ops:
            if op.duration <= 0:
                continue
            for cell in _ref_resource_cells(op):
                by_cell.setdefault(cell, []).append((op.start, op.end, op.uid))
        intervals = 0
        for cell, spans in by_cell.items():
            spans.sort()
            intervals += len(spans)
            prev_end, prev_uid = -float("inf"), -1
            for start, end, uid in spans:
                if start + self.eps < prev_end:
                    self._flag(
                        code="cell-conflict", uid=uid, other_uid=prev_uid,
                        cell=cell, time=start,
                        message=(
                            f"cell {cell} locked twice: op {uid} starts at "
                            f"{start} before op {prev_uid} releases at {prev_end}"
                        ),
                    )
                if end > prev_end:
                    prev_end, prev_uid = end, uid
        self.report.checks["cell-conflict"] = intervals

    def check_min_start(self):
        for op in self.ops:
            if op.start + self.eps < op.min_start:
                self._flag(
                    code="min-start", uid=op.uid, time=op.start,
                    gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} starts at {op.start} before its "
                        f"release time {op.min_start}"
                    ),
                )
        self.report.checks["min-start"] = len(self.ops)

    def check_dependencies(self, dag):
        ops_by_node = {}
        for op in self.ops:
            if op.gate_index is None:
                self._flag(
                    code="coverage", uid=op.uid,
                    message=f"op {op.uid} carries no gate index",
                )
                continue
            if not isinstance(op.gate_index, int):
                self._flag(
                    code="coverage", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} carries a non-integer gate index "
                        f"{op.gate_index!r}"
                    ),
                )
            elif not 0 <= op.gate_index < len(dag.nodes):
                self._flag(
                    code="coverage", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} references gate {op.gate_index} "
                        f"outside the DAG ({len(dag.nodes)} nodes)"
                    ),
                )
                continue
            ops_by_node.setdefault(op.gate_index, []).append(op)
        for node in dag.nodes:
            if node.index not in ops_by_node:
                self._flag(
                    code="coverage", gate_index=node.index,
                    message=(
                        f"DAG node {node.index} ({node.gate}) produced no "
                        f"scheduled op"
                    ),
                )
        edges = 0
        for node in dag.nodes:
            node_ops = ops_by_node.get(node.index)
            if not node_ops:
                continue
            for pred_index in node.predecessors:
                pred_ops = ops_by_node.get(pred_index)
                if not pred_ops:
                    continue
                edges += 1
                if pred_index in node.barrier_predecessors:
                    self._barrier_edge(pred_index, pred_ops, node, node_ops)
                else:
                    self._wire_edge(dag, pred_index, pred_ops, node, node_ops)
        self.report.checks["dependency"] = edges

    def _wire_edge(self, dag, pred_index, pred_ops, node, node_ops):
        shared = set(node.qubits) & set(dag.node(pred_index).qubits)
        for qubit in shared:
            pred_end = max(
                (op.end for op in pred_ops if qubit in op.qubits), default=None
            )
            node_start = min(
                (op.start for op in node_ops if qubit in op.qubits), default=None
            )
            if pred_end is None or node_start is None:
                continue
            if node_start + self.eps < pred_end:
                first = min(
                    (op for op in node_ops if qubit in op.qubits),
                    key=lambda op: op.start,
                )
                self._flag(
                    code="dependency", uid=first.uid, qubit=qubit,
                    gate_index=node.index, time=node_start,
                    message=(
                        f"gate {node.index} runs on qubit {qubit} at "
                        f"{node_start}, before predecessor gate "
                        f"{pred_index} finishes at {pred_end}"
                    ),
                )

    def _barrier_edge(self, pred_index, pred_ops, node, node_ops):
        pred_end = max(op.end for op in pred_ops)
        node_start = min(op.start for op in node_ops)
        if node_start + self.eps < pred_end:
            first = min(node_ops, key=lambda op: op.start)
            self._flag(
                code="barrier", uid=first.uid, gate_index=node.index,
                time=node_start,
                message=(
                    f"gate {node.index} starts at {node_start}, crossing "
                    f"the barrier behind gate {pred_index} "
                    f"(finishes at {pred_end})"
                ),
            )

    def check_magic_states(self, distill_times, expected_t_states=None):
        consumes = {}
        total = 0
        for op in self.ops:
            if op.kind != "gate":
                continue
            factory = _ref_magic_factory(op)
            if factory is None:
                continue
            total += 1
            if factory not in distill_times:
                self._flag(
                    code="magic-count", uid=op.uid, gate_index=op.gate_index,
                    message=(
                        f"op {op.uid} consumes a state from unknown "
                        f"factory f{factory}"
                    ),
                )
                continue
            consumes.setdefault(factory, []).append(op)
        for factory, ops in sorted(consumes.items()):
            distill = distill_times[factory]
            ordered = sorted(ops, key=lambda op: (op.start, op.uid))
            for k, op in enumerate(ordered, start=1):
                floor = k * distill
                if op.start + self.eps < floor:
                    self._flag(
                        code="magic-pipeline", uid=op.uid, time=op.start,
                        gate_index=op.gate_index,
                        message=(
                            f"factory f{factory}: consumption #{k} starts at "
                            f"{op.start}, before the pipeline can have "
                            f"produced {k} states ({floor})"
                        ),
                    )
        if expected_t_states is not None and total != expected_t_states:
            self._flag(
                code="magic-count",
                message=(
                    f"{total} magic-state consumption(s) scheduled but the "
                    f"circuit requires {expected_t_states}"
                ),
            )
        self.report.checks["magic-state"] = total


def reference_validate(schedule, dag, distill_times, expected_t_states, eps=EPS):
    """:func:`validate_schedule`'s order of checks over the op-by-op walk."""
    reference = ReferenceValidator(schedule, eps=eps)
    reference.check_structure()
    reference.check_footprints(dag=dag)
    reference.check_timelines()
    reference.check_cell_conflicts()
    reference.check_min_start()
    reference.check_dependencies(dag)
    reference.check_magic_states(distill_times, expected_t_states)
    return reference.report


def _report_text(report):
    # NaN times compare unequal to themselves; their JSON text does not
    return json.dumps(report.to_dict(), sort_keys=True)


def _decoded(result, schedule):
    """``schedule`` after encode -> decode: the table and ``j`` columns."""
    blob = codec.encode(dataclasses.replace(result, schedule=schedule))
    with building_no_op("decode"):
        return codec.decode(blob).schedule


class Case:
    """A compiled result with everything a validation of it needs."""

    def __init__(self, name, circuit, config):
        self.name = name
        self.circuit = circuit
        self.result = FaultTolerantCompiler(config).compile(circuit)
        self.dag = DagCircuit(circuit)
        self.distill_times = config_distill_times(config)

    def assert_same_report(self, schedule, what, eps=EPS):
        return assert_same_report(
            self.result, schedule, self.circuit, self.distill_times,
            f"{self.name}: {what}", eps, dag=self.dag,
        )


def assert_same_report(
    result, schedule, circuit, distill_times, what, eps=EPS, dag=None,
):
    """The validator's report on ``schedule`` and on its decoded copy,
    given the circuit, equals the op-by-op walk's over the circuit's
    :class:`DagCircuit`; returns that report as a dict."""
    expected = _report_text(reference_validate(
        schedule, DagCircuit(circuit) if dag is None else dag, distill_times,
        result.t_states, eps=eps,
    ))
    for form, candidate in (
        ("given", schedule), ("decoded", _decoded(result, schedule)),
    ):
        with building_no_op(f"{what} ({form})"):
            got = validate_schedule(
                candidate, circuit=circuit, distill_times=distill_times,
                expected_t_states=result.t_states, eps=eps,
            )
        assert _report_text(got) == expected, f"{what} ({form})"
    return json.loads(expected)


def _barriered():
    circuit = Circuit(4, name="barriered")
    circuit.h(0).cx(0, 1).t(1).t(0)
    circuit.barrier()
    circuit.h(2).cx(2, 3).t(3)
    return circuit


def _barrier_shapes():
    """Barriers the matrix never has: back to back with no gate between,
    over part of the register, and on a wire no gate has touched yet."""
    consecutive = Circuit(3, name="consecutive-barriers")
    consecutive.h(0).cx(0, 1).t(1)
    consecutive.barrier().barrier(1, 2).barrier()
    consecutive.t(2).cx(1, 2).h(0)
    partial = Circuit(4, name="partial-barrier")
    partial.h(0).cx(0, 1).t(2).t(3)
    partial.barrier(1, 2)
    partial.h(1).t(3).cx(2, 3).cx(0, 1)
    fresh = Circuit(3, name="barrier-on-a-fresh-wire")
    fresh.barrier(2).h(0).t(0)
    fresh.barrier(0, 2)
    fresh.t(2).cx(1, 2).barrier(1).h(1)
    return [consecutive, partial, fresh]


@pytest.fixture(scope="module")
def barrier_cases():
    """The hand-made barrier shapes, then every seed-0 fuzz scenario
    among the first 80 whose circuit has a barrier."""
    cases = [
        Case(circuit.name, circuit, CompilerConfig(routing_paths=3))
        for circuit in _barrier_shapes()
    ]
    for index in range(80):
        scenario = generate_scenario(0, index)
        if any(gate.name == g.BARRIER for gate in scenario.circuit):
            cases.append(Case(scenario.name, scenario.circuit, scenario.config))
    return cases


@pytest.fixture(scope="module")
def oracle_cases():
    cases = [
        Case(
            f"{case.workload}/r{case.routing_paths}/f{case.num_factories}",
            load_benchmark(case.workload),
            CompilerConfig(
                routing_paths=case.routing_paths, num_factories=case.num_factories
            ),
        )
        for case in bench_cases(fast=True)
    ]
    cases.append(Case("barriered", _barriered(), CompilerConfig(routing_paths=3)))
    return cases


def perturb(rng, case, ops):
    """One seeded corruption of ``ops`` (a list, changed in place)."""
    if not ops:
        return
    k = rng.randrange(len(ops))
    op = ops[k]
    cell = (rng.randrange(-1, 6), rng.randrange(-1, 6))
    roll = rng.randrange(15)
    if roll == 0:
        field = rng.choice(("start", "duration", "min_start"))
        value = rng.choice((math.nan, math.inf, -math.inf, float("nan")))
        ops[k] = replace(op, **{field: value})
    elif roll == 1:
        ops[k] = replace(op, start=-rng.choice((0.5, 3.0, 1e-9)))
    elif roll == 2:
        qubit = rng.choice((
            case.circuit.num_qubits, case.circuit.num_qubits + 7, -1, -3,
        ))
        ops[k] = replace(op, qubits=(*op.qubits, qubit)[-2:])
    elif roll == 3:
        index = rng.choice((None, len(case.dag.nodes), len(case.dag.nodes) + 9, -2))
        ops[k] = replace(op, gate_index=index)
    elif roll == 4:
        kind = rng.choice(("move", "evict", "restore", "route"))
        cells = rng.choice(((), (cell,), (cell, cell, cell)))
        ops[k] = replace(op, kind=kind, cells=cells)
    elif roll == 5:
        ops[k] = replace(op, start=op.start + 0.5 * rng.randint(-8, 8),
                         duration=op.duration * rng.randint(1, 5))
    elif roll == 6:
        ops[k] = replace(op, uid=ops[rng.randrange(len(ops))].uid)
    elif roll == 7:
        ops[k] = replace(op, note=rng.choice(
            ("magic-state from f99", "magic-state from f0", "magic-state from fx",
             "magic-state from f-1")), kind="gate")
    elif roll == 8:
        del ops[k]
    elif roll == 9:
        ops.insert(rng.randrange(len(ops) + 1), op)  # one op object, twice
    elif roll == 10:
        ops[k] = replace(op, duration=rng.choice((0.0, -1.0, 0)))
    elif roll == 11:
        ops[k] = replace(op, cells=(*op.cells, *op.cells), start=op.start + 1e-7)
    elif roll == 12:
        ops[k] = replace(op, start=int(op.start), min_start=op.min_start + 2.5)
    elif roll == 13:
        ops[k] = replace(op, kind="gate", name=rng.choice((g.S, g.CX, g.T, g.RZ)),
                         cells=())
    else:
        j = rng.randrange(len(ops))
        ops[k], ops[j] = ops[j], ops[k]


class TestValidatorAgainstOpWalk:
    """Identical reports from the columnar validator and the op-by-op walk,
    on given and decoded schedules."""

    def test_compiled_schedules(self, oracle_cases):
        for case in oracle_cases:
            report = case.assert_same_report(case.result.schedule, "as compiled")
            assert report["ok"]

    def test_every_mutation_class(self, oracle_cases):
        caught = set()
        for case in oracle_cases:
            ctx = MutationContext(
                dag=case.dag, distill_times=case.distill_times,
                expected_t_states=case.result.t_states,
            )
            for name, (mutate, code) in MUTATIONS.items():
                mutated = mutate(case.result.schedule, ctx)
                if mutated is None:
                    continue
                report = case.assert_same_report(mutated, name)
                if any(v["code"] == code for v in report["violations"]):
                    caught.add(name)
        assert caught == set(MUTATIONS)

    def test_corpus(self):
        for path in corpus_paths():
            scenario, _ = load_artifact(path)
            case = Case(path.stem, scenario.circuit, scenario.config)
            case.assert_same_report(case.result.schedule, "as compiled")

    def test_seeded_perturbations(self, oracle_cases):
        rng = random.Random(25)
        codes = set()
        for trial in range(240):
            case = oracle_cases[trial % len(oracle_cases)]
            ops = list(case.result.schedule.ops)
            for _ in range(rng.choice((1, 2, 3, 6))):
                perturb(rng, case, ops)
            report = case.assert_same_report(Schedule(ops=ops), f"trial {trial}")
            codes.update(v["code"] for v in report["violations"])
        assert {"structure", "footprint", "timeline", "cell-conflict",
                "min-start", "dependency", "coverage", "magic-count",
                "magic-pipeline"} <= codes

    def test_barriered_circuits(self, barrier_cases):
        assert len(barrier_cases) > 20
        rng = random.Random(28)
        codes = set()
        for case in barrier_cases:
            report = case.assert_same_report(case.result.schedule, "as compiled")
            assert report["ok"]
            for trial in range(4):
                ops = list(case.result.schedule.ops)
                for _ in range(rng.choice((1, 2, 3))):
                    perturb(rng, case, ops)
                report = case.assert_same_report(Schedule(ops=ops), f"trial {trial}")
                codes.update(v["code"] for v in report["violations"])
        assert {"barrier", "dependency", "coverage"} <= codes

    def test_float_gate_indices(self, oracle_cases):
        """A float gate index is flagged, and counts for the gate it
        equals.  Built schedules only: the codec admits an int or None in
        that column."""
        case = oracle_cases[-1]
        ops = list(case.result.schedule.ops)
        indexed = [k for k, op in enumerate(ops) if op.gate_index is not None]
        for k in indexed[::7]:
            ops[k] = replace(ops[k], gate_index=float(ops[k].gate_index))
        k = indexed[1]
        ops[k] = replace(ops[k], kind="gate", name=g.S, cells=(), gate_index=1.0)
        schedule = Schedule(ops=ops)
        expected = _report_text(reference_validate(
            schedule, case.dag, case.distill_times, case.result.t_states,
        ))
        got = validate_schedule(
            schedule, circuit=case.circuit, distill_times=case.distill_times,
            expected_t_states=case.result.t_states,
        )
        assert _report_text(got) == expected
        assert got.count("coverage") == len(indexed[::7]) + 1

    def test_edge_to_a_gate_past_the_next_on_the_wire(self, oracle_cases):
        """Gate 0 shares qubit 1 with gate 2 though gate 1 runs between
        them there; with gate 1 ending before it starts, only that edge
        is late, so the screen must see it too."""
        circuit = Circuit(2, name="skip")
        circuit.cx(0, 1).h(1).cx(0, 1)
        ops = [
            ScheduledOp(0, "gate", g.CX, (0, 1), ((0, 0),), 0.0, 2.0, gate_index=0),
            ScheduledOp(1, "gate", g.H, (1,), ((1, 1),), 2.0, -1.0, gate_index=1),
            ScheduledOp(2, "gate", g.CX, (1,), ((2, 2),), 1.5, 1.0, gate_index=2),
            ScheduledOp(3, "gate", g.CX, (0,), ((3, 3),), 3.0, 1.0, gate_index=2),
        ]
        report = assert_same_report(
            oracle_cases[0].result, Schedule(ops=ops), circuit, {}, "skip",
        )
        late = [v for v in report["violations"] if v["code"] == "dependency"]
        assert [(v["gate_index"], v["qubit"]) for v in late] == [(2, 1)]

    def test_violation_order_follows_the_dag_predecessor_sets(self, oracle_cases):
        """Gate 10 follows gate 9 on its wire and gate 1 across a barrier;
        9 and 1 share a slot in a small set, so the set iterates them in
        insertion order, and the two late edges come out in the DAG's."""
        circuit = Circuit(2, name="collide")
        circuit.h(0).h(1)
        for _ in range(8):
            circuit.h(0)
        circuit.barrier(0, 1).h(0)
        assert list(DagCircuit(circuit).node(10).predecessors) == [9, 1]
        times = [(0.0, 1.0), (0.0, 5.0)] + [(t, 1.0) for t in range(1, 9)] + [(3.0, 1.0)]
        ops = [
            ScheduledOp(index, "gate", g.H, gate.qubits, ((index, index),),
                        start, duration, gate_index=index)
            for index, (gate, (start, duration)) in enumerate(zip(
                (gate for gate in circuit if gate.name != g.BARRIER), times,
            ))
        ]
        report = assert_same_report(
            oracle_cases[0].result, Schedule(ops=ops), circuit, {}, "collide",
        )
        assert [v["code"] for v in report["violations"]
                if v["gate_index"] == 10] == ["timeline", "dependency", "barrier"]

    def test_tolerance_and_empty_schedules(self, oracle_cases):
        case = oracle_cases[0]
        rng = random.Random(26)
        for eps in (0.0, 0.5, -1e-3):
            ops = list(case.result.schedule.ops)
            perturb(rng, case, ops)
            case.assert_same_report(Schedule(ops=ops), f"eps {eps}", eps=eps)
        case.assert_same_report(Schedule(ops=[]), "empty")

    def test_resource_checks_alone(self, oracle_cases):
        """``Schedule.validate``'s subset of the checks, one at a time."""
        rng = random.Random(27)
        for trial in range(60):
            case = oracle_cases[trial % len(oracle_cases)]
            ops = list(case.result.schedule.ops)
            perturb(rng, case, ops)
            schedule = Schedule(ops=ops)
            reference = ReferenceValidator(schedule)
            validator = ScheduleValidator(_decoded(case.result, schedule))
            for check in ("check_cell_conflicts", "check_min_start", "check_timelines"):
                getattr(reference, check)()
                getattr(validator, check)()
            assert _report_text(validator.report) == _report_text(reference.report)

    def test_ties_and_near_coincident_spans(self, oracle_cases):
        """The first op on a tie names a dependency violation, and spans
        closer than the tolerance sort as the walk sorts them."""
        circuit = Circuit(2, name="tie")
        circuit.h(0).cx(0, 1)
        result = oracle_cases[0].result

        def op(uid, kind, qubits, cells, start, duration, gate_index):
            return ScheduledOp(uid, kind, g.H if kind == "gate" else "move",
                               qubits, cells, start, duration,
                               gate_index=gate_index)

        tie = [
            op(0, "gate", (0,), ((0, 0),), 0.0, 1.0, 0),
            op(1, "move", (0,), ((0, 0), (0, 1)), 0.5, 0.5, 1),
            op(2, "gate", (0, 1), ((1, 1),), 0.5, 1.0, 1),
        ]
        near = [
            op(0, "gate", (0,), ((0, 0),), 0.0, 1.0, 0),
            op(1, "gate", (0, 1), ((1, 1),), 1.0, 1.0, 1),
            op(2, "gate", (), ((3, 3),), 5.0, 1e-7, 1),
            op(3, "gate", (), ((3, 3),), 5.0 - 1e-7, 10.0, 1),
        ]
        for ops, code in ((tie, "dependency"), (near, "cell-conflict")):
            report = assert_same_report(result, Schedule(ops=ops), circuit, {}, code)
            assert code in {v["code"] for v in report["violations"]}

        barriered = Circuit(2, name="tie-barrier")
        barriered.h(0)
        barriered.barrier()
        barriered.h(1)
        tie = [
            op(0, "gate", (0,), ((0, 0),), 0.0, 2.0, 0),
            op(1, "move", (1,), ((1, 0), (1, 1)), 1.5, 0.5, 1),
            op(2, "gate", (1,), ((1, 2),), 1.0, 1.0, 1),
            op(3, "gate", (1,), ((1, 2),), 1.0, 1.0, 1),
        ]
        report = assert_same_report(
            result, Schedule(ops=tie), barriered, {}, "barrier",
        )
        assert "barrier" in {v["code"] for v in report["violations"]}

        consume = ScheduledOp(5, "gate", g.T, (0,), ((0, 1),), 1.0, 1.0,
                              gate_index=0, note="magic-state from f0")
        same_start = [consume, replace(consume, uid=3, qubits=(1,), cells=((2, 2),))]
        report = assert_same_report(
            result, Schedule(ops=same_start), circuit, {0: 11.0}, "same start",
        )
        assert "magic-pipeline" in {v["code"] for v in report["violations"]}

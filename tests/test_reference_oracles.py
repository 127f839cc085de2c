"""The compiler's hot loops against slow, obviously-correct references.

Routing, reachability, redundant-move detection and the validator's
interval checks run on flat arrays, caches and single-pass sweeps.  Each
test here rebuilds the same answer the naive way — a BFS or Dijkstra over
``(row, col)`` tuples, a pairwise interval scan, a replay of qubit
positions — on seeded random inputs and compiled schedules, and demands
the fast path agree.
"""

import heapq
import random
from collections import deque
from dataclasses import replace

import pytest

from repro.arch.grid import CellRole, Grid
from repro.compiler import CompilerConfig, FaultTolerantCompiler
from repro.routing.dijkstra import (
    NoPathError,
    RoutingRequest,
    bus_cells_adjacent_to,
    find_path,
    find_path_to_any,
    find_paths_to_all,
    reachable_free_cells,
)
from repro.scheduling.events import Schedule, ScheduledOp
from repro.scheduling.redundant_moves import (
    eliminate_redundant_moves,
    find_redundant_pairs,
)
from repro.verify.validator import EPS, ScheduleValidator
from repro.workloads import ising_2d

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

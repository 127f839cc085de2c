"""Weighted Dijkstra pathfinding with the paper's penalty cost (Eq. 1).

The cost of a candidate path is ``C(a, b) = d(a, b) * p`` where ``d`` is the
path length and ``p`` the number of data-occupied cells it crosses plus one
(an unobstructed path has penalty factor 1; every crossed data qubit
multiplies the cost).  Minimising this cost prefers slightly longer paths
through free bus cells over short paths that would disturb data qubits —
exactly the behaviour of the paper's Fig. 5.

Implementation: Dijkstra over (cell, crossings-so-far) states with a binary
heap, keyed by the product cost; since both length and crossings only grow
along a path the product is monotone and the search remains optimal.

The search runs on the grid's flat arrays — occupancy, routability and the
neighbor-index table are read directly, heap entries carry flat cell
indices (row-major, so index order equals ``(row, col)`` order and
tie-breaking is unchanged), and results are cached per grid keyed on the
occupancy epoch: repeated queries against an unchanged grid are dict hits.
``find_path_to_any`` is a *single* multi-goal search that terminates at the
cheapest member of the goal set rather than one full Dijkstra per goal.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..arch.grid import CellRole, Grid, Position
from ..perf.profiler import profiled
from .path import Path

#: path-cache entries per grid before the cache is dropped and restarted.
_CACHE_LIMIT = 8192


@dataclass(frozen=True)
class RoutingRequest:
    """One pathfinding query.

    Attributes:
        source: start cell (occupant, port, or free cell).
        destination: goal cell.
        avoid: cells that may not be entered at all (e.g. time-locked bus).
        allow_occupied: when False, occupied cells are forbidden rather than
            penalised (used for magic-state routing, which cannot cross
            data qubits).
        penalty_weight: multiplicative weight of each occupied crossing.
    """

    source: Position
    destination: Position
    avoid: frozenset = frozenset()
    allow_occupied: bool = True
    penalty_weight: int = 1


class NoPathError(RuntimeError):
    """Raised when the grid admits no route for a request."""


def _cache_for(grid: Grid) -> Dict:
    """The route-cache bucket for the grid's current occupancy epoch.

    Epochs uniquely identify grid states (rollback restores the entry
    epoch; forward mutations always allocate fresh ids), so buckets from
    other epochs stay valid for *their* states — queries made before a
    scratch block hit again after it rolls back.
    """
    slots = grid._route_cache
    epoch = grid._epoch
    cache = slots.get(epoch)
    if cache is None:
        if len(slots) >= 32:
            slots.clear()
        cache = {}
        slots[epoch] = cache
    elif len(cache) >= _CACHE_LIMIT:
        cache.clear()
    return cache


@profiled("route.path")
def find_path(grid: Grid, request: RoutingRequest) -> Path:
    """Minimum-cost path under C = d * p, or raise :class:`NoPathError`.

    The source and destination themselves never contribute to the penalty:
    the source holds the moving object and the destination is where it is
    headed, so only *interior* occupied cells count (Fig. 5's green cells).
    """
    src, dst = request.source, request.destination
    if src == dst:
        return Path((src,), cost=0.0, occupied_crossings=0)
    if src not in grid or dst not in grid:
        raise NoPathError(f"route endpoints {src}->{dst} outside grid")

    cache = _cache_for(grid)
    key = (src, dst, request.avoid, request.allow_occupied, request.penalty_weight)
    hit = cache.get(key)
    if hit is not None:
        if hit is _NO_PATH:
            raise NoPathError(f"no route {src} -> {dst}")
        return hit

    try:
        result = _search(grid, request)
    except NoPathError:
        cache[key] = _NO_PATH
        raise
    cache[key] = result
    return result


#: cache sentinel for queries that ended in NoPathError.
_NO_PATH = object()


def _search(grid: Grid, request: RoutingRequest) -> Path:
    src, dst = request.source, request.destination
    cols = grid.cols
    src_i = src[0] * cols + src[1]
    dst_i = dst[0] * cols + dst[1]
    occ = grid._occ
    routable = grid._routable_b
    nbr_idx = grid._nbr_idx
    positions = grid._positions
    avoid = request.avoid
    allow_occupied = request.allow_occupied
    weight = request.penalty_weight

    if dst in avoid:
        raise NoPathError(f"no route {src} -> {dst}")
    # Costs are exact integers (length * (1 + crossings)); keeping them as
    # ints avoids a float conversion per relaxation and compares identically.
    avoid_i = frozenset(p[0] * cols + p[1] for p in avoid if p in grid) if avoid else ()

    inf = float("inf")
    n = grid.rows * cols
    best_cost = [inf] * n
    best_cost[src_i] = 0
    parent = [-1] * n
    heap: List[Tuple[int, int, int, int]] = [(0, 0, 0, src_i)]
    push = heapq.heappush
    pop = heapq.heappop

    while heap:
        cost, length, crossings, pos = pop(heap)
        if pos == dst_i:
            return _rebuild(positions, parent, src_i, dst_i, float(cost), crossings)
        if cost > best_cost[pos]:
            continue
        new_length = length + 1
        for nxt in nbr_idx[pos]:
            if nxt != dst_i:
                if not routable[nxt] or (avoid_i and nxt in avoid_i):
                    continue
                if occ[nxt] is not None:
                    if not allow_occupied:
                        continue
                    crossed = crossings + weight
                else:
                    crossed = crossings
            else:
                crossed = crossings
            new_cost = new_length * (1 + crossed)
            if new_cost < best_cost[nxt]:
                best_cost[nxt] = new_cost
                parent[nxt] = pos
                push(heap, (new_cost, new_length, crossed, nxt))
    raise NoPathError(f"no route {src} -> {dst}")


def _rebuild(
    positions: Tuple[Position, ...],
    parent: List[int],
    src_i: int,
    dst_i: int,
    cost: float,
    crossings: int,
) -> Path:
    cells = [positions[dst_i]]
    cursor = dst_i
    while cursor != src_i:
        cursor = parent[cursor]
        cells.append(positions[cursor])
    cells.reverse()
    return Path(tuple(cells), cost=cost, occupied_crossings=crossings)


def _rebuild_goal_path(
    positions: Tuple[Position, ...],
    parent: List[int],
    src_i: int,
    goal: int,
    ffrom: int,
    fcost: int,
    fcrossings: int,
) -> Path:
    """Rebuild a terminal goal arrival: goal <- ffrom <- transit tree."""
    cells = [positions[goal], positions[ffrom]]
    cursor = ffrom
    while cursor != src_i:
        cursor = parent[cursor]
        cells.append(positions[cursor])
    cells.reverse()
    return Path(tuple(cells), cost=float(fcost), occupied_crossings=fcrossings)


@profiled("route.to_any")
def find_path_to_any(
    grid: Grid,
    source: Position,
    goals: Set[Position],
    avoid: Optional[Set[Position]] = None,
    allow_occupied: bool = False,
    penalty_weight: int = 1,
) -> Path:
    """Cheapest path from ``source`` to the best member of ``goals``.

    Used for magic-state delivery, where any bus cell adjacent to the
    consuming data qubit is an acceptable drop-off point.

    One Dijkstra covers the whole goal set: every goal is a *terminal*
    state entered with destination semantics (occupied goals enterable,
    never penalised), while goal cells crossed en route to a different
    goal keep the normal transit rules — exactly the union of the
    per-goal searches, so the selected goal, its path and the tie-break
    (lowest cost, then row-major smallest goal) match a goal-by-goal sweep.
    """
    if not goals:
        raise NoPathError("empty goal set")
    frozen_avoid = frozenset(avoid or ())
    if source in grid and source in goals:
        return Path((source,), cost=0.0, occupied_crossings=0)
    if source not in grid:
        raise NoPathError(f"no route from {source} to any of {sorted(goals)}")

    cols = grid.cols
    src_i = source[0] * cols + source[1]
    occ = grid._occ
    routable = grid._routable_b
    nbr_idx = grid._nbr_idx
    positions = grid._positions
    goal_i = {
        g[0] * cols + g[1]
        for g in goals
        if g in grid and g not in frozen_avoid
    }
    if not goal_i:
        raise NoPathError(f"no route from {source} to any of {sorted(goals)}")
    avoid_i = frozenset(
        p[0] * cols + p[1] for p in frozen_avoid if p in grid
    )

    inf = float("inf")
    n = grid.rows * cols
    best_cost = [inf] * n
    best_cost[src_i] = 0
    parent = [-1] * n
    # Per-goal best terminal arrival: goal index -> (cost, crossings, from).
    final: Dict[int, Tuple[int, int, int]] = {}
    # Heap entries: (cost, length, crossings, cell, terminal_flag).
    heap: List[Tuple[int, int, int, int, int]] = [(0, 0, 0, src_i, 0)]
    push = heapq.heappush
    pop = heapq.heappop
    best_goal_cost = inf
    winners: List[int] = []

    while heap:
        cost, length, crossings, pos, terminal = pop(heap)
        if cost > best_goal_cost:
            break
        if terminal:
            winners.append(pos)
            best_goal_cost = cost
            continue
        if cost > best_cost[pos]:
            continue
        new_length = length + 1
        for nxt in nbr_idx[pos]:
            if nxt in goal_i:
                # Terminal arrival: destination semantics (no penalty,
                # occupancy irrelevant); recorded on first strict improvement
                # to mirror a dedicated search's parent bookkeeping.
                fcost = new_length * (1 + crossings)
                prev = final.get(nxt)
                if prev is None or fcost < prev[0]:
                    final[nxt] = (fcost, crossings, pos)
                    push(heap, (fcost, new_length, crossings, nxt, 1))
            if (avoid_i and nxt in avoid_i) or not routable[nxt]:
                continue
            if occ[nxt] is not None:
                if not allow_occupied:
                    continue
                crossed = crossings + penalty_weight
            else:
                crossed = crossings
            new_cost = new_length * (1 + crossed)
            if new_cost < best_cost[nxt]:
                best_cost[nxt] = new_cost
                parent[nxt] = pos
                push(heap, (new_cost, new_length, crossed, nxt, 0))

    if not winners:
        raise NoPathError(f"no route from {source} to any of {sorted(goals)}")
    goal = min(winners)
    fcost, fcrossings, ffrom = final[goal]
    return _rebuild_goal_path(
        positions, parent, src_i, goal, ffrom, fcost, fcrossings
    )


@profiled("route.to_all")
def find_paths_to_all(
    grid: Grid,
    source: Position,
    goals: Set[Position],
    avoid: Optional[Set[Position]] = None,
    allow_occupied: bool = False,
    penalty_weight: int = 1,
) -> Dict[Position, Path]:
    """Cheapest path from ``source`` to *every* reachable member of ``goals``.

    One single-source Dijkstra replaces a dedicated search per goal: goals
    are terminal states with destination semantics exactly as in
    :func:`find_path_to_any`, but the sweep continues until every goal's
    arrival is finalised (or the component is exhausted).  Each returned
    path is identical — cells, cost, tie-breaks — to what
    :func:`find_path` would produce for that goal alone; unreachable goals
    are simply absent from the result.
    """
    result: Dict[Position, Path] = {}
    if not goals:
        return result
    frozen_avoid = frozenset(avoid or ())
    if source not in grid:
        return result
    if source in goals:
        result[source] = Path((source,), cost=0.0, occupied_crossings=0)

    cols = grid.cols
    src_i = source[0] * cols + source[1]
    occ = grid._occ
    routable = grid._routable_b
    nbr_idx = grid._nbr_idx
    positions = grid._positions
    goal_i = {
        g[0] * cols + g[1]
        for g in goals
        if g in grid and g not in frozen_avoid and g != source
    }
    if not goal_i:
        return result
    avoid_i = frozenset(
        p[0] * cols + p[1] for p in frozen_avoid if p in grid
    )

    inf = float("inf")
    n = grid.rows * cols
    best_cost = [inf] * n
    best_cost[src_i] = 0
    parent = [-1] * n
    final: Dict[int, Tuple[int, int, int]] = {}
    # Once a goal's terminal entry pops its arrival is final (costs only
    # grow); when every goal has popped, nothing can improve and we stop.
    unsettled = set(goal_i)

    if not allow_occupied:
        # Occupied cells are forbidden, so crossings never accrue and the
        # cost is exactly the length: the Dijkstra degenerates to a BFS.
        # Expanding each distance level in ascending flat-index order
        # reproduces the heap's pop order (equal-cost entries sort by
        # (length, crossings, pos)), so parents — first strict improver
        # wins — and per-goal arrivals are bit-identical to the heap sweep.
        # A goal's first terminal push is its final arrival (later pushes
        # are at equal or greater length), so goals settle at push time.
        level = [src_i]
        length = 0
        while level and unsettled:
            level.sort()
            next_level: List[int] = []
            new_length = length + 1
            for pos in level:
                for nxt in nbr_idx[pos]:
                    if nxt in goal_i and nxt not in final:
                        final[nxt] = (new_length, 0, pos)
                        unsettled.discard(nxt)
                    if (avoid_i and nxt in avoid_i) or not routable[nxt]:
                        continue
                    if occ[nxt] is not None:
                        continue
                    if new_length < best_cost[nxt]:
                        best_cost[nxt] = new_length
                        parent[nxt] = pos
                        next_level.append(nxt)
            level = next_level
            length = new_length
        for goal, (fcost, fcrossings, ffrom) in final.items():
            result[positions[goal]] = _rebuild_goal_path(
                positions, parent, src_i, goal, ffrom, fcost, fcrossings
            )
        return result

    heap: List[Tuple[int, int, int, int, int]] = [(0, 0, 0, src_i, 0)]
    push = heapq.heappush
    pop = heapq.heappop

    while heap and unsettled:
        cost, length, crossings, pos, terminal = pop(heap)
        if terminal:
            unsettled.discard(pos)
            continue
        if cost > best_cost[pos]:
            continue
        new_length = length + 1
        for nxt in nbr_idx[pos]:
            if nxt in goal_i:
                fcost = new_length * (1 + crossings)
                prev = final.get(nxt)
                if prev is None or fcost < prev[0]:
                    final[nxt] = (fcost, crossings, pos)
                    push(heap, (fcost, new_length, crossings, nxt, 1))
            if (avoid_i and nxt in avoid_i) or not routable[nxt]:
                continue
            if occ[nxt] is not None:
                if not allow_occupied:
                    continue
                crossed = crossings + penalty_weight
            else:
                crossed = crossings
            new_cost = new_length * (1 + crossed)
            if new_cost < best_cost[nxt]:
                best_cost[nxt] = new_cost
                parent[nxt] = pos
                push(heap, (new_cost, new_length, crossed, nxt, 0))

    for goal, (fcost, fcrossings, ffrom) in final.items():
        result[positions[goal]] = _rebuild_goal_path(
            positions, parent, src_i, goal, ffrom, fcost, fcrossings
        )
    return result


@profiled("route.reachable")
def reachable_free_cells(
    grid: Grid,
    source: Position,
    max_distance: Optional[int] = None,
    predicate: Optional[Callable[[Position], bool]] = None,
    limit: Optional[int] = None,
) -> List[Tuple[int, Position]]:
    """BFS over unoccupied routable cells, returning (distance, cell) pairs.

    The space-search heuristic uses this to find the nearest cells that can
    absorb a displaced qubit.  Occupied routable cells are traversed (their
    occupants could be displaced too) but not reported.  The frontier never
    expands past ``max_distance``.

    ``limit`` stops the sweep early once the result is settled for callers
    that only consume the nearest ``limit`` cells: the BFS finishes the
    distance ring of the ``limit``-th find (ties included, so the sorted
    prefix matches an unbounded sweep exactly) and then halts instead of
    flooding the whole grid.
    """
    cols = grid.cols
    src_i = grid._index(source)
    occ = grid._occ
    routable = grid._routable_b
    nbr_idx = grid._nbr_idx
    positions = grid._positions

    seen = bytearray(grid.rows * cols)
    seen[src_i] = 1
    queue = deque([(0, src_i)])
    found: List[Tuple[int, Position]] = []
    bound = max_distance
    while queue:
        dist, pos = queue.popleft()
        if bound is not None and dist > bound:
            break  # BFS pops in distance order; nothing closer remains
        if pos != src_i and occ[pos] is None and routable[pos]:
            if predicate is None or predicate(positions[pos]):
                found.append((dist, positions[pos]))
                if limit is not None and len(found) == limit:
                    # Finish this distance ring so equal-distance ties are
                    # all collected, then stop.
                    bound = dist if bound is None else min(bound, dist)
        child_dist = dist + 1
        if bound is not None and child_dist > bound:
            continue
        for nxt in nbr_idx[pos]:
            if seen[nxt] or not routable[nxt]:
                continue
            seen[nxt] = 1
            queue.append((child_dist, nxt))
    found.sort()
    return found


def bus_cells_adjacent_to(grid: Grid, pos: Position) -> Set[Position]:
    """Free bus cells neighbouring ``pos`` — magic-state drop-off points."""
    i = grid._index(pos)
    occ = grid._occ
    roles = grid._role
    return {
        p
        for p, j in zip(grid._nbr_pos[i], grid._nbr_idx[i])
        if roles[j] in (CellRole.BUS, CellRole.PORT) and occ[j] is None
    }

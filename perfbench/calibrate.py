"""Host-speed calibration: a fixed CPU kernel timed between operations.

A shared host's speed drifts by 10-20% over minutes, through CPU steal
and through neighbours contending for caches and cores.  The benchmark's
pass times are CPU seconds (which steal does not inflate) scaled by how
fast this kernel ran in the same pass, so two runs on one host compare
even when its load changed between them.

The kernel is the benchmark's own code (a Dijkstra sweep over a fixed
weighted grid, the shape of the router's hot loop), so no change to the
program under test can change it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Sequence

#: kernel CPU seconds on the reference host; normalised times are in
#: seconds at that speed.
REFERENCE_S = 0.001

_SIDE = 32


def _grid():
    adjacency = []
    for node in range(_SIDE * _SIDE):
        row, col = divmod(node, _SIDE)
        edges = []
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            r, c = row + dr, col + dc
            if 0 <= r < _SIDE and 0 <= c < _SIDE:
                edges.append((r * _SIDE + c, (node * 7 + r * 3 + c) % 5 + 1))
        adjacency.append(tuple(edges))
    return tuple(adjacency)


_ADJACENCY = _grid()


def _kernel() -> int:
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, weight in _ADJACENCY[node]:
            nd = d + weight
            if nd < dist.get(nxt, 1 << 30):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return len(dist)


def sample() -> float:
    """CPU seconds of one kernel run on the calling thread."""
    started = time.thread_time()
    _kernel()
    return time.thread_time() - started


def scale(samples: Sequence[float]) -> float:
    """Factor turning this pass's CPU seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)


def samples(count: int) -> List[float]:
    return [sample() for _ in range(count)]

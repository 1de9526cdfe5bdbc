"""Unweighted shortest paths: counting BFS, distance rows, diameter.

bfs() is the pure-Python reference: distances, exact geodesic counts
(Python integers, so no overflow), the predecessor DAG, and the discovery
order; path extraction and the brute-force oracles consume it. Every
hop-count query goes through one vectorized kernel instead, distance_rows():
a bit-parallel BFS (Then et al., "The More the Merrier", VLDB 2014) that
runs up to BLOCK searches at once, one bit each per vertex. Congestion
reads its BFS levels from the same kernel and counts geodesics itself.

Unreachable vertices carry dist None in ShortestPathData and -1 in the
numpy arrays; no arithmetic is ever done on either sentinel.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

BLOCK = 64  # searches per distance_rows call: the bits of one uint64 word


@dataclass
class ShortestPathData:
    """Single-source BFS output.

    sigma[v] counts distinct geodesics from source to v; preds[v] lists
    the neighbors of v one hop closer to the source. The recurrence
    sigma[v] = sum(sigma[u] for u in preds[v]) holds at every reachable
    vertex other than the source.
    """

    source: int
    dist: list[int | None]
    sigma: list[int]
    preds: list[list[int]]
    order: list[int] = field(default_factory=list)


def bfs(g: Graph, source: int) -> ShortestPathData:
    """Counting BFS from one source, deterministic by sorted adjacency."""
    n = g.n
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range for n={n}")
    dist: list[int | None] = [None] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        order.append(v)
        dv = dist[v]
        for w in g.neighbors(v):
            if dist[w] is None:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return ShortestPathData(source, dist, sigma, preds, order)


def distance_rows(g: Graph, seed_sets: Sequence[Iterable[int]]) -> np.ndarray:
    """Hop counts from each of up to BLOCK seed sets, as a (k, n) int32 array.

    Row i holds every vertex's distance to the nearest vertex of
    seed_sets[i]; -1 marks vertices no seed reaches.
    """
    n = g.n
    k = len(seed_sets)
    if not 1 <= k <= BLOCK:
        raise ValueError(f"need 1 to {BLOCK} seed sets, got {k}")
    pad = g.padded_adjacency()
    # bit i of seen[v] is set once search i has reached v; the sentinel
    # row n stays 0, so padding slots contribute nothing to the OR
    seen = np.zeros(n + 1, dtype=np.uint64)
    for i, seeds in enumerate(seed_sets):
        for s in seeds:
            if not (0 <= s < n):
                raise ValueError(f"source {s} out of range for n={n}")
            seen[s] |= np.uint64(1 << i)
    # bit i of planes[b][v] is bit b of search i's distance to v, so each
    # level costs O(n log level) word operations, not O(n k)
    planes: list[np.ndarray] = []
    front = seen
    level = 0
    while True:
        front = np.bitwise_or.reduce(front[pad], axis=1) & ~seen
        if not front.any():
            break
        seen |= front
        level += 1
        if level >> len(planes):
            planes.append(np.zeros_like(seen))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= front
    out = np.zeros((k, n), dtype=np.int32)
    # shift and mask eight searches at a time: the (8, n) temporaries stay
    # cache-sized, where all k at once would raise peak memory
    for lo in range(0, k, 8):
        shifts = np.arange(lo, min(lo + 8, k), dtype=np.uint64)[:, None]
        rows = out[lo : lo + 8]
        for b, plane in enumerate(planes):
            rows |= ((plane[:n] >> shifts) & 1).astype(np.int32) << b
        rows[((seen[:n] >> shifts) & 1) == 0] = -1
    return out


def single_source_distances(g: Graph, source: int) -> np.ndarray:
    """Hop counts from source as an int32 array; -1 marks unreachable."""
    return distance_rows(g, [(source,)])[0]


def source_block(g: Graph, lo: int) -> np.ndarray:
    """Distance rows of the sources lo, lo+1, ..., up to BLOCK of them."""
    return distance_rows(g, [(s,) for s in range(lo, min(lo + BLOCK, g.n))])


def distance_matrix(g: Graph, cap: int = 5000) -> np.ndarray:
    """All-pairs hop counts, int32, -1 for disconnected pairs.

    Materializing is quadratic in memory, so it is refused above cap;
    larger analyses stream per-source results instead.
    """
    if g.n > cap:
        raise ValueError(f"distance matrix for n={g.n} exceeds cap={cap}")
    out = np.empty((g.n, g.n), dtype=np.int32)
    for lo in range(0, g.n, BLOCK):
        out[lo : lo + BLOCK] = source_block(g, lo)
    return out


def diameter(g: Graph) -> int:
    """Largest hop distance over all pairs, streamed BLOCK rows at a time.
    Raises on disconnected input."""
    best = 0
    for lo in range(0, g.n, BLOCK):
        rows = source_block(g, lo)
        if rows.min() < 0:
            raise ValueError("diameter is undefined on a disconnected graph")
        best = max(best, int(rows.max()))
    return best


def extract_one_geodesic(spd: ShortestPathData, target: int) -> list[int]:
    """One canonical geodesic source -> target.

    Walks the predecessor DAG from the target, always taking the
    smallest-index predecessor, so the same path comes back every time.
    """
    if not (0 <= target < len(spd.dist)):
        raise ValueError(f"target {target} out of range")
    if spd.dist[target] is None:
        raise ValueError(f"target {target} is unreachable from source {spd.source}")
    path = [target]
    v = target
    while v != spd.source:
        v = min(spd.preds[v])
        path.append(v)
    path.reverse()
    return path

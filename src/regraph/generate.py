"""Seeded graph generators.

random_regular draws uniform d-regular graphs with the half-edge pairing
(configuration) model: lay out n*d labeled half-edges, draw a uniform
perfect matching, and reject the whole matching if it produces a
self-loop or a repeated edge (and, optionally, a disconnected graph).
Conditioned on acceptance the edge set is exactly uniform over simple
d-regular graphs.

The uniform matching is drawn by sorting the half-edges on a splitmix64
keystream. This is the frozen RNG of the repo: pure 64-bit integer
arithmetic, so the same (n, d, seed) yields the same edge set on every
platform and interpreter. Do not change it silently; seeds are part of
experiment provenance.

The deterministic families (k-regular trees, cycles, paths, complete
graphs) exist as closed-form oracles for the analysis modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .paths import single_source_distances
from .seeding import _GOLDEN, _MIX1, _MIX2, MASK64, splitmix64


class RetriesExhaustedError(RuntimeError):
    """The pairing model never produced an acceptable graph."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one random regular graph draw."""

    n: int
    d: int
    seed: int
    max_retries: int = 10_000
    require_connected: bool = True

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("degree must be at least 1")
        if self.n <= self.d:
            raise ValueError(f"need n > d, got n={self.n}, d={self.d}")
        if (self.n * self.d) % 2 != 0:
            raise ValueError(
                f"n*d = {self.n * self.d} is odd; the pairing model needs an even number of half-edges"
            )
        if self.max_retries < 1:
            raise ValueError("max_retries must be positive")


def _keystream(s0: int, start: int, count: int) -> np.ndarray:
    """count consecutive splitmix64 outputs, vectorized (uint64 wraps mod 2^64)."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = np.uint64(s0) + idx * np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def random_regular(spec: GenSpec) -> Graph:
    """Draw a random d-regular graph; deterministic in (n, d, seed).

    Raises RetriesExhaustedError if max_retries matchings all fail the
    simplicity (or connectivity) check. Failing loudly beats silently
    switching sampler and biasing the distribution.
    """
    n, d = spec.n, spec.d
    half = n * d
    s0 = splitmix64(spec.seed & MASK64)
    for attempt in range(spec.max_retries):
        keys = _keystream(s0, attempt * half, half)
        perm = np.argsort(keys)  # uniform permutation of half-edges
        sorted_keys = keys[perm]
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            # a key collision (~2^-41 per attempt) would make the fast sort
            # order ambiguous; re-sort stably so the outcome stays frozen
            perm = np.argsort(keys, kind="stable")
        u = perm[0::2] // d  # half-edge index -> owning vertex
        v = perm[1::2] // d
        if (u == v).any():
            continue
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        code = lo * np.int64(n) + hi
        uniq = np.unique(code)
        if uniq.size != half // 2:
            continue
        g = Graph(n, [(int(c) // n, int(c) % n) for c in uniq])
        if spec.require_connected and not is_connected(g):
            continue
        return g
    what = "simple connected" if spec.require_connected else "simple"
    raise RetriesExhaustedError(
        f"no {what} {d}-regular graph on {n} vertices after {spec.max_retries} attempts (seed={spec.seed})"
    )


def regular_tree(k: int, depth: int) -> Graph:
    """Complete k-regular tree: root 0 with k children, internal vertices
    k-1 children each, leaves at the given depth. Vertices are numbered in
    BFS order, so the root is always vertex 0."""
    if k < 2:
        raise ValueError("branching degree must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    edges = []
    next_id = 1
    frontier = [(0, k)]  # (vertex, children still to attach)
    for _ in range(depth):
        grown = []
        for parent, fanout in frontier:
            for _ in range(fanout):
                child = next_id
                next_id += 1
                edges.append((parent, child))
                grown.append((child, k - 1))
        frontier = grown
    return Graph(next_id, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches every vertex (true for n <= 1)."""
    return g.n <= 1 or bool((single_source_distances(g, 0) >= 0).all())

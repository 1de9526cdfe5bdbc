"""Immutable simple undirected graphs with edge-list text I/O.

Vertices are dense integers 0..n-1. Neighbor lists are stored sorted so
that every traversal (BFS order, predecessor tie-breaks, path extraction)
is deterministic; vectorized traversals read the padded neighbor table.
Instances never mutate after construction and are safe to share across
workers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class Graph:
    """Simple undirected graph: no self-loops, no multi-edges."""

    __slots__ = ("n", "m", "_adj", "_edges", "_pad")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(seen)
        self._edges = tuple(sorted(seen))
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._pad = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted."""
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for an edgeless graph."""
        if self.n == 0:
            return 0
        return max(len(a) for a in self._adj)

    def regular_degree(self) -> int | None:
        """The common degree if the graph is regular, else None."""
        if self.n == 0:
            return None
        d = len(self._adj[0])
        if all(len(a) == d for a in self._adj):
            return d
        return None

    def has_edge(self, u: int, v: int) -> bool:
        # neighbor lists are short in practice; linear scan is fine
        return 0 <= u < self.n and v in self._adj[u]

    def padded_adjacency(self) -> np.ndarray:
        """(n+1, max_degree) int32 table, built once: row v holds v's sorted
        neighbors padded with the sentinel n, and row n is all sentinel."""
        if self._pad is None:
            deg = np.fromiter(map(len, self._adj), dtype=np.int64, count=self.n)
            pad = np.full((self.n + 1, int(deg.max(initial=0))), self.n, dtype=np.int32)
            pad[: self.n][np.arange(pad.shape[1]) < deg[:, None]] = np.fromiter(
                (w for a in self._adj for w in a), dtype=np.int32, count=2 * self.m
            )
            self._pad = pad
        return self._pad

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def write_edge_list(g: Graph) -> str:
    """Serialize as: header line "n m", then one "u v" line per edge, u < v."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format written by write_edge_list.

    Round-trips: read_edge_list(write_edge_list(g)) == g.
    """
    lines = text.splitlines()
    # tolerate trailing blank lines only
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty edge-list text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"malformed header line: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but body has {len(lines) - 1} lines")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line: {line!r}") from None
        if u >= v:
            raise ValueError(f"edge line {line!r} violates u < v")
        edges.append((u, v))
    return Graph(n, edges)

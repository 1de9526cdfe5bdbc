"""Vertex congestion under equal-split geodesic routing.

Every connected vertex pair exchanges one unit of flow along its shortest
paths; when several geodesics tie, the unit splits equally among all of
them. T(v) is the total flow over paths that contain v, endpoints
included, so each vertex picks up exactly one unit per reachable partner
on top of its through traffic. Endpoint inclusion is what makes the lower
bound n-1 <= max T(v) hold on connected graphs.

vertex_congestion is the fast path: a per-source counting BFS plus
reverse dependency accumulation (Brandes' scheme extended with endpoint
terms), vectorized level by level as row gathers from the padded neighbor
table. Geodesic counts live in float64 there; once a source's counts
reach 2^52 the accumulation is redone with exact Python integers, whose
ratios still convert to correctly rounded floats.
brute_force_congestion is the independent oracle: it enumerates every
geodesic explicitly and accumulates exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .graph import Graph
from .paths import bfs

_SIGMA_GUARD = float(2**52)


@dataclass
class CongestionReport:
    """Per-vertex flows T(v) and the maximum vertex flow.

    total_demand counts routed unordered pairs; unrouted_pairs the
    disconnected ones (they carry no flow). argmax is the smallest vertex
    index attaining max_flow. exact_flows is populated by the rational
    oracle only.
    """

    flows: list[float]
    max_flow: float
    argmax: int | None
    total_demand: int
    unrouted_pairs: int
    exact_flows: list[Fraction] | None = None


class _SigmaOverflow(Exception):
    pass


def _source_flow_fast(g: Graph, source: int) -> tuple[np.ndarray, int]:
    """(dependency vector, reachable count) for one source, vectorized.

    Raises _SigmaOverflow when geodesic counts leave the exactly
    representable float64 range.
    """
    n = g.n
    pad = g.padded_adjacency()
    width = pad.shape[1]
    # the padding sentinel n gets dist -2 and sigma 0: it never matches a
    # level test, so padded slots drop out of every selection below
    dist = np.full(n + 1, -1, dtype=np.int32)
    dist[n] = -2
    sigma = np.zeros(n + 1, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    levels = [np.array([source], dtype=np.int32)]
    level = 0
    while True:
        frontier = levels[-1]
        targets = pad[frontier].ravel()
        fresh = targets[dist[targets] == -1]
        if fresh.size == 0:
            break
        level += 1
        nxt = np.unique(fresh)
        dist[nxt] = level
        forward = dist[targets] == level
        origins = np.repeat(frontier, width)
        np.add.at(sigma, targets[forward], sigma[origins[forward]])
        levels.append(nxt)
    if sigma.max() >= _SIGMA_GUARD:
        raise _SigmaOverflow
    delta = np.zeros(n + 1, dtype=np.float64)
    for lvl in range(len(levels) - 1, 0, -1):
        members = levels[lvl]
        targets = pad[members].ravel()
        back = dist[targets] == lvl - 1
        w = np.repeat(members, width)[back]
        v = targets[back]
        np.add.at(delta, v, sigma[v] / sigma[w] * (1.0 + delta[w]))
    delta[source] = 0.0
    reach = sum(len(lv) for lv in levels) - 1
    return delta[:n], reach


def _source_flow_exact(g: Graph, source: int) -> tuple[list[float], int]:
    """Reference accumulation with exact integer geodesic counts."""
    spd = bfs(g, source)
    n = g.n
    delta = [0.0] * n
    for w in reversed(spd.order):
        coeff = 1.0 + delta[w]
        for v in spd.preds[w]:
            # exact int / exact int: correctly rounded even past 2^52
            delta[v] += spd.sigma[v] / spd.sigma[w] * coeff
    delta[source] = 0.0
    return delta, len(spd.order) - 1


def vertex_congestion(g: Graph) -> CongestionReport:
    """Per-vertex flows with equal splitting over all geodesics.

    Disconnected pairs carry zero demand and are tallied in
    unrouted_pairs rather than failing.
    """
    n = g.n
    if n == 0:
        return CongestionReport([], 0.0, None, 0, 0)
    acc = np.zeros(n, dtype=np.float64)
    reach = np.zeros(n, dtype=np.int64)
    for s in range(n):
        try:
            delta, r = _source_flow_fast(g, s)
            acc += delta
        except _SigmaOverflow:
            delta_list, r = _source_flow_exact(g, s)
            acc += np.asarray(delta_list)
        reach[s] = r
    # interior contributions were counted once per ordered pair
    flows_arr = acc / 2.0 + reach
    total_demand = int(reach.sum()) // 2
    unrouted = n * (n - 1) // 2 - total_demand
    argmax = int(np.argmax(flows_arr))
    return CongestionReport(
        flows=[float(x) for x in flows_arr],
        max_flow=float(flows_arr[argmax]),
        argmax=argmax,
        total_demand=total_demand,
        unrouted_pairs=unrouted,
    )


def _geodesic_vertex_counts(spd, target) -> tuple[dict[int, int], int]:
    """How many source->target geodesics pass through each vertex."""
    counts: dict[int, int] = {}
    total = 0
    stack: list[tuple[int, list[int]]] = [(target, [target])]
    while stack:
        v, trail = stack.pop()
        if v == spd.source:
            total += 1
            for x in trail:
                counts[x] = counts.get(x, 0) + 1
            continue
        for u in spd.preds[v]:
            stack.append((u, trail + [u]))
    return counts, total


def brute_force_congestion(g: Graph, guard: int = 200) -> CongestionReport:
    """Oracle: enumerate every geodesic of every pair, exact rationals.

    Only meant for verification; refuses graphs above the size guard.
    """
    n = g.n
    if n > guard:
        raise ValueError(f"brute-force oracle capped at n={guard}, got n={n}")
    if n == 0:
        return CongestionReport([], 0.0, None, 0, 0, exact_flows=[])
    flows = [Fraction(0)] * n
    total_demand = 0
    for s in range(n):
        spd = bfs(g, s)
        for t in range(s + 1, n):
            if spd.dist[t] is None:
                continue
            total_demand += 1
            counts, total = _geodesic_vertex_counts(spd, t)
            assert total == spd.sigma[t], "geodesic enumeration disagrees with sigma"
            for v, c in counts.items():
                flows[v] += Fraction(c, total)
    max_frac = max(flows)
    argmax = flows.index(max_frac)
    unrouted = n * (n - 1) // 2 - total_demand
    return CongestionReport(
        flows=[float(f) for f in flows],
        max_flow=float(max_frac),
        argmax=argmax,
        total_demand=total_demand,
        unrouted_pairs=unrouted,
        exact_flows=flows,
    )


def tree_max_congestion(k: int, n: int) -> float:
    """Closed-form maximum flow for the complete k-regular tree on n vertices.

    Equals (k-1)/(2k) * (n-1)^2 + (n-1); the maximum sits at the root.
    """
    if k < 2:
        raise ValueError("branching degree must be at least 2")
    size, shell = 1, k
    while size < n:
        size += shell
        shell *= k - 1
    if size != n or n == 1:
        raise ValueError(f"n={n} is not a complete {k}-regular tree size")
    return ((k - 1) * (n - 1) ** 2) / (2 * k) + (n - 1)


def degree_diameter_bound(max_degree: int, diam: int) -> int:
    """Degree/diameter upper bound on any single vertex flow:
    Delta^2 * (Delta-1)^(D-2) * D^2."""
    if max_degree < 2:
        raise ValueError("bound needs max degree >= 2")
    if diam < 2:
        raise ValueError("bound needs diameter >= 2")
    return max_degree**2 * (max_degree - 1) ** (diam - 2) * diam**2


def congestion_scaling_bound(n: int, d: int, c_offset: float = 0.0) -> float:
    """Leading scaling term d^c * n * log_{d-1}(n)^3 that experiment sweeps
    compare against. The log base d-1 follows the diameter bound the term
    is derived from; c_offset is the free constant."""
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 3:
        raise ValueError("need d >= 3")
    return d**c_offset * n * math.log(n, d - 1) ** 3


def congestion_report_csv(report: CongestionReport) -> str:
    """CSV rows "vertex,flow" plus key=value comment lines of the summary."""
    lines = ["vertex,flow"]
    lines.extend(f"{v},{flow!r}" for v, flow in enumerate(report.flows))
    lines.append(f"# max_flow={report.max_flow!r}")
    lines.append(f"# argmax={report.argmax}")
    lines.append(f"# total_demand={report.total_demand}")
    lines.append(f"# unrouted_pairs={report.unrouted_pairs}")
    return "\n".join(lines) + "\n"

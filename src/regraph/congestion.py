"""Vertex congestion under equal-split geodesic routing.

Every connected vertex pair exchanges one unit of flow along its shortest
paths; when several geodesics tie, the unit splits equally among all of
them. T(v) is the total flow over paths that contain v, endpoints
included, so each vertex picks up exactly one unit per reachable partner
on top of its through traffic. Endpoint inclusion is what makes the lower
bound n-1 <= max T(v) hold on connected graphs.

vertex_congestion is the fast path: Brandes' dependency accumulation,
extended with endpoint terms, run in pull form over a block of sources
at once. Distances come from the shared bit-parallel kernel
(paths.distance_rows); each BFS level of every source in the block is
then one gather from the padded neighbor table, forward for the geodesic
counts sigma and backward for the dependencies. sigma is kept in float64
with no guard: the backward pass only uses the ratios (1 + dep) / sigma,
which keep full relative precision long after sigma itself stops being
an exact integer. On a width-3 ladder with sigma up to 3^34 > 2^53 the
flows match exact rationals to a relative 1.6e-16.
brute_force_congestion is the independent oracle: it enumerates every
geodesic explicitly and accumulates exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .graph import Graph
from .paths import BLOCK, bfs, distance_rows

BLOCK_ENTRIES = 1 << 14  # sources x vertices per block: keeps the working set cache-sized


@dataclass
class CongestionReport:
    """Per-vertex flows T(v) and the maximum vertex flow.

    total_demand counts routed unordered pairs; unrouted_pairs the
    disconnected ones (they carry no flow). argmax is the smallest vertex
    index attaining max_flow. vertex_congestion's flows are float64 sums
    of ratios of float64 geodesic counts (measured: a relative 1.6e-16
    from the exact values on a graph with counts past 2^53); exact_flows
    is populated by the rational oracle only.
    """

    flows: list[float]
    max_flow: float
    argmax: int | None
    total_demand: int
    unrouted_pairs: int
    exact_flows: list[Fraction] | None = None


def vertex_congestion(g: Graph) -> CongestionReport:
    """Per-vertex flows with equal splitting over all geodesics.

    Disconnected pairs carry zero demand and are tallied in
    unrouted_pairs rather than failing.
    """
    n = g.n
    if n == 0:
        return CongestionReport([], 0.0, None, 0, 0)
    pad = g.padded_adjacency()
    stride = n + 1
    acc = np.zeros(stride, dtype=np.float64)
    reach = np.empty(n, dtype=np.int64)
    step = max(1, min(BLOCK, BLOCK_ENTRIES // n))
    for lo in range(0, n, step):
        dist = distance_rows(g, [(s,) for s in range(lo, min(lo + step, n))])
        k = len(dist)
        # one row of stride entries per source; the extra column is the
        # padding sentinel n, at level -2, so it joins no level and its
        # sigma and psi stay 0
        flat = np.hstack([dist, np.full((k, 1), -2, dtype=np.int32)]).ravel()
        nbrs = (pad + (np.arange(k, dtype=np.int32) * stride)[:, None, None]).reshape(
            k * stride, pad.shape[1]
        )
        levels = [np.flatnonzero(flat == lvl) for lvl in range(1, int(flat.max()) + 1)]
        # pull form: when level lvl is computed, only neighbors at lvl-1
        # (forward) or lvl+1 (backward) hold nonzero values, so the level
        # tests of a push-form pass are not needed
        sigma = (flat == 0).astype(np.float64)
        for at in levels:
            sigma[at] = sigma[nbrs[at]].sum(axis=1)
        # dep[v] = sigma[v] * (sum of psi[w] over v's successors w), with
        # psi[w] = (1 + dep[w]) / sigma[w]: only ratios sigma[v] / sigma[w]
        # reach the flows, and a rounded sigma past 2^53 is still within a
        # relative 2^-53 of the exact count
        psi = np.zeros_like(sigma)
        dep = np.zeros_like(sigma)
        for at in reversed(levels):
            dep[at] = sigma[at] * psi[nbrs[at]].sum(axis=1)
            psi[at] = (1.0 + dep[at]) / sigma[at]
        acc += dep.reshape(k, stride).sum(axis=0)
        reach[lo : lo + k] = (dist > 0).sum(axis=1)
    # interior contributions were counted once per ordered pair
    flows_arr = acc[:n] / 2.0 + reach
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

"""Almost-geodesic cycle probes.

A cycle C is almost geodesic when graph distances between its vertices
never fall more than a small defect e below the cycle-arc distances:
d_G(u, v) >= d_C(u, v) - e for all u, v on C. Long cycles with small
defect force large four-point defects: four vertices spaced a quarter
cycle apart have both "side" sums near |C|/2 while the diagonal sum
stays near |C|, so the gap grows with the cycle.

The probe here is constructive: join a canonical geodesic between the
probed pair with a shortest detour that avoids the geodesic's interior
(and, for adjacent pairs, the direct edge). It reports whatever cycle
that yields; it makes no claim of finding the best one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from statistics import median

import numpy as np

from .graph import Graph
from .hyperbolicity import quadruple_defect_from_distances
from .paths import BLOCK, bfs, distance_rows, extract_one_geodesic, single_source_distances
from .seeding import below, keystream


@dataclass
class CycleProbeResult:
    """A simple cycle through a probed pair and its geodesic defect."""

    cycle: list[int]
    length: int
    defect: int
    pair: tuple[int, int]
    quadruple_defect: float | None = None


def _detour(
    g: Graph, start: int, goal: int, banned: set[int], skip_direct_edge: bool
) -> list[int] | None:
    """Shortest start->goal path avoiding banned vertices; None if cut off.

    BFS over sorted adjacency; each vertex's predecessor is the first
    vertex to discover it, so ties resolve deterministically.
    """
    n = g.n
    dist: list[int | None] = [None] * n
    pred = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            break
        for w in g.neighbors(v):
            if w in banned:
                continue
            if skip_direct_edge and v == start and w == goal:
                continue
            if dist[w] is None:
                dist[w] = dist[v] + 1
                pred[w] = v
                queue.append(w)
    if dist[goal] is None:
        return None
    path = [goal]
    v = goal
    while v != start:
        v = pred[v]
        path.append(v)
    path.reverse()
    return path


def find_cycle_through_pair(g: Graph, v: int, w: int) -> CycleProbeResult | None:
    """Probe for a cycle through v and w: geodesic plus interior-disjoint
    second path. None when no second route exists (e.g. in a tree)."""
    if v == w:
        raise ValueError("need two distinct vertices")
    spd = bfs(g, v)
    if spd.dist[w] is None:
        raise ValueError(f"vertices {v} and {w} are not connected")
    geodesic = extract_one_geodesic(spd, w)
    interior = set(geodesic[1:-1])
    detour = _detour(g, v, w, interior, skip_direct_edge=len(geodesic) == 2)
    if detour is None:
        return None
    cycle = geodesic + detour[-2:0:-1]  # walk the detour back, endpoints dropped
    return CycleProbeResult(
        cycle=cycle,
        length=len(cycle),
        defect=cycle_defect(g, cycle),
        pair=(v, w),
    )


def cycle_defect(g: Graph, cycle: list[int]) -> int:
    """Worst gap d_C(u, v) - d_G(u, v) over vertex pairs of the cycle.

    Zero iff the cycle is isometrically embedded. Validates that the
    sequence really is a simple cycle of the graph.
    """
    length = len(cycle)
    if length < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(cycle)) != length:
        raise ValueError("cycle sequence repeats a vertex")
    for i, u in enumerate(cycle):
        nxt = cycle[(i + 1) % length]
        if not g.has_edge(u, nxt):
            raise ValueError(f"({u}, {nxt}) is not an edge of the graph")
    pos = np.arange(length)
    worst = 0  # the diagonal's gap
    for lo in range(0, length, BLOCK):
        d_g = distance_rows(g, [(v,) for v in cycle[lo : lo + BLOCK]])[:, cycle]
        arc = np.abs(pos[lo : lo + BLOCK, None] - pos)
        worst = max(worst, int((np.minimum(arc, length - arc) - d_g).max()))
    return worst


def witness_quadruple(
    g: Graph, probe: CycleProbeResult
) -> tuple[tuple[int, int, int, int], float]:
    """Four cycle vertices at quarter spacings and their four-point defect
    under graph distances. Recorded on the probe as quadruple_defect."""
    length = probe.length
    if length < 4:
        raise ValueError("cycle too short for a quadruple")
    pos = (0, length // 4, length // 2, (3 * length) // 4)
    x1, x2, x3, x4 = (probe.cycle[p] for p in pos)
    r1, r2, r3 = distance_rows(g, [(x1,), (x2,), (x3,)])
    defect = quadruple_defect_from_distances(
        int(r1[x2]), int(r1[x3]), int(r1[x4]), int(r2[x3]), int(r2[x4]), int(r3[x4])
    )
    probe.quadruple_defect = defect
    return (x1, x2, x3, x4), defect


@dataclass
class ProbeRow:
    v: int
    w: int
    found: bool
    length: int | None = None
    defect: int | None = None
    quadruple_defect: float | None = None


@dataclass
class ProbeStatistics:
    """Aggregate view over sampled pair probes."""

    rows: list[ProbeRow]
    pairs_sampled: int
    found_fraction: float
    length_min: int | None
    length_median: float | None
    length_max: int | None
    defect_min: int | None
    defect_median: float | None
    defect_max: int | None
    quadruple_defect_min: float | None
    quadruple_defect_median: float | None
    quadruple_defect_max: float | None
    ref_log: float | None  # log_{d-1}(n) when the graph is regular, d >= 3
    ref_loglog: float | None


def sample_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    """count uniform ordered pairs of distinct vertices, without retries:
    from words u0, u1 of seed's keystream, v = u0 mod n and
    w = (v + 1 + u1 mod (n - 1)) mod n."""
    if n < 2:
        raise ValueError("need at least two vertices")
    words = keystream(seed, 0, 2 * count)
    v = below(words[0::2], n)
    w = (v + 1 + below(words[1::2], n - 1)) % n
    return list(zip(v.tolist(), w.tolist()))


def probe_statistics(g: Graph, pair_samples: int, seed: int) -> ProbeStatistics:
    """Probe uniformly sampled vertex pairs and summarize what was found."""
    n = g.n
    if n < 2:
        raise ValueError("need at least two vertices")
    if (single_source_distances(g, 0) == -1).any():
        raise ValueError("probe statistics need a connected graph")
    if pair_samples < 1:
        raise ValueError("need at least one pair sample")
    rows: list[ProbeRow] = []
    for v, w in sample_pairs(n, pair_samples, seed):
        probe = find_cycle_through_pair(g, v, w)
        if probe is None:
            rows.append(ProbeRow(v, w, found=False))
            continue
        qd = None
        if probe.length >= 4:
            _, qd = witness_quadruple(g, probe)
        rows.append(ProbeRow(v, w, True, probe.length, probe.defect, qd))
    lengths = [r.length for r in rows if r.length is not None]
    defects = [r.defect for r in rows if r.defect is not None]
    qdefects = [r.quadruple_defect for r in rows if r.quadruple_defect is not None]
    d = g.regular_degree()
    ref_log = ref_loglog = None
    if d is not None and d >= 3 and n >= 3:
        ref_log = math.log(n, d - 1)
        if ref_log > 1.0:
            ref_loglog = math.log(ref_log, d - 1)
    return ProbeStatistics(
        rows=rows,
        pairs_sampled=pair_samples,
        found_fraction=sum(r.found for r in rows) / pair_samples,
        length_min=min(lengths) if lengths else None,
        length_median=median(lengths) if lengths else None,
        length_max=max(lengths) if lengths else None,
        defect_min=min(defects) if defects else None,
        defect_median=median(defects) if defects else None,
        defect_max=max(defects) if defects else None,
        quadruple_defect_min=min(qdefects) if qdefects else None,
        quadruple_defect_median=median(qdefects) if qdefects else None,
        quadruple_defect_max=max(qdefects) if qdefects else None,
        ref_log=ref_log,
        ref_loglog=ref_loglog,
    )


def probe_statistics_csv(stats: ProbeStatistics) -> str:
    """One row per probed pair, then the summary as comment lines."""
    lines = ["v,w,found,length,defect,quadruple_defect"]
    for r in stats.rows:
        length = "" if r.length is None else r.length
        defect = "" if r.defect is None else r.defect
        qd = "" if r.quadruple_defect is None else repr(r.quadruple_defect)
        lines.append(f"{r.v},{r.w},{int(r.found)},{length},{defect},{qd}")
    lines.append(f"# pairs_sampled={stats.pairs_sampled}")
    lines.append(f"# found_fraction={stats.found_fraction!r}")
    for name in ("length", "defect", "quadruple_defect"):
        lo = getattr(stats, f"{name}_min")
        mid = getattr(stats, f"{name}_median")
        hi = getattr(stats, f"{name}_max")
        lines.append(f"# {name}_min_median_max={lo},{mid},{hi}")
    lines.append(f"# ref_log={stats.ref_log}")
    lines.append(f"# ref_loglog={stats.ref_loglog}")
    return "\n".join(lines) + "\n"

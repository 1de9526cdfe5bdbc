"""Four-point hyperbolicity and a thin-triangle probe.

For a quadruple, sort the three pairwise distance sums; the defect is
(largest - second largest) / 2. The graph's delta is the maximum defect
over all quadruples: exact_delta scans them all (vectorized over the two
free vertices of each anchor pair), sampled_delta lower-bounds it from
uniform random quadruples. Distances are integers throughout, so every
defect is an exact multiple of one half.

triangle_fatness measures the other classical definition, thinness of
geodesic triangles, over one canonical geodesic per side. The two
measurements agree only up to constants and are never equated here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .paths import (
    BLOCK,
    bfs,
    distance_matrix,
    distance_rows,
    extract_one_geodesic,
    single_source_distances,
    source_block,
)

# Largest n that exact_delta, the CLI's delta command and auto-mode sweeps
# handle exactly by default; the quartic scan takes minutes at this size.
EXACT_DELTA_CUTOFF = 400


@dataclass
class HyperbolicityReport:
    """delta, the quadruple attaining it, and how it was computed."""

    delta: float
    witness: tuple[int, int, int, int]
    mode: str  # "exact" | "sampled"
    samples_used: int | None = None


def quadruple_defect_from_distances(
    d12: int, d13: int, d14: int, d23: int, d24: int, d34: int
) -> float:
    """Defect of one quadruple given its six pairwise distances."""
    s_a = d13 + d24
    s_b = d12 + d34
    s_c = d14 + d23
    hi = max(s_a, s_b, s_c)
    lo = min(s_a, s_b, s_c)
    mid = s_a + s_b + s_c - hi - lo
    return (hi - mid) / 2.0


def four_point_defect(dm: np.ndarray, x1: int, x2: int, x3: int, x4: int) -> float:
    """Four-point defect read off a distance matrix.

    Invariant under any relabeling of the four vertices. Raises if any of
    the six distances is the disconnected sentinel.
    """
    d12 = int(dm[x1][x2])
    d13 = int(dm[x1][x3])
    d14 = int(dm[x1][x4])
    d23 = int(dm[x2][x3])
    d24 = int(dm[x2][x4])
    d34 = int(dm[x3][x4])
    if min(d12, d13, d14, d23, d24, d34) < 0:
        raise ValueError("quadruple is not pairwise connected")
    return quadruple_defect_from_distances(d12, d13, d14, d23, d24, d34)


def exact_delta(g: Graph, cap: int = EXACT_DELTA_CUTOFF) -> HyperbolicityReport:
    """Maximum defect over all quadruples; quartic scan, hence the cap.

    Deterministic: anchor pairs are visited in lexicographic order and
    only strict improvements replace the stored witness.
    """
    n = g.n
    if n > cap:
        raise ValueError(f"exact delta capped at n={cap}, got n={n} (use sampled_delta)")
    if n == 0:
        raise ValueError("empty graph")
    dm = distance_matrix(g, cap=cap)
    if (dm < 0).any():
        raise ValueError("exact delta needs a connected graph")
    if n < 4:
        return HyperbolicityReport(0.0, (0, 0, 0, 0), "exact")
    d = dm.astype(np.int64)
    best = -1
    witness = (0, 0, 0, 0)
    # For a fixed anchor pair (x1, x2) the three sums over the (x3, x4)
    # plane are A = d(x1,.)^T + d(x2,.), B = d(x1,x2) + D, and A^T.
    for x1 in range(n - 1):
        col1 = d[x1][:, None]
        for x2 in range(x1 + 1, n):
            a = col1 + d[x2][None, :]
            b = d[x1, x2] + d
            c = a.T
            hi = np.maximum(a, b)
            np.maximum(hi, c, out=hi)
            lo = np.minimum(a, b)
            np.minimum(lo, c, out=lo)
            plane = a + b
            plane += c
            plane -= lo
            plane -= 2 * hi  # sum - lo - 2*hi = mid - hi = -(2 * defect)
            k = int(plane.argmin())
            val = int(-plane.flat[k])
            if val > best:
                best = val
                witness = (x1, x2, k // n, k % n)
    return HyperbolicityReport(best / 2.0, witness, "exact")


def sampled_delta(g: Graph, samples: int, seed: int) -> HyperbolicityReport:
    """Max defect over uniform random quadruples (with replacement).

    A lower-bound estimator for exact_delta. Distance rows are computed
    on demand, a whole BLOCK-source block per miss, and memoized, so at
    most ceil(n / BLOCK) block sweeps run regardless of the sample count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    probe = single_source_distances(g, 0)
    if (probe == -1).any():
        raise ValueError("sampled delta needs a connected graph")
    rows: dict[int, np.ndarray] = {0: probe}

    def row(v: int) -> np.ndarray:
        r = rows.get(v)
        if r is None:
            lo = v - v % BLOCK
            rows.update(enumerate(source_block(g, lo), lo))
            r = rows[v]
        return r

    rng = random.Random(seed)
    best = -1
    witness = (0, 0, 0, 0)
    for _ in range(samples):
        x1 = rng.randrange(n)
        x2 = rng.randrange(n)
        x3 = rng.randrange(n)
        x4 = rng.randrange(n)
        r1 = row(x1)
        r2 = row(x2)
        r3 = row(x3)
        s_a = int(r1[x3]) + int(r2[x4])
        s_b = int(r1[x2]) + int(r3[x4])
        s_c = int(r1[x4]) + int(r2[x3])
        hi = max(s_a, s_b, s_c)
        lo = min(s_a, s_b, s_c)
        val = 2 * hi - (s_a + s_b + s_c) + lo  # hi - mid
        if val > best:
            best = val
            witness = (x1, x2, x3, x4)
    return HyperbolicityReport(best / 2.0, witness, "sampled", samples_used=samples)


def triangle_fatness(g: Graph, a: int, b: int, c: int) -> int:
    """Smallest t such that each side of the geodesic triangle abc lies
    within distance t of the union of the other two sides.

    Sides are the canonical geodesics [a->b], [b->c], [c->a] (smallest-
    index predecessor rule), not a maximization over geodesic choices.
    """
    spd_a = bfs(g, a)
    spd_b = bfs(g, b)
    spd_c = bfs(g, c)
    for spd, target in ((spd_a, b), (spd_b, c), (spd_c, a)):
        if spd.dist[target] is None:
            raise ValueError("triangle corners are not pairwise connected")
    side_ab = extract_one_geodesic(spd_a, b)
    side_bc = extract_one_geodesic(spd_b, c)
    side_ca = extract_one_geodesic(spd_c, a)
    sides = (side_ab, side_bc, side_ca)
    # row i: distance to the union of the two sides other than side i
    rows = distance_rows(
        g, [set(sides[(i + 1) % 3]) | set(sides[(i + 2) % 3]) for i in range(3)]
    )
    # every side lies in the corners' component, where the unions are nonempty
    return max(int(rows[i][side].max()) for i, side in enumerate(sides))


def hyperbolicity_report_json(
    report: HyperbolicityReport, n: int, d: int | None = None
) -> str:
    """One JSON line with the graph context a report is read alongside."""
    return json.dumps(
        {
            "n": n,
            "d": d,
            "mode": report.mode,
            "delta": report.delta,
            "witness": list(report.witness),
            "samples_used": report.samples_used,
        }
    )

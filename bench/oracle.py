"""Correctness gate: every replicate row against an independent reference.

The reference is computed here from the graph the sweep generated, with
numpy code that shares nothing with regraph's kernels:

- distances: a level-synchronous BFS from all sources at once over a
  dense boolean frontier;
- M: Brandes' dependency accumulation over all sources at once, level by
  level, on the (source, vertex) entries at each distance;
- exact delta: vertex pairs in decreasing distance order, stopping once a
  pair's distance is at most twice the best defect found (Cohen, Coudert
  and Lancin). For the largest-sum pairing {ab, cd} of a quadruple,
  2 * defect <= min(d(a,b), d(c,d)), so no later pair can improve on it.

n, seed, diameter and exact delta must match exactly. M must match to a
relative 1e-9, because reordered float sums are legitimate. A sampled
delta depends on the RNG stream, so it is checked only for range: a
multiple of one half with 0 <= delta <= diameter / 2.

The oracle checks the graph the program drew, not whether it drew the
right one. reference.json therefore also records the exact outputs of
the first pass at a few seeds, from the commit that added the benchmark;
a run at a recorded seed must reproduce them, which pins the generator's
frozen splitmix64 stream.
"""

from __future__ import annotations

import numpy as np

from workloads import derive, diameter_reference

M_RTOL = 1e-9


def neighbor_table(g) -> np.ndarray:
    """(n, d) neighbour indices of a d-regular graph, from its edge list."""
    edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    arcs = np.concatenate([edges, edges[:, ::-1]])
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    counts = np.bincount(arcs[:, 0], minlength=g.n)
    if counts.min() != counts.max():
        raise ValueError("graph is not regular")
    return arcs[:, 1].reshape(g.n, -1)


def distances(nbr: np.ndarray) -> np.ndarray:
    """All-pairs hop counts, int32, -1 for unreachable pairs."""
    n = len(nbr)
    dist = np.full((n, n), -1, dtype=np.int32)
    frontier = np.eye(n, dtype=bool)
    seen = frontier.copy()
    level = 0
    while frontier.any():
        dist[frontier] = level
        level += 1
        # v joins the next level of source s when one of v's neighbours is
        # in s's current level
        frontier = frontier[:, nbr].any(axis=2) & ~seen
        seen |= frontier
    return dist


def max_flow(nbr: np.ndarray, dist: np.ndarray) -> float:
    """Maximum vertex flow M of a connected graph (endpoints included)."""
    n = len(nbr)
    flat = dist.ravel()
    by_level = np.argsort(flat, kind="stable")  # entries (s, v) grouped by dist
    cuts = np.searchsorted(flat[by_level], np.arange(flat.max() + 2))
    levels = [by_level[cuts[i]:cuts[i + 1]] for i in range(len(cuts) - 1)]
    sigma = np.zeros(n * n)  # geodesic counts s -> v
    sigma[levels[0]] = 1.0
    for level in range(1, len(levels)):
        at = levels[level]
        row = at - at % n
        acc = np.zeros(len(at))
        for u in nbr[at % n].T:
            j = row + u
            acc += np.where(flat[j] == level - 1, sigma[j], 0.0)
        sigma[at] = acc
    dep = np.zeros(n * n)  # Brandes dependency of s on v
    for level in range(len(levels) - 2, 0, -1):
        at = levels[level]
        row = at - at % n
        acc = np.zeros(len(at))
        for w in nbr[at % n].T:
            j = row + w
            acc += np.where(flat[j] == level + 1, (1.0 + dep[j]) / sigma[j], 0.0)
        dep[at] = sigma[at] * acc
    return float((dep.reshape(n, n).sum(axis=0) / 2.0 + (n - 1)).max())


def exact_delta(dist: np.ndarray) -> float:
    """Four-point delta of a connected graph by distance-ordered pairs."""
    a, b = np.triu_indices(len(dist), 1)
    dab = dist[a, b]
    order = np.argsort(-dab, kind="stable")
    a, b, dab = a[order], b[order], dab[order]
    best = 0  # twice the best defect, an integer
    for i in range(1, len(a)):
        if dab[i] <= best:
            break
        x, y, ea, eb = a[i], b[i], a[:i], b[:i]
        s1 = dab[i] + dab[:i]
        s2 = dist[x, ea] + dist[y, eb]
        s3 = dist[x, eb] + dist[y, ea]
        hi = np.maximum(np.maximum(s1, s2), s3)
        lo = np.minimum(np.minimum(s1, s2), s3)
        best = max(best, int((2 * hi + lo - s1 - s2 - s3).max()))  # hi - mid
    return best / 2.0


def exact_outputs(row: dict) -> dict:
    """The outputs of a replicate that are fixed by its seed."""
    out = {k: row[k] for k in ("n", "replicate", "seed", "diameter", "M") if k in row}
    if row.get("mode") == "exact":
        out["delta"] = row["delta"]
    return out


def check_rows(cfg, result, graphs: dict, recorded: list[dict] | None = None
               ) -> dict[tuple[int, int], str]:
    """Failed replicates of one finished sweep: (n, replicate) -> reason.

    graphs maps (n, seed) to the graph the sweep generated for that
    replicate; recorded, if given, holds the exact_outputs every replicate
    of the sweep must reproduce. A replicate that was skipped or has no
    row fails.
    """
    failed: dict[tuple[int, int], str] = {}
    got = {(row["n"], row["replicate"]): exact_outputs(row) for row in result.rows}
    for ref in recorded or []:
        key = (ref["n"], ref["replicate"])
        out = got.get(key, {})
        for name, want in ref.items():
            have = out.get(name)
            if name == "M" and have is not None and abs(have - want) <= M_RTOL * abs(want):
                continue
            if have != want:
                failed[key] = f"{name} {have!r} != recorded {want!r}"
    expected = {
        (n, rep): derive(cfg.seed, n, rep) for n in cfg.n_values for rep in range(cfg.replications)
    }
    for n, rep, err in result.skipped:
        failed[n, rep] = f"skipped: {err}"
    for row in result.rows:
        key = (row["n"], row["replicate"])
        if expected.get(key) != row["seed"]:
            failed[key] = f"unexpected (n, replicate, seed) {key + (row['seed'],)}"
            continue
        g = graphs.get((row["n"], row["seed"]))
        if g is None or g.n != row["n"] or g.regular_degree() != cfg.d:
            failed[key] = "generated graph not seen"
            continue
        bad = _check_row(cfg, row, g)
        if bad:
            failed[key] = "; ".join(bad)
    seen = {(row["n"], row["replicate"]) for row in result.rows}
    for key in expected.keys() - seen - failed.keys():
        failed[key] = "no row"
    return failed


def _check_row(cfg, row: dict, g) -> list[str]:
    nbr = neighbor_table(g)
    dist = distances(nbr)
    if (dist < 0).any():
        return ["graph is disconnected"]
    diam = int(dist.max())
    bad = []
    if cfg.kind in ("congestion_scaling", "diameter_scaling") and row["diameter"] != diam:
        bad.append(f"diameter {row['diameter']} != {diam}")
    if cfg.kind == "congestion_scaling":
        ref = max_flow(nbr, dist)
        if not abs(row["M"] - ref) <= M_RTOL * abs(ref):
            bad.append(f"M {row['M']!r} != {ref!r}")
    elif cfg.kind == "diameter_scaling":
        ref = diam - diameter_reference(row["n"], cfg.d)
        if not abs(row["offset"] - ref) <= 1e-12:
            bad.append(f"offset {row['offset']!r} != {ref!r}")
    elif cfg.kind == "delta_scaling":
        delta = row["delta"]
        if cfg.delta_mode == "exact":
            ref = exact_delta(dist)
            if (row["mode"], row["samples_used"], delta) != ("exact", 0, ref):
                bad.append(f"exact delta {delta!r} (mode {row['mode']}) != {ref!r}")
        elif row["mode"] != "sampled+witness" or row["samples_used"] != cfg.samples:
            bad.append(f"mode {row['mode']} with {row['samples_used']} samples")
        elif not (2 * delta == int(2 * delta) and 0 <= delta <= diam / 2):
            bad.append(f"sampled delta {delta!r} outside half-integers in [0, {diam}/2]")
    return bad

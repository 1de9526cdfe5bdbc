"""Layer grid: one timed call per layer on a fixed (n, d, seed) grid.

    python3 bench/grid.py [--seed 1]

Regenerates the rows of ROADMAP.md's baseline table that finish in a few
minutes (about one on a 2-CPU machine, seed 1): random_regular at d=3
and d=6, vertex_congestion, diameter, exact_delta at n=128 and 256,
sampled_delta with 1e5 samples and probe_statistics with 200 pairs.
Each cell is a single wall-clock measurement, so figures vary by run;
the benchmark in run.py is the one to compare commits with. Prints a
markdown table, then one JSON line with the same cells. Not gated.
Run from the root of a checkout; regraph is imported from its src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from regraph import (GenSpec, diameter, exact_delta, probe_statistics, random_regular,
                         sampled_delta, vertex_congestion)
    from regraph.experiments import RUNNER_MAX_RETRIES

    graphs = {}
    cells = []  # (layer, n, seconds, result)
    for d, ns in ((3, (128, 256, 1024, 4096)), (6, (1024, 4096))):
        for n in ns:
            spec = GenSpec(n, d, args.seed, max_retries=RUNNER_MAX_RETRIES)
            s, graphs[n, d] = timed(random_regular, spec)
            cells.append((f"random_regular d={d}", n, s, f"m={graphs[n, d].m}"))
    for n in (1024, 4096):
        s, report = timed(vertex_congestion, graphs[n, 3])
        cells.append(("vertex_congestion d=3", n, s, f"M={report.max_flow:.6g}"))
        s, diam = timed(diameter, graphs[n, 3])
        cells.append(("diameter d=3", n, s, f"D={diam}"))
    for n in (128, 256):
        s, report = timed(exact_delta, graphs[n, 3])
        cells.append(("exact_delta d=3", n, s, f"delta={report.delta}"))
    s, report = timed(sampled_delta, graphs[1024, 3], 100_000, args.seed)
    cells.append(("sampled_delta 1e5 d=3", 1024, s, f"delta={report.delta}"))
    s, stats = timed(probe_statistics, graphs[1024, 3], 200, args.seed)
    cells.append(("probe_statistics 200 pairs d=3", 1024, s, f"found={stats.found_fraction}"))

    print(f"| layer | n | seconds (seed {args.seed}) | result |")
    print("|---|---|---|---|")
    for layer, n, s, result in cells:
        print(f"| `{layer}` | {n} | {s:.3f} | {result} |")
    print(json.dumps({"seed": args.seed, "cells": [
        {"layer": layer, "n": n, "seconds": s, "result": result} for layer, n, s, result in cells
    ]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

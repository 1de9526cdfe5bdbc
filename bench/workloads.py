"""The benchmark's workloads: fixed sets of experiment sweeps.

A run repeats its workload in passes. Pass p of a run with seed S gives
sweep i the config seed derive(S, p, i), so the same seed always yields
the same inputs, and every pass adds fresh graphs, so a run's time
averages over many graphs instead of resting on a few.

This module imports nothing from regraph. The seed mix is a copy of
splitmix64 kept here on purpose: the correctness gate checks the
program's replicate seeds against it.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1

# The sweeps of each workload: ExperimentConfig fields apart from seed and
# output_dir. BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    # congestion does about 2/3 of the work, diameter the rest, over deep,
    # narrow d=3 BFS levels
    "congestion_d3": [
        {"kind": "congestion_scaling", "d": 3, "n_values": [512, 1024], "replications": 1},
    ],
    # rejection-sampling generation dominates and diameter runs shallow, wide
    # BFS levels. Not in BENCHMARK.json: generation takes 0.3-1.5 s per
    # graph with a standard deviation about equal to its mean, so a run's
    # time spreads across seeds by more than any allowed bound (README.md).
    "diameter_d6": [
        {"kind": "diameter_scaling", "d": 6, "n_values": [256, 1024], "replications": 1},
    ],
    # the mode is pinned, so moving the exact/sampled cutoff cannot change
    # the work; the sampled sweep includes 32 witness cycle probes
    "delta_d3": [
        {"kind": "delta_scaling", "d": 3, "n_values": [128], "replications": 1,
         "delta_mode": "exact"},
        {"kind": "delta_scaling", "d": 3, "n_values": [1024], "replications": 1,
         "delta_mode": "sampled", "samples": 100_000},
    ],
}


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def derive(master: int, *parts: int) -> int:
    """Order-sensitive mix of a master seed with integer labels."""
    h = splitmix64(master & MASK64)
    for p in parts:
        h = splitmix64(h ^ (p & MASK64))
    return h


def pass_sweeps(workload: str, seed: int, pass_index: int, output_dir: str) -> list[dict]:
    """Keyword arguments of every ExperimentConfig in one pass."""
    return [
        {**spec, "seed": derive(seed, pass_index, i), "output_dir": f"{output_dir}/{i}"}
        for i, spec in enumerate(WORKLOADS[workload])
    ]


def diameter_reference(n: int, d: int) -> float:
    """log_{d-1}(n) + log_{d-1}(log_{d-1}(n)), the offset's baseline."""
    ln = math.log(n, d - 1)
    return ln + math.log(ln, d - 1)

"""Benchmark of regraph's seeded experiment sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; regraph is imported from its src/. The
workloads are in workloads.py, the correctness gate in oracle.py, the
trace in spans.py, and README.md has the notes.

A run repeats its workload in passes (pass p draws fresh config seeds from
(seed, p)) until its passes have taken S seconds, always through
run_experiment(cfg, workers=1) in this one process. A set-up probe runs in
a fresh process before each pass. Every replicate row then goes through
the correctness gate, outside the timed region.

--trace 0 reports the end-to-end metrics:
    sweep_s      mean wall time of a pass (the passes' total / their number)
    setup_s      median over fresh processes of import plus config set-up
    peak_rss_mb  peak resident memory of a fresh process running pass 0
    passed_frac  replicates that passed the gate / replicates attempted
--trace 1 runs passes untraced for S/2 seconds, then the same passes
traced, and reports the per-layer metrics of spans.layer_metrics, as
means per pass so that the layers' self times add up to trace.sweep_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from oracle import check_rows, exact_outputs
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, pass_sweeps

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"  # workload -> seed -> pass 0 outputs per sweep
OUT_DIR = ".bench_out"  # sweep outputs, removed when the run ends
SETUP_PROBES = 7  # at least; one more runs before each pass
PROBE_TIMEOUT_S = 120
# the traced run's layer self times must cover this share of its wall time
MIN_ACCOUNTED = 0.99


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's first-pass outputs in reference.json")
    return p.parse_args(argv)


def probe(mode: str, args: argparse.Namespace) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode, args.workload, str(args.seed), OUT_DIR],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def tap_graphs(experiments, graphs: dict) -> None:
    """Keep each graph the sweeps generate, keyed by (n, seed), for the gate.

    One extra Python call per graph; graphs take milliseconds to seconds.
    """
    real = experiments.random_regular

    def random_regular(spec):
        g = real(spec)
        graphs[spec.n, spec.seed] = g
        return g

    experiments.random_regular = random_regular


def run_pass(experiments, args: argparse.Namespace, index: int, finished: list) -> float:
    """Run pass `index`; append (config, result or None, CSV bytes) per sweep
    to finished and return the wall time spent inside run_experiment."""
    spent = 0.0
    for kw in pass_sweeps(args.workload, args.seed, index, OUT_DIR):
        cfg = experiments.ExperimentConfig(**kw)
        t0 = time.perf_counter()
        try:
            result = experiments.run_experiment(cfg, workers=1)
        except Exception:
            # the sweep aborted; the gate counts all its replicates as failed
            traceback.print_exc()
            result = None
        spent += time.perf_counter() - t0
        finished.append((cfg, result, result.csv_path.stat().st_size if result else 0))
    return spent


def gate(finished: list, graphs: dict, recorded: list | None) -> tuple[int, int]:
    """(replicates attempted, replicates failed); reasons go to stderr.

    recorded holds the first pass's outputs per sweep, if this seed has
    them; finished starts with that pass.
    """
    attempted = failed = 0
    for i, (cfg, result, _) in enumerate(finished):
        count = len(cfg.n_values) * cfg.replications
        attempted += count
        if result is None:
            failed += count
            continue
        ref = recorded[i] if recorded and i < len(recorded) else None
        try:
            bad = check_rows(cfg, result, graphs, ref)
        except Exception:
            # rows the gate cannot read fail, and so does the whole sweep
            traceback.print_exc()
            failed += count
            continue
        for (n, rep), reason in sorted(bad.items()):
            failed += 1
            print(f"FAIL {cfg.kind} seed={cfg.seed} n={n} replicate={rep}: {reason}", file=sys.stderr)
    return attempted, failed


def unit(name: str) -> str:
    if name.endswith(("_s", ".s", ".s_min", ".s_max")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ns_per_arc"):
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def measure(args: argparse.Namespace, root: Path) -> dict:
    if not args.trace:
        rss = probe("rss", args)["peak_rss_mb"]

    sys.path.insert(0, str(root / "src"))
    from regraph import cycles, experiments, hyperbolicity

    graphs: dict = {}
    tap_graphs(experiments, graphs)
    finished: list = []
    budget = args.seconds / 2 if args.trace else args.seconds
    times: list[float] = []
    setups: list[float] = []
    while not times or sum(times) < budget:
        if not args.trace:
            # spread over the run, so set-up and sweeps see the same machine
            setups.append(probe("setup", args)["setup_s"])
        times.append(run_pass(experiments, args, len(times), finished))
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(probe("setup", args)["setup_s"])
    # the shared host alternates between faster and slower periods; the mean
    # weights each by its share of the run, where a median jumps between them
    sweep_s = sum(times) / len(times)
    print(f"passes {len(times)}: " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    if setups:
        print(f"setups {len(setups)}: " + " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)

    correct = True
    if args.trace:
        traced_finished: list = []
        with Tracer(experiments, hyperbolicity, cycles) as tracer:
            traced = [run_pass(experiments, args, i, traced_finished) for i in range(len(times))]
        finished += traced_finished
        metrics = layer_metrics(tracer.spans, traced, times,
                                sum(size for _, _, size in traced_finished))
        if not MIN_ACCOUNTED <= metrics["trace.accounted_frac"] <= 1.0:
            print(f"FAIL layer self times cover {metrics['trace.accounted_frac']:.4f} "
                  "of the traced wall time", file=sys.stderr)
            correct = False

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    recorded = reference.get(args.workload, {}).get(str(args.seed))
    attempted, failed = gate(finished, graphs, recorded)
    if args.record and failed:
        print("not recorded: some replicates failed", file=sys.stderr)
    elif args.record:
        sweeps = len(WORKLOADS[args.workload])
        reference.setdefault(args.workload, {})[str(args.seed)] = [
            [exact_outputs(row) for row in result.rows] for _, result, _ in finished[:sweeps]
        ]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    if not args.trace:
        metrics = {
            "sweep_s": sweep_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "passed_frac": 1.0 - failed / attempted,
        }
        print(f"failed_frac {failed / attempted} ratio")
    for name, value in metrics.items():
        print(f"{name} {value} {unit(name)}")
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "regraph" / "__init__.py").is_file():
        print("error: no src/regraph here; run from the root of a regraph checkout", file=sys.stderr)
        return 2
    os.environ.pop("REGRAPH_THREADS", None)  # probes inherit the cleared environment
    try:
        report = measure(args, root)
    finally:
        shutil.rmtree(root / OUT_DIR, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

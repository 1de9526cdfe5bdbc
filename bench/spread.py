"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1 2 3 --seconds 35 [--workload NAME ...]

For every workload and end-to-end metric it prints the value and unit at
each seed (with failed_frac), the median, and the distance between the
first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)). With two seeds,
this is the held-out-seed check: the same figures at a second seed. Runs
are sequential, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = p.parse_args()
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            report = json.loads(proc.stdout.splitlines()[-1])
            ok &= report["correct"]
            line = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in report["metrics"].items())
            failed_frac = report["failed"] / report["attempted"]
            print(f"{workload} seed={seed} correct={report['correct']} {line} "
                  f"failed_frac={failed_frac:.6g} ratio", flush=True)
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = ""
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f" iqr/median={(q3 - q1) / med:.4f}"
            print(f"{workload} {name}: median={med:.6g} {units[name]}{spread} n={len(vals)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

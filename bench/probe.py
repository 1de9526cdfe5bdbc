"""Fresh-process probes for run.py; each prints one JSON line.

    python3 bench/probe.py setup WORKLOAD SEED OUTPUT_DIR
        seconds from interpreter start-up to the first pass's configs:
        importing regraph (and numpy) plus building the ExperimentConfigs.
    python3 bench/probe.py rss WORKLOAD SEED OUTPUT_DIR
        peak resident memory of a process that runs the first pass;
        a sweep that raises is reported on stderr and skipped.

Run from the root of a checkout; regraph is imported from its src/.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    mode, workload, seed, output_dir = sys.argv[1:5]
    sys.path.insert(0, str(Path.cwd() / "src"))
    from regraph import experiments

    from workloads import pass_sweeps

    configs = [experiments.ExperimentConfig(**kw) for kw in pass_sweeps(workload, int(seed), 0, output_dir)]
    if mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return
    for cfg in configs:
        try:
            experiments.run_experiment(cfg, workers=1)
        except Exception:
            # the measured run counts the failure; memory is still reported
            traceback.print_exc()
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


if __name__ == "__main__":
    main()

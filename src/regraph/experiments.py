"""Experiment runner: scaling sweeps over n with seeded replications.

Each replicate is generated from a seed derived deterministically from
(master seed, n, replicate index), so any row of any CSV can be
regenerated in isolation. Rows stream to disk in (n, replicate) order no
matter how many workers run, and an aggregate line (mean, population
stddev of the headline metric) follows each n block. Wall-clock runtime
is the one non-reproducible column; everything else in the CSV is
byte-stable across re-runs.

Plots are self-contained SVG. Reference curves are scaled to pass
through the last measured mean, since the sweeps compare shapes, not
constants.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from statistics import fmean, pstdev

from .congestion import vertex_congestion
from .cycles import find_cycle_through_pair, probe_statistics, sample_pairs, witness_quadruple
from .generate import GenSpec, RetriesExhaustedError, random_regular
from .hyperbolicity import DEFAULT_DELTA_SAMPLES, EXACT_DELTA_CUTOFF, exact_delta, sampled_delta
from .paths import diameter
from .seeding import derive_seed
from .svgplot import Plot

KINDS = ("congestion_scaling", "delta_scaling", "diameter_scaling", "cycle_stats")

DEFAULT_PAIR_SAMPLES = 200
WITNESS_PAIRS = 32
# the pairing model accepts a d=6 matching only about once in e^8.75 tries,
# so the sweep runner is far more patient than the GenSpec default
RUNNER_MAX_RETRIES = 1_000_000

_COLUMNS = {
    "congestion_scaling": ("M", "diameter"),
    "delta_scaling": ("delta", "mode", "samples_used"),
    "diameter_scaling": ("diameter", "offset"),
    "cycle_stats": (
        "found_fraction",
        "median_length",
        "median_defect",
        "median_quadruple_defect",
    ),
}
_HEADLINE = {
    "congestion_scaling": "M",
    "delta_scaling": "delta",
    "diameter_scaling": "diameter",
    "cycle_stats": "found_fraction",
}


@dataclass
class ExperimentConfig:
    """One sweep: a metric kind, a degree, and the n values to visit."""

    kind: str
    d: int
    n_values: list[int]
    seed: int
    replications: int = 20
    delta_mode: str = "auto"  # exact | sampled | auto (exact up to the cutoff)
    samples: int | None = None  # quadruples (delta) or pair probes (cycle_stats)
    output_dir: str = "results"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if self.d < 1:
            raise ValueError("degree must be positive")
        if not self.n_values:
            raise ValueError("n_values must not be empty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.delta_mode not in ("exact", "sampled", "auto"):
            raise ValueError(f"delta_mode must be exact, sampled or auto, got {self.delta_mode!r}")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")


_INT_KEYS = ("d", "seed", "replications", "samples")
_STR_KEYS = ("kind", "delta_mode", "output_dir")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented "key = value" config format.

    Keys are exactly the ExperimentConfig fields; n_values is a
    comma-separated list. Blank lines and #-comments are skipped.
    """
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key == "n_values":
            try:
                data[key] = [int(x) for x in value.split(",")]
            except ValueError:
                raise ValueError(f"config line {lineno}: bad n_values list {value!r}") from None
        elif key in _INT_KEYS:
            try:
                data[key] = int(value)
            except ValueError:
                raise ValueError(f"config line {lineno}: bad value for {key!r}: {value!r}") from None
        elif key in _STR_KEYS:
            data[key] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    for required in ("kind", "d", "n_values", "seed"):
        if required not in data:
            raise ValueError(f"config is missing required key {required!r}")
    return ExperimentConfig(**data)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    aggregates: dict[int, tuple[float, float]]  # n -> (mean, std) of the headline metric
    adjustments: list[tuple[int, int]] = field(default_factory=list)
    skipped: list[tuple[int, int, str]] = field(default_factory=list)
    c_hat: float | None = None
    csv_path: Path | None = None
    plot_path: Path | None = None


def _diameter_reference(n: int, d: int) -> float:
    ln = math.log(n, d - 1)
    return ln + math.log(ln, d - 1)


def _replicate_metrics(
    kind: str, n: int, d: int, rep: int, rep_seed: int, delta_mode: str, samples: int | None
) -> dict:
    t0 = time.perf_counter()
    try:
        g = random_regular(GenSpec(n, d, seed=rep_seed, max_retries=RUNNER_MAX_RETRIES))
    except RetriesExhaustedError as exc:
        return {"n": n, "replicate": rep, "seed": rep_seed, "error": str(exc)}
    row: dict = {"n": n, "replicate": rep, "seed": rep_seed}
    if kind == "congestion_scaling":
        row["M"] = vertex_congestion(g).max_flow
        row["diameter"] = diameter(g)
    elif kind == "diameter_scaling":
        dia = diameter(g)
        row["diameter"] = dia
        row["offset"] = dia - _diameter_reference(n, d)
    elif kind == "delta_scaling":
        if delta_mode == "exact" or (delta_mode == "auto" and n <= EXACT_DELTA_CUTOFF):
            row["delta"] = exact_delta(g, cap=n).delta
            row["mode"] = "exact"
            row["samples_used"] = 0
        else:
            count = samples if samples is not None else DEFAULT_DELTA_SAMPLES
            best = sampled_delta(g, count, derive_seed(rep_seed, 1)).delta
            for v, w in sample_pairs(n, WITNESS_PAIRS, derive_seed(rep_seed, 2)):
                probe = find_cycle_through_pair(g, v, w)
                if probe is not None and probe.length >= 4:
                    _, qd = witness_quadruple(g, probe)
                    if qd > best:
                        best = qd
            row["delta"] = best
            row["mode"] = "sampled+witness"
            row["samples_used"] = count
    elif kind == "cycle_stats":
        count = samples if samples is not None else DEFAULT_PAIR_SAMPLES
        stats = probe_statistics(g, count, derive_seed(rep_seed, 3))
        row["found_fraction"] = stats.found_fraction
        row["median_length"] = stats.length_median
        row["median_defect"] = stats.defect_median
        row["median_quadruple_defect"] = stats.quadruple_defect_median
    row["runtime_ms"] = (time.perf_counter() - t0) * 1000.0
    return row


def _resolve_workers(workers: int | None) -> int:
    """The argument, else REGRAPH_THREADS, else the CPU count; below 1 raises."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        return workers
    env = os.environ.get("REGRAPH_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"REGRAPH_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run the sweep, streaming CSV rows and emitting an SVG plot.

    A replicate whose generation exhausts its retries is skipped with a
    warning on stderr; everything else is fatal.
    """
    ns: list[int] = []
    adjustments: list[tuple[int, int]] = []
    for n in cfg.n_values:
        if (n * cfg.d) % 2 != 0:
            adjustments.append((n, n + 1))
            n += 1
        ns.append(n)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_values collide after parity adjustment: {ns}")
    for requested, used in adjustments:
        print(
            f"warning: n={requested} makes n*d odd, using n={used} instead",
            file=sys.stderr,
        )

    tasks = [
        (cfg.kind, n, cfg.d, rep, derive_seed(cfg.seed, n, rep), cfg.delta_mode, cfg.samples)
        for n in ns
        for rep in range(cfg.replications)
    ]
    # more workers than tasks or cores would only idle or oversubscribe
    nworkers = min(_resolve_workers(workers), len(tasks), os.cpu_count() or 1)
    if nworkers == 1:
        raw_rows = [_replicate_metrics(*t) for t in tasks]
    else:
        try:
            with ProcessPoolExecutor(max_workers=nworkers) as pool:
                futures = [pool.submit(_replicate_metrics, *t) for t in tasks]
                raw_rows = [f.result() for f in futures]
        except (OSError, PermissionError) as exc:
            # sandboxed environments may refuse worker processes
            print(f"warning: process pool failed ({exc!r}), running serially", file=sys.stderr)
            raw_rows = [_replicate_metrics(*t) for t in tasks]

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.kind}_d{cfg.d}"
    csv_path = out_dir / f"{stem}.csv"
    columns = _COLUMNS[cfg.kind]
    headline = _HEADLINE[cfg.kind]

    rows: list[dict] = []
    skipped: list[tuple[int, int, str]] = []
    aggregates: dict[int, tuple[float, float]] = {}
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(f"# generated={datetime.now(timezone.utc).isoformat()}\n")
        fh.write(
            f"# config kind={cfg.kind} d={cfg.d} n_values={','.join(map(str, ns))} "
            f"replications={cfg.replications} seed={cfg.seed} "
            f"delta_mode={cfg.delta_mode} samples={cfg.samples}\n"
        )
        fh.write("n,replicate,seed," + ",".join(columns) + ",runtime_ms\n")
        idx = 0
        for n in ns:
            block = []
            for _ in range(cfg.replications):
                row = raw_rows[idx]
                idx += 1
                if "error" in row:
                    skipped.append((row["n"], row["replicate"], row["error"]))
                    print(
                        f"warning: skipping n={row['n']} replicate={row['replicate']}: "
                        f"{row['error']}",
                        file=sys.stderr,
                    )
                    continue
                block.append(row)
                rows.append(row)
                cells = [str(row["n"]), str(row["replicate"]), str(row["seed"])]
                cells.extend(_fmt_cell(row.get(c)) for c in columns)
                cells.append(f"{row['runtime_ms']:.3f}")
                fh.write(",".join(cells) + "\n")
            if block:
                values = [float(r[headline]) for r in block]
                mean = fmean(values)
                std = pstdev(values)
                aggregates[n] = (mean, std)
                fh.write(f'{n},,,"mean",{mean!r},{std!r}\n')

    c_hat = None
    if cfg.d >= 3:
        offsets = [
            r["diameter"] - _diameter_reference(r["n"], cfg.d)
            for r in rows
            if "diameter" in r
        ]
        if offsets:
            c_hat = max(offsets)

    plot_path = out_dir / f"{stem}.svg"
    plot = _build_plot(cfg, ns, aggregates, c_hat)
    plot_path.write_text(plot.render(), encoding="ascii")

    return ExperimentResult(
        config=cfg,
        rows=rows,
        aggregates=aggregates,
        adjustments=adjustments,
        skipped=skipped,
        c_hat=c_hat,
        csv_path=csv_path,
        plot_path=plot_path,
    )


def _log_grid(ns: list[int]) -> list[float]:
    """40 geometrically spaced points from min(ns) to max(ns)."""
    lo, hi = min(ns), max(ns)
    return [lo * (hi / lo) ** (i / 39) for i in range(40)] if hi > lo else [float(lo)]


def _anchored(fn, ns: list[int], anchor_n: int, anchor_y: float) -> list[tuple[float, float]]:
    """Sample fn on a dense grid, rescaled to hit (anchor_n, anchor_y)."""
    base = fn(anchor_n)
    scale = anchor_y / base if base > 0 else 1.0
    return [(x, scale * fn(x)) for x in _log_grid(ns)]


def _build_plot(
    cfg: ExperimentConfig,
    ns: list[int],
    aggregates: dict[int, tuple[float, float]],
    c_hat: float | None,
) -> Plot:
    pts = [(float(n), aggregates[n][0]) for n in ns if n in aggregates]
    kind = cfg.kind
    d = cfg.d
    if kind == "congestion_scaling":
        plot = Plot(
            title=f"max vertex flow, d={d}",
            xlabel="n",
            ylabel="mean max flow",
            logx=True,
            logy=True,
        )
        if pts:
            anchor_n, anchor_y = pts[-1]
            plot.add_curve("n^2", _anchored(lambda x: x * x, ns, anchor_n, anchor_y))
            if d >= 3:
                plot.add_curve(
                    f"n*log_{d - 1}(n)^3",
                    _anchored(lambda x: x * math.log(x, d - 1) ** 3, ns, anchor_n, anchor_y),
                )
            plot.add_curve("n*log(n)", _anchored(lambda x: x * math.log(x), ns, anchor_n, anchor_y))
    elif kind == "diameter_scaling":
        plot = Plot(
            title=f"diameter, d={d}",
            xlabel="n",
            ylabel="mean diameter",
        )
        if d >= 3 and c_hat is not None:
            plot.add_curve(
                f"log_{d - 1}(n)+log_{d - 1}(log_{d - 1}(n))+C",
                [(x, _diameter_reference(int(round(x)), d) + c_hat) for x in _log_grid(ns)],
            )
    elif kind == "delta_scaling":
        plot = Plot(
            title=f"four-point delta estimate, d={d}",
            xlabel="n",
            ylabel="mean delta",
        )
        if d >= 3:
            curve = []
            for x in _log_grid(ns):
                ln = math.log(x, d - 1)
                if ln > 1.0:
                    curve.append((x, 0.5 * (ln - 2 * math.log(ln, d - 1))))
            plot.add_curve(f"(log_{d - 1}(n) - 2 log_{d - 1}(log_{d - 1}(n)))/2", curve)
    else:  # cycle_stats
        plot = Plot(
            title=f"cycle probe hit rate, d={d}",
            xlabel="n",
            ylabel="mean found fraction",
        )
    plot.add_points(pts)
    return plot

"""Command-line interface.

Subcommands: generate, congestion, delta, diameter, cycle-probe,
experiment. Exit codes: 0 success, 1 usage error, 2 runtime failure.
Diagnostics are a single line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .congestion import brute_force_congestion, congestion_report_csv, vertex_congestion
from .cycles import probe_statistics, probe_statistics_csv
from .generate import GenSpec, RetriesExhaustedError, random_regular
from .graph import Graph, read_edge_list, write_edge_list
from .hyperbolicity import DEFAULT_DELTA_SAMPLES, EXACT_DELTA_CUTOFF, exact_delta, sampled_delta
from .hyperbolicity import hyperbolicity_report_json
from .paths import diameter
from .experiments import _diameter_reference, parse_config, run_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; usage errors are 1
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_graph(path: str) -> Graph:
    return read_edge_list(Path(path).read_text(encoding="ascii"))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _fmt_half(x: float) -> str:
    return str(int(x)) if x == int(x) else str(x)


def _cmd_generate(args) -> int:
    spec = GenSpec(
        n=args.n,
        d=args.d,
        seed=args.seed,
        max_retries=args.max_retries,
        require_connected=not args.allow_disconnected,
    )
    g = random_regular(spec)
    _emit(write_edge_list(g), args.out)
    return 0


def _cmd_congestion(args) -> int:
    g = _load_graph(args.infile)
    report = brute_force_congestion(g) if args.oracle else vertex_congestion(g)
    _emit(congestion_report_csv(report), args.out)
    return 0


def _cmd_delta(args) -> int:
    g = _load_graph(args.infile)
    if args.exact:
        report = exact_delta(g, cap=g.n)
    elif args.samples is not None:
        report = sampled_delta(g, args.samples, args.seed)
    elif g.n <= EXACT_DELTA_CUTOFF:
        report = exact_delta(g)
    else:
        report = sampled_delta(g, DEFAULT_DELTA_SAMPLES, args.seed)
    print(_fmt_half(report.delta))
    print(hyperbolicity_report_json(report, g.n, g.regular_degree()))
    return 0


def _cmd_diameter(args) -> int:
    g = _load_graph(args.infile)
    dia = diameter(g)
    print(dia)
    d = g.regular_degree()
    # the reference's inner log needs log_{d-1}(n) > 1
    if d is not None and d >= 3 and g.n >= 3 and math.log(g.n, d - 1) > 1.0:
        ref = _diameter_reference(g.n, d)
        print(f"# reference d={d}: log_{d - 1}(n)+log_{d - 1}(log_{d - 1}(n)) = {ref:.3f}")
    return 0


def _cmd_cycle_probe(args) -> int:
    g = _load_graph(args.infile)
    stats = probe_statistics(g, args.pairs, args.seed)
    _emit(probe_statistics_csv(stats), args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_config(Path(args.config).read_text(encoding="ascii"))
    result = run_experiment(cfg, workers=args.workers)
    for n in sorted(result.aggregates):
        mean, std = result.aggregates[n]
        print(f"n={n} mean={mean!r} std={std!r}")
    print(f"csv: {result.csv_path}")
    print(f"plot: {result.plot_path}")
    if result.skipped:
        print(f"skipped replicates: {len(result.skipped)} (see stderr warnings)")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="regraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random d-regular graph as an edge list")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--max-retries", type=int, default=10_000)
    p.add_argument("--allow-disconnected", action="store_true")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("congestion", help="per-vertex geodesic flow report (CSV)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--oracle", action="store_true", help="exact rational brute force")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_congestion)

    p = sub.add_parser("delta", help="four-point hyperbolicity delta")
    p.add_argument("--in", dest="infile", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("diameter", help="graph diameter, with the regular-graph reference")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_diameter)

    p = sub.add_parser("cycle-probe", help="almost-geodesic cycle probes over sampled pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cycle_probe)

    p = sub.add_parser("experiment", help="run a sweep described by a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RetriesExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

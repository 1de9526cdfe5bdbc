"""Outside-in trace of regraph's layers.

The tracer replaces a layer's public function, in the namespace of the
module that calls it, with a wrapper that records a span: name, start,
end, the index of the enclosing span, and an optional note computed from
the call. Spans stay in memory; layer_metrics reduces them at the end.
Nothing in src/ is edited, so the boundaries are the imports between
modules:

    regraph.experiments   -> every layer the sweep runner calls
    regraph.hyperbolicity -> distance_matrix (exact delta),
                             single_source_distances (sampled delta rows)
    regraph.cycles        -> bfs (probe geodesic),
                             single_source_distances (defect and witness rows)

Self time is a span's duration minus its children's: calls are
synchronous, so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _boundaries(experiments, hyperbolicity, cycles) -> list:
    """(module, attribute, span name, note) for every wrapped call.

    Notes are computed counts: arcs a kernel scans, quadruples an exact
    scan visits, samples drawn, whether a probe found a cycle.
    """
    return [
        (experiments, "run_experiment", "experiments", None),
        (experiments, "random_regular", "generate", None),
        # forward and backward pass over 2m arcs, from each of n sources
        (experiments, "vertex_congestion", "congestion", lambda a, out: (a[0].n, 4 * a[0].m * a[0].n)),
        # one BFS over 2m arcs from each of n sources
        (experiments, "diameter", "paths.diameter", lambda a, out: (a[0].n, 2 * a[0].m * a[0].n)),
        # every anchor pair times the full (x3, x4) plane
        (experiments, "exact_delta", "hyperbolicity.exact", lambda a, out: a[0].n ** 3 * (a[0].n - 1) // 2),
        (experiments, "sampled_delta", "hyperbolicity.sampled", lambda a, out: a[1]),
        (experiments, "find_cycle_through_pair", "cycles.probe", lambda a, out: out is not None),
        (experiments, "witness_quadruple", "cycles.witness", None),
        (hyperbolicity, "distance_matrix", "paths.distance_matrix", None),
        (hyperbolicity, "single_source_distances", "paths.rows", None),
        (cycles, "bfs", "paths.bfs", None),
        (cycles, "single_source_distances", "paths.rows", None),
    ]


class Tracer:
    """Wraps the layer boundaries on enter and restores them on exit."""

    def __init__(self, experiments, hyperbolicity, cycles):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._boundaries = _boundaries(experiments, hyperbolicity, cycles)
        self._saved: list = []

    def __enter__(self) -> Tracer:
        spans = self.spans
        stack: list[int] = []

        def wrap(real, name, note):
            def traced(*args, **kwargs):
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                span[1] = time.perf_counter()
                try:
                    out = real(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                if note is not None:
                    span[4] = note(args, out)
                return out

            return traced

        for module, attr, name, note in self._boundaries:
            real = getattr(module, attr)
            self._saved.append((module, attr, real))
            setattr(module, attr, wrap(real, name, note))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, real in reversed(self._saved):
            setattr(module, attr, real)
        self._saved.clear()


def layer_metrics(spans: list[list], traced: list[float], untraced: list[float],
                  csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics, means per pass unless they are ratios or extremes.

    traced and untraced are the wall times of the same passes with and
    without the trace; csv_bytes is the traced passes' CSV output.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)  # duration by span name
    own = defaultdict(float)  # self time by span name
    calls = defaultdict(int)
    notes = defaultdict(list)
    under = defaultdict(int)  # (name, parent name) -> calls
    gen_times = []
    for i, (name, t0, t1, parent, note) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
        calls[name] += 1
        if note is not None:
            notes[name].append(note)
        if parent >= 0:
            under[name, spans[parent][0]] += 1
        if name == "generate":
            gen_times.append(t1 - t0)

    def ns_per_arc(name: str) -> float:
        arcs = sum(a for _, a in notes[name])
        return total[name] * 1e9 / arcs if arcs else 0.0

    probes = calls["cycles.probe"]
    per = 1.0 / len(traced)
    return {
        "generate.s": total["generate"] * per,
        "generate.graphs": calls["generate"] * per,
        "generate.s_min": min(gen_times, default=0.0),
        "generate.s_max": max(gen_times, default=0.0),
        "congestion.s": total["congestion"] * per,
        "congestion.sources": sum(n for n, _ in notes["congestion"]) * per,
        "congestion.ns_per_arc": ns_per_arc("congestion"),
        "paths.diameter.s": total["paths.diameter"] * per,
        "paths.diameter.sources": sum(n for n, _ in notes["paths.diameter"]) * per,
        "paths.diameter.ns_per_arc": ns_per_arc("paths.diameter"),
        "paths.distance_matrix.s": total["paths.distance_matrix"] * per,
        "paths.rows": calls["paths.rows"] * per,
        "paths.rows.s": total["paths.rows"] * per,
        "paths.bfs.calls": calls["paths.bfs"] * per,
        "paths.bfs.s": total["paths.bfs"] * per,
        "hyperbolicity.exact.self_s": own["hyperbolicity.exact"] * per,
        "hyperbolicity.exact.quadruples": sum(notes["hyperbolicity.exact"]) * per,
        "hyperbolicity.sampled.self_s": own["hyperbolicity.sampled"] * per,
        "hyperbolicity.sampled.samples": sum(notes["hyperbolicity.sampled"]) * per,
        "hyperbolicity.sampled.rows": under["paths.rows", "hyperbolicity.sampled"] * per,
        "cycles.probe.self_s": own["cycles.probe"] * per,
        "cycles.probes": probes * per,
        "cycles.found_ratio": sum(notes["cycles.probe"]) / probes if probes else 0.0,
        "cycles.defect_rows": under["paths.rows", "cycles.probe"] * per,
        "cycles.witness.s": total["cycles.witness"] * per,
        "experiments.self_s": own["experiments"] * per,
        "experiments.csv_bytes": csv_bytes * per,
        "trace.sweep_s": sum(traced) * per,
        "trace.overhead_s": (sum(traced) - sum(untraced)) * per,
        # self times partition the root spans, so this is the share of the
        # traced wall time that the layer metrics above account for
        "trace.accounted_frac": sum(own.values()) / sum(traced),
    }

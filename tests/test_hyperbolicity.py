import itertools
import json
import random

import pytest

from regraph import (
    GenSpec,
    Graph,
    complete_graph,
    cycle_graph,
    diameter,
    distance_matrix,
    exact_delta,
    four_point_defect,
    hyperbolicity_report_json,
    path_graph,
    random_regular,
    sampled_delta,
    triangle_fatness,
)
from regraph.seeding import below, keystream

from _util import gnp_graph, random_tree


def test_defect_zero_on_trees():
    for seed in range(5):
        g = random_tree(20, seed)
        dm = distance_matrix(g)
        rng = random.Random(seed)
        for _ in range(50):
            quad = [rng.randrange(g.n) for _ in range(4)]
            assert four_point_defect(dm, *quad) == 0.0


def test_defect_cycle4():
    dm = distance_matrix(cycle_graph(4))
    assert four_point_defect(dm, 0, 1, 2, 3) == 1.0


def test_defect_repeated_vertex_is_zero():
    dm = distance_matrix(cycle_graph(6))
    assert four_point_defect(dm, 2, 2, 4, 0) == 0.0


def test_defect_disconnected_raises():
    dm = distance_matrix(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="connected"):
        four_point_defect(dm, 0, 1, 2, 3)


def test_defect_permutation_invariant():
    for seed in range(3):
        g = gnp_graph(14, 0.35, seed)
        dm = distance_matrix(g)
        comp = [v for v in range(g.n) if dm[0, v] >= 0]
        rng = random.Random(seed)
        for _ in range(20):
            quad = [comp[rng.randrange(len(comp))] for _ in range(4)]
            base = four_point_defect(dm, *quad)
            for perm in itertools.permutations(quad):
                assert four_point_defect(dm, *perm) == base


def _exhaustive_delta(g):
    dm = distance_matrix(g)
    best = 0.0
    for quad in itertools.combinations(range(g.n), 4):
        val = four_point_defect(dm, *quad)
        if val > best:
            best = val
    return best


def test_exact_delta_reference_values():
    assert exact_delta(path_graph(8)).delta == 0.0
    assert exact_delta(cycle_graph(6)).delta == 1.0
    assert exact_delta(complete_graph(6)).delta == 0.0


def test_exact_delta_matches_exhaustive_scan():
    cases = [cycle_graph(9), gnp_graph(14, 0.3, 2), random_regular(GenSpec(12, 3, seed=4))]
    for g in cases:
        assert exact_delta(g).delta == _exhaustive_delta(g)


def test_exact_delta_witness_replays():
    for g in (cycle_graph(8), gnp_graph(16, 0.3, 2)):
        rep = exact_delta(g)
        dm = distance_matrix(g)
        assert four_point_defect(dm, *rep.witness) == rep.delta


def test_exact_delta_half_integral():
    for seed in range(4):
        g = gnp_graph(15, 0.3, seed + 10)
        if (distance_matrix(g) < 0).any():
            continue
        delta = exact_delta(g).delta
        assert delta >= 0 and (2 * delta) == int(2 * delta)


def test_exact_delta_validation():
    with pytest.raises(ValueError, match="cap"):
        exact_delta(path_graph(10), cap=5)
    with pytest.raises(ValueError, match="connected"):
        exact_delta(Graph(4, [(0, 1), (2, 3)]))


def test_exact_delta_tiny_graphs():
    assert exact_delta(path_graph(3)).delta == 0.0
    assert exact_delta(path_graph(1)).delta == 0.0


def test_delta_at_most_diameter():
    for seed in range(3):
        g = random_regular(GenSpec(16, 3, seed=seed))
        assert exact_delta(g).delta <= diameter(g)


def test_sampled_delta_is_lower_bound():
    for seed in range(6):
        g = random_regular(GenSpec(14 + 2 * seed, 3, seed=seed))
        exact = exact_delta(g).delta
        sampled = sampled_delta(g, 300, seed=seed).delta
        assert sampled <= exact


def test_sampled_delta_tree_is_zero():
    g = random_tree(30, 3)
    assert sampled_delta(g, 500, seed=1).delta == 0.0


def test_sampled_delta_saturates_small_cycle():
    rep = sampled_delta(cycle_graph(6), 10_000, seed=2)
    assert rep.delta == 1.0
    assert rep.samples_used == 10_000
    assert rep.mode == "sampled"


def test_sampled_delta_witness_replays():
    g = random_regular(GenSpec(20, 3, seed=8))
    rep = sampled_delta(g, 400, seed=3)
    dm = distance_matrix(g)
    assert four_point_defect(dm, *rep.witness) == rep.delta


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(11),
        random_tree(37, 4),
        random_regular(GenSpec(20, 3, seed=8)),
        random_regular(GenSpec(64, 3, seed=2)),
    ],
    ids=["cycle", "tree", "rr20", "rr64"],
)
def test_sampled_delta_matches_python_loop(g):
    # 5000 samples: two full chunks of 2048 and a ragged third
    samples, seed = 5000, 17
    dm = distance_matrix(g)
    quads = below(keystream(seed, 0, 4 * samples), g.n).reshape(samples, 4).tolist()
    defects = [four_point_defect(dm, *q) for q in quads]
    best = max(defects)
    rep = sampled_delta(g, samples, seed)
    assert rep.delta == best
    assert rep.witness == tuple(quads[defects.index(best)])


def test_sampled_delta_deterministic():
    g = random_regular(GenSpec(20, 3, seed=8))
    a = sampled_delta(g, 200, seed=5)
    b = sampled_delta(g, 200, seed=5)
    assert (a.delta, a.witness) == (b.delta, b.witness)


def test_sampled_delta_validation():
    with pytest.raises(ValueError, match="connected"):
        sampled_delta(Graph(4, [(0, 1), (2, 3)]), 10, seed=0)
    with pytest.raises(ValueError, match="sample"):
        sampled_delta(path_graph(3), 0, seed=0)


def test_triangle_fatness_tree_is_zero():
    g = random_tree(25, 7)
    rng = random.Random(0)
    for _ in range(10):
        a, b, c = (rng.randrange(g.n) for _ in range(3))
        assert triangle_fatness(g, a, b, c) == 0


def test_triangle_fatness_hexagon():
    assert triangle_fatness(cycle_graph(6), 0, 2, 4) == 1


def test_triangle_fatness_degenerate():
    # corner on the opposite side: sides nest
    assert triangle_fatness(path_graph(5), 0, 4, 2) == 0


def test_triangle_fatness_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        triangle_fatness(g, 0, 1, 2)


def test_report_json_fields():
    rep = exact_delta(cycle_graph(6))
    payload = json.loads(hyperbolicity_report_json(rep, n=6, d=2))
    assert payload["n"] == 6
    assert payload["d"] == 2
    assert payload["mode"] == "exact"
    assert payload["delta"] == 1.0
    assert len(payload["witness"]) == 4

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given

from regraph import (
    GenSpec,
    Graph,
    bfs,
    brute_force_congestion,
    complete_graph,
    congestion_report_csv,
    cycle_graph,
    distance_matrix,
    degree_diameter_bound,
    path_graph,
    random_regular,
    regular_tree,
    congestion_scaling_bound,
    tree_max_congestion,
    vertex_congestion,
)

from _util import KERNEL_SETTINGS, graphs, gnp_graph, random_tree


def test_path3_flows():
    rep = vertex_congestion(path_graph(3))
    assert rep.flows == [2.0, 3.0, 2.0]
    assert rep.max_flow == 3.0 and rep.argmax == 1
    assert rep.total_demand == 3 and rep.unrouted_pairs == 0


def test_cycle4_flows():
    rep = vertex_congestion(cycle_graph(4))
    assert all(abs(f - 3.5) < 1e-12 for f in rep.flows)
    assert rep.max_flow == pytest.approx(3.5)


def test_cycle5_flows():
    rep = vertex_congestion(cycle_graph(5))
    assert all(abs(f - 5.0) < 1e-12 for f in rep.flows)


def test_tree_3_2_max_at_root():
    rep = vertex_congestion(regular_tree(3, 2))
    assert rep.max_flow == pytest.approx(36.0)
    assert rep.argmax == 0


def test_brute_force_matches_fast_on_examples():
    for g in (path_graph(3), cycle_graph(4), complete_graph(4), regular_tree(3, 2)):
        fast = vertex_congestion(g)
        oracle = brute_force_congestion(g)
        assert np.allclose(fast.flows, oracle.flows, atol=1e-9)
        assert fast.argmax == oracle.argmax


def test_brute_force_exact_rationals():
    oracle = brute_force_congestion(cycle_graph(4))
    assert oracle.exact_flows[0] == Fraction(7, 2)
    k4 = brute_force_congestion(complete_graph(4))
    assert k4.flows == [3.0, 3.0, 3.0, 3.0]


def test_brute_force_size_guard():
    with pytest.raises(ValueError, match="capped"):
        brute_force_congestion(path_graph(201))


def test_oracle_equivalence_random_mix():
    cases = []
    for seed in range(5):
        cases.append(gnp_graph(16, 0.25, seed))  # may be disconnected
    for seed, (n, d) in enumerate([(12, 3), (15, 4), (10, 3)]):
        cases.append(random_regular(GenSpec(n, d, seed=seed, require_connected=False)))
    for g in cases:
        fast = vertex_congestion(g)
        oracle = brute_force_congestion(g)
        assert np.allclose(fast.flows, oracle.flows, atol=1e-9)
        assert fast.total_demand == oracle.total_demand
        assert fast.unrouted_pairs == oracle.unrouted_pairs


def _total_flow_identity(g, rep, rel=1e-6):
    # each routed pair contributes (hop length + 1) vertex visits
    dm = distance_matrix(g)
    expected = 0.0
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if dm[s, t] >= 0:
                expected += float(dm[s, t]) + 1.0
    total = sum(rep.flows)
    assert total == pytest.approx(expected, rel=rel)


def test_total_flow_conservation():
    for seed in range(4):
        g = gnp_graph(20, 0.2, seed)
        _total_flow_identity(g, vertex_congestion(g))
    g = random_regular(GenSpec(30, 3, seed=9))
    _total_flow_identity(g, vertex_congestion(g))


def test_total_flow_conservation_exact_on_oracle():
    g = gnp_graph(14, 0.3, 3)
    oracle = brute_force_congestion(g)
    dm = distance_matrix(g)
    expected = Fraction(0)
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if dm[s, t] >= 0:
                expected += int(dm[s, t]) + 1
    assert sum(oracle.exact_flows, Fraction(0)) == expected


def test_endpoint_lower_bound():
    for seed in range(3):
        g = gnp_graph(18, 0.15, seed)
        rep = vertex_congestion(g)
        for v in range(g.n):
            reachable = sum(
                1 for t in range(g.n) if t != v and distance_matrix(g)[v, t] >= 0
            )
            assert rep.flows[v] >= reachable - 1e-9


def test_congestion_bracket_connected():
    for n, d, seed in [(16, 3, 0), (20, 4, 1)]:
        g = random_regular(GenSpec(n, d, seed=seed))
        rep = vertex_congestion(g)
        assert n - 1 - 1e-9 <= rep.max_flow <= n * (n - 1) / 2 + 1e-9


def test_vertex_transitive_families_have_flat_flows():
    for g in (cycle_graph(7), cycle_graph(8), complete_graph(5)):
        rep = vertex_congestion(g)
        assert max(rep.flows) - min(rep.flows) < 1e-9


def test_disconnected_pairs_carry_no_flow():
    g = Graph(4, [(0, 1), (2, 3)])
    rep = vertex_congestion(g)
    assert rep.flows == [1.0, 1.0, 1.0, 1.0]
    assert rep.total_demand == 2
    assert rep.unrouted_pairs == 4


def test_tree_max_congestion_values():
    assert tree_max_congestion(3, 4) == pytest.approx(6.0)  # star = n(n-1)/2
    assert tree_max_congestion(4, 5) == pytest.approx(10.0)
    assert tree_max_congestion(3, 10) == pytest.approx(36.0)


def test_tree_max_congestion_cross_checked_by_oracle():
    g = regular_tree(4, 1)  # star on 5 vertices
    assert brute_force_congestion(g).max_flow == pytest.approx(tree_max_congestion(4, 5))


def test_tree_max_congestion_validation():
    with pytest.raises(ValueError):
        tree_max_congestion(3, 7)  # not a complete 3-regular tree size
    with pytest.raises(ValueError):
        tree_max_congestion(1, 3)
    with pytest.raises(ValueError):
        tree_max_congestion(3, 1)


def test_degree_diameter_bound_values():
    assert degree_diameter_bound(3, 5) == 1800
    assert degree_diameter_bound(2, 4) == 64
    assert degree_diameter_bound(3, 2) == 36
    with pytest.raises(ValueError):
        degree_diameter_bound(1, 5)
    with pytest.raises(ValueError):
        degree_diameter_bound(3, 1)


def test_congestion_scaling_bound_values():
    assert congestion_scaling_bound(1024, 3) == pytest.approx(1_024_000.0, rel=1e-9)
    assert congestion_scaling_bound(100, 3, c_offset=1.0) == pytest.approx(
        3 * congestion_scaling_bound(100, 3), rel=1e-12
    )
    values = [congestion_scaling_bound(n, 6) for n in (10, 100, 1000, 10000)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        congestion_scaling_bound(2, 3)
    with pytest.raises(ValueError):
        congestion_scaling_bound(100, 2)


def _ladder(levels: int, width: int = 2) -> Graph:
    # levels of `width` vertices, complete bipartite between consecutive
    # levels; geodesic counts grow by a factor of width every level
    edges = []
    for i in range(levels - 1):
        for a in range(width * i, width * (i + 1)):
            edges += [(a, b) for b in range(width * (i + 1), width * (i + 2))]
    return Graph(width * levels, edges)


def test_vertex_congestion_survives_sigma_overflow():
    g = _ladder(56)
    rep = vertex_congestion(g)
    # the two rails of each level are interchangeable
    for i in range(g.n // 2):
        assert rep.flows[2 * i] == pytest.approx(rep.flows[2 * i + 1], rel=1e-9)
    _total_flow_identity(g, rep)


def _exact_brandes_flows(g) -> list[Fraction]:
    """Flows by Brandes accumulation over bfs's exact integer counts."""
    flows = [Fraction(0)] * g.n
    for s in range(g.n):
        spd = bfs(g, s)
        dep = [Fraction(0)] * g.n
        for w in reversed(spd.order):
            for v in spd.preds[w]:
                dep[v] += Fraction(spd.sigma[v], spd.sigma[w]) * (1 + dep[w])
        # every other reached vertex: one endpoint unit plus half the
        # dependency, since each unordered pair is routed from both ends
        for v in spd.order[1:]:
            flows[v] += 1 + dep[v] / 2
    return flows


def test_vertex_congestion_matches_exact_rationals_past_2_53():
    g = _ladder(36, width=3)
    assert max(bfs(g, 0).sigma) == 3**34 > 2**53  # odd, so the float count rounds
    exact = _exact_brandes_flows(g)
    rep = vertex_congestion(g)
    for got, want in zip(rep.flows, exact):
        assert abs(Fraction(got) - want) <= want * Fraction(1, 10**12)
    assert rep.max_flow == max(rep.flows) and rep.argmax == exact.index(max(exact))


@KERNEL_SETTINGS
@given(graphs())
@example(Graph(100, random_tree(100, 5).edges[::2]))  # forest, ragged last block
@example(gnp_graph(130, 2.5 / 130, 11))
def test_vertex_congestion_matches_oracle(g):
    fast = vertex_congestion(g)
    oracle = brute_force_congestion(g)
    assert np.allclose(fast.flows, oracle.flows, rtol=0, atol=1e-9)
    assert fast.total_demand == oracle.total_demand
    assert fast.unrouted_pairs == oracle.unrouted_pairs


def test_congestion_report_csv_shape():
    text = congestion_report_csv(vertex_congestion(path_graph(3)))
    lines = text.strip().split("\n")
    assert lines[0] == "vertex,flow"
    assert lines[1] == "0,2.0"
    assert "# max_flow=3.0" in lines
    assert "# argmax=1" in lines
    assert "# total_demand=3" in lines

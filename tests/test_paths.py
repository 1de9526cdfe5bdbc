import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regraph import (
    GenSpec,
    Graph,
    bfs,
    complete_graph,
    cycle_graph,
    diameter,
    distance_matrix,
    extract_one_geodesic,
    path_graph,
    random_regular,
    single_source_distances,
)
from regraph.paths import distance_rows

from _util import KERNEL_SETTINGS, graphs, gnp_graph, random_tree


def test_bfs_cycle4():
    spd = bfs(cycle_graph(4), 0)
    assert spd.dist == [0, 1, 2, 1]
    assert spd.sigma[2] == 2  # two geodesics around the square


def test_bfs_path3():
    spd = bfs(path_graph(3), 0)
    assert spd.dist == [0, 1, 2]
    assert spd.sigma == [1, 1, 1]


def test_bfs_disconnected_sentinels():
    g = Graph(4, [(0, 1), (2, 3)])
    spd = bfs(g, 0)
    assert spd.dist[2] is None and spd.dist[3] is None
    assert spd.sigma[2] == 0 and spd.preds[2] == []


def test_bfs_source_invariants():
    spd = bfs(cycle_graph(5), 2)
    assert spd.dist[2] == 0 and spd.sigma[2] == 1 and spd.preds[2] == []


def test_bfs_source_out_of_range():
    with pytest.raises(ValueError):
        bfs(path_graph(3), 3)


def _check_sigma_recurrence(g):
    for s in range(g.n):
        spd = bfs(g, s)
        for v in range(g.n):
            if v == s or spd.dist[v] is None:
                continue
            assert spd.sigma[v] == sum(spd.sigma[u] for u in spd.preds[v])
            for u in spd.preds[v]:
                assert spd.dist[u] == spd.dist[v] - 1
                assert u in g.neighbors(v)


def test_sigma_recurrence_random_graphs():
    for seed in range(6):
        _check_sigma_recurrence(gnp_graph(18, 0.18, seed))
    _check_sigma_recurrence(random_regular(GenSpec(16, 3, seed=2)))


def test_sigma_is_one_on_trees():
    for seed in range(4):
        g = random_tree(25, seed)
        spd = bfs(g, 0)
        assert all(spd.sigma[v] == 1 for v in range(g.n))


def test_single_source_matches_bfs():
    for seed in range(5):
        g = gnp_graph(22, 0.15, seed)
        for s in (0, g.n // 2):
            spd = bfs(g, s)
            arr = single_source_distances(g, s)
            for v in range(g.n):
                expected = -1 if spd.dist[v] is None else spd.dist[v]
                assert arr[v] == expected


def test_distance_matrix_small_cases():
    dm = distance_matrix(complete_graph(3))
    assert dm.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert distance_matrix(path_graph(4))[0, 3] == 3
    assert distance_matrix(cycle_graph(6))[0, 3] == 3


def test_distance_matrix_properties():
    for seed in range(4):
        g = gnp_graph(20, 0.2, seed)
        dm = distance_matrix(g)
        assert (dm == dm.T).all()
        assert (np.diag(dm) == 0).all()
        finite = dm >= 0
        for a in range(0, g.n, 3):
            for b in range(1, g.n, 4):
                for c in range(2, g.n, 5):
                    if finite[a, b] and finite[b, c] and finite[a, c]:
                        assert dm[a, c] <= dm[a, b] + dm[b, c]


def test_distance_matrix_cap():
    with pytest.raises(ValueError, match="cap"):
        distance_matrix(path_graph(6), cap=5)


def test_diameter_reference_values():
    assert diameter(path_graph(4)) == 3
    assert diameter(complete_graph(5)) == 1
    assert diameter(cycle_graph(8)) == 4
    assert diameter(path_graph(1)) == 0


def test_diameter_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        diameter(Graph(4, [(0, 1), (2, 3)]))


def test_diameter_soft_lower_bound_random_regular():
    # ball-volume argument, with slack: d-regular balls of radius r hold
    # at most 1 + d((d-1)^r - 1)/(d-2) vertices
    for n, d, seed in [(256, 3, 0), (512, 4, 1)]:
        g = random_regular(GenSpec(n, d, seed=seed))
        assert diameter(g) >= math.log(n * (d - 2) / d, d - 1) - 2


def test_extract_one_geodesic():
    assert extract_one_geodesic(bfs(path_graph(3), 0), 2) == [0, 1, 2]
    # smallest-index predecessor rule picks the 0-1-2 side of the square
    assert extract_one_geodesic(bfs(cycle_graph(4), 0), 2) == [0, 1, 2]
    assert extract_one_geodesic(bfs(cycle_graph(4), 0), 0) == [0]


def test_extract_one_geodesic_unreachable():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="unreachable"):
        extract_one_geodesic(bfs(g, 0), 3)


def test_extract_geodesic_is_valid_path():
    for seed in range(4):
        g = gnp_graph(24, 0.2, seed)
        spd = bfs(g, 0)
        for t in range(g.n):
            if spd.dist[t] is None:
                continue
            path = extract_one_geodesic(spd, t)
            assert len(path) == spd.dist[t] + 1
            assert path[0] == 0 and path[-1] == t
            for a, b in zip(path, path[1:]):
                assert b in g.neighbors(a)


def _bfs_matrix(g):
    """All-pairs hop counts from the pure-Python reference, -1 unreachable."""
    rows = [[-1 if d is None else d for d in bfs(g, s).dist] for s in range(g.n)]
    return np.array(rows, dtype=np.int32).reshape(g.n, g.n)


@KERNEL_SETTINGS
@given(graphs())
def test_kernel_source_rows_match_bfs(g):
    ref = _bfs_matrix(g)
    assert np.array_equal(distance_matrix(g), ref)
    assert np.array_equal(single_source_distances(g, g.n - 1), ref[-1])
    if (ref == -1).any():
        with pytest.raises(ValueError, match="disconnected"):
            diameter(g)
    else:
        assert diameter(g) == ref.max()


@KERNEL_SETTINGS
@given(st.data())
def test_kernel_seed_sets_match_min_of_bfs_rows(data):
    g = data.draw(graphs())
    seed_sets = data.draw(
        st.lists(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=5), min_size=1, max_size=64)
    )
    ref = _bfs_matrix(g)
    for row, seeds in zip(distance_rows(g, seed_sets), seed_sets):
        cols = ref[sorted(seeds)]
        reached = cols >= 0
        nearest = np.where(reached, cols, g.n).min(axis=0)
        assert np.array_equal(row, np.where(reached.any(axis=0), nearest, -1))


def test_distance_rows_rejects_bad_blocks():
    g = path_graph(3)
    with pytest.raises(ValueError, match="seed sets"):
        distance_rows(g, [])
    with pytest.raises(ValueError, match="seed sets"):
        distance_rows(g, [(0,)] * 65)
    with pytest.raises(ValueError, match="out of range"):
        distance_rows(g, [(0,), (3,)])

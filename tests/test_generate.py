import hashlib

import pytest

from regraph import (
    GenSpec,
    Graph,
    RetriesExhaustedError,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    random_regular,
    regular_tree,
    write_edge_list,
)


def test_genspec_rejects_odd_half_edge_count():
    with pytest.raises(ValueError, match="odd"):
        GenSpec(5, 3, seed=1)


def test_genspec_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        GenSpec(3, 0, seed=1)
    with pytest.raises(ValueError):
        GenSpec(3, 3, seed=1)


def test_random_regular_basic_contract():
    g = random_regular(GenSpec(10, 3, seed=7))
    assert g.m == 15
    assert all(g.degree(v) == 3 for v in range(10))
    assert is_connected(g)


@pytest.mark.parametrize(
    "n, d, seed, digest", [(24, 3, 123, "2d5fdf91f410b75d"), (40, 4, 9, "1cf4bfb6d0a21290")]
)
def test_random_regular_stream_is_frozen(n, d, seed, digest):
    # seeds are experiment provenance: the edge list of a seed never changes
    text = write_edge_list(random_regular(GenSpec(n, d, seed)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_random_regular_deterministic():
    a = random_regular(GenSpec(24, 3, seed=123))
    b = random_regular(GenSpec(24, 3, seed=123))
    assert a == b
    c = random_regular(GenSpec(24, 3, seed=124))
    assert a != c


def test_random_regular_n4_d3_is_k4():
    # the only simple 3-regular graph on 4 vertices
    for seed in range(10):
        assert random_regular(GenSpec(4, 3, seed=seed)) == complete_graph(4)


def test_random_regular_various_degrees():
    for n, d, seed in [(12, 4, 0), (14, 5, 1), (20, 6, 2), (9, 2, 3)]:
        g = random_regular(GenSpec(n, d, seed=seed, require_connected=False))
        assert all(g.degree(v) == d for v in range(n))


def test_random_regular_connectivity_rejection_exhausts():
    # d=1 gives a perfect matching, disconnected whenever n >= 4
    with pytest.raises(RetriesExhaustedError):
        random_regular(GenSpec(4, 1, seed=5, max_retries=64))
    g = random_regular(GenSpec(4, 1, seed=5, require_connected=False))
    assert g.m == 2 and all(g.degree(v) == 1 for v in range(4))


def test_regular_tree_star():
    g = regular_tree(3, 1)
    assert g.n == 4
    assert sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert g.degree(0) == 3


def test_regular_tree_counts_match_closed_form():
    for k in (3, 4, 5):
        for depth in (1, 2, 3):
            g = regular_tree(k, depth)
            expected = 1 + k * ((k - 1) ** depth - 1) // (k - 2)
            assert g.n == expected
            assert g.m == g.n - 1
            assert is_connected(g)
            assert g.degree(0) == k
            interior = [v for v in range(g.n) if g.degree(v) not in (1, k)]
            assert interior == []


def test_regular_tree_k3_depth2():
    assert regular_tree(3, 2).n == 10


def test_regular_tree_k2_is_path():
    g = regular_tree(2, 3)
    assert g.n == 7
    assert sorted(g.degree(v) for v in range(7)) == [1, 1, 2, 2, 2, 2, 2]


def test_regular_tree_validation():
    with pytest.raises(ValueError):
        regular_tree(1, 2)
    with pytest.raises(ValueError):
        regular_tree(3, 0)


def test_reference_families():
    c = cycle_graph(4)
    assert c.m == 4 and all(c.degree(v) == 2 for v in range(4))
    assert complete_graph(4).m == 6
    p1 = path_graph(1)
    assert p1.n == 1 and p1.m == 0
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        complete_graph(0)


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1, []))
    assert is_connected(Graph(0, []))


def test_rejection_rate_stays_workable():
    # sanity: d=3 pairing acceptance is around e^-2; a small budget suffices
    g = random_regular(GenSpec(100, 3, seed=11, max_retries=500))
    assert all(g.degree(v) == 3 for v in range(100))

import random

import pytest

from regraph import (
    GenSpec,
    Graph,
    complete_graph,
    cycle_defect,
    cycle_graph,
    exact_delta,
    find_cycle_through_pair,
    path_graph,
    probe_statistics,
    probe_statistics_csv,
    random_regular,
    single_source_distances,
    witness_quadruple,
)
from regraph.cycles import sample_pairs

from _util import random_tree


def test_probe_on_cycle_graph_recovers_it():
    probe = find_cycle_through_pair(cycle_graph(8), 0, 4)
    assert probe.cycle == list(range(8))
    assert probe.length == 8
    assert probe.defect == 0
    assert probe.pair == (0, 4)


def test_probe_on_tree_finds_nothing():
    assert find_cycle_through_pair(path_graph(5), 0, 4) is None
    g = random_tree(20, 1)
    assert find_cycle_through_pair(g, 3, 17) is None


def test_probe_adjacent_pair_in_clique():
    probe = find_cycle_through_pair(complete_graph(4), 0, 1)
    assert probe.length == 3
    assert probe.defect == 0
    assert probe.cycle == [0, 1, 2]  # smallest-index detour


def test_probe_validation():
    with pytest.raises(ValueError, match="distinct"):
        find_cycle_through_pair(cycle_graph(5), 2, 2)
    with pytest.raises(ValueError, match="connected"):
        find_cycle_through_pair(Graph(4, [(0, 1), (2, 3)]), 0, 3)


def _probe_cycle_is_simple(g, probe):
    cyc = probe.cycle
    assert len(set(cyc)) == len(cyc) >= 3
    for i, u in enumerate(cyc):
        assert cyc[(i + 1) % len(cyc)] in g.neighbors(u)


def test_probe_cycles_are_valid_on_random_regular():
    g = random_regular(GenSpec(64, 3, seed=13))
    rng = random.Random(0)
    found = 0
    for _ in range(30):
        v = rng.randrange(64)
        w = rng.randrange(64)
        if v == w:
            continue
        probe = find_cycle_through_pair(g, v, w)
        if probe is None:
            continue
        found += 1
        _probe_cycle_is_simple(g, probe)
        assert probe.defect >= 0
    assert found > 0


def test_cycle_defect_isometric_cycle():
    assert cycle_defect(cycle_graph(9), list(range(9))) == 0


def test_cycle_defect_square_in_clique():
    assert cycle_defect(complete_graph(4), [0, 1, 2, 3]) == 1


def test_cycle_defect_chorded_hexagon():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    assert cycle_defect(g, [0, 1, 2, 3, 4, 5]) == 2
    # a 150-cycle spans three 64-row blocks; the chord 100-140 cuts arc
    # distance 40 to 1, and no row of the first block sees that gap
    g = Graph(150, [(i, (i + 1) % 150) for i in range(150)] + [(100, 140)])
    assert cycle_defect(g, list(range(150))) == 39


def test_cycle_defect_validation():
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="repeats"):
        cycle_defect(g, [0, 1, 2, 1])
    with pytest.raises(ValueError, match="not an edge"):
        cycle_defect(g, [0, 1, 2, 4])
    with pytest.raises(ValueError, match="at least 3"):
        cycle_defect(g, [0, 1])


def test_witness_quadruple_on_even_cycles():
    probe8 = find_cycle_through_pair(cycle_graph(8), 0, 4)
    quad, defect = witness_quadruple(cycle_graph(8), probe8)
    assert quad == (0, 2, 4, 6)
    assert defect == 2.0
    assert probe8.quadruple_defect == 2.0

    probe12 = find_cycle_through_pair(cycle_graph(12), 0, 6)
    assert witness_quadruple(cycle_graph(12), probe12)[1] == 3.0


def test_witness_quadruple_collapses_in_clique():
    g = complete_graph(4)
    probe = find_cycle_through_pair(g, 0, 2)
    if probe is not None and probe.length >= 4:
        assert witness_quadruple(g, probe)[1] == 0.0


def test_witness_quadruple_too_short():
    probe = find_cycle_through_pair(complete_graph(4), 0, 1)
    with pytest.raises(ValueError, match="too short"):
        witness_quadruple(complete_graph(4), probe)


def test_witness_never_exceeds_exact_delta():
    for seed in range(4):
        g = random_regular(GenSpec(40, 3, seed=seed))
        delta = exact_delta(g).delta
        rng = random.Random(seed)
        for _ in range(10):
            v = rng.randrange(40)
            w = rng.randrange(40)
            if v == w:
                continue
            probe = find_cycle_through_pair(g, v, w)
            if probe is None or probe.length < 4:
                continue
            _, qd = witness_quadruple(g, probe)
            assert qd <= delta + 1e-12


def test_distance_chain_holds_on_probes():
    g = random_regular(GenSpec(128, 3, seed=5))
    rng = random.Random(2)
    checked = 0
    for _ in range(25):
        v = rng.randrange(128)
        w = rng.randrange(128)
        if v == w:
            continue
        probe = find_cycle_through_pair(g, v, w)
        if probe is None or probe.length < 4:
            continue
        length = probe.length
        pos = (0, length // 4, length // 2, (3 * length) // 4)
        verts = [probe.cycle[p] for p in pos]
        rows = {x: single_source_distances(g, x) for x in verts}
        for i in range(4):
            for j in range(i + 1, 4):
                arc = abs(pos[j] - pos[i])
                d_c = min(arc, length - arc)
                d_g = int(rows[verts[i]][verts[j]])
                assert d_c - probe.defect <= d_g <= d_c
        checked += 1
    assert checked > 0


def test_probe_statistics_cycle_graph():
    stats = probe_statistics(cycle_graph(64), 25, seed=3)
    assert stats.found_fraction == 1.0
    assert stats.defect_min == stats.defect_max == 0
    assert stats.length_min == stats.length_max == 64


def test_probe_statistics_tree():
    stats = probe_statistics(random_tree(40, 2), 20, seed=4)
    assert stats.found_fraction == 0.0
    assert stats.length_median is None


def test_probe_statistics_regular_reference_scales():
    g = random_regular(GenSpec(64, 3, seed=21))
    stats = probe_statistics(g, 10, seed=0)
    assert stats.ref_log == pytest.approx(6.0)  # log2(64)
    assert stats.ref_loglog == pytest.approx(2.584962500721156)


def test_probe_statistics_csv_layout():
    stats = probe_statistics(cycle_graph(16), 5, seed=1)
    text = probe_statistics_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == "v,w,found,length,defect,quadruple_defect"
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 6  # header + one row per probed pair
    assert any(ln.startswith("# found_fraction=") for ln in lines)


def test_probe_statistics_validation():
    with pytest.raises(ValueError, match="connected"):
        probe_statistics(Graph(4, [(0, 1), (2, 3)]), 5, seed=0)
    with pytest.raises(ValueError, match="pair sample"):
        probe_statistics(cycle_graph(5), 0, seed=0)


def test_sample_pairs_distinct_deterministic_and_covering():
    assert sample_pairs(50, 200, seed=7) == sample_pairs(50, 200, seed=7)
    assert sample_pairs(50, 200, seed=7) != sample_pairs(50, 200, seed=8)
    for n in (2, 3, 10):
        pairs = sample_pairs(n, 600, seed=n)
        assert len(pairs) == 600
        assert all(0 <= v < n and 0 <= w < n and v != w for v, w in pairs)
    # uniform over ordered pairs: at n=3 all six appear
    assert set(sample_pairs(3, 600, seed=1)) == {
        (v, w) for v in range(3) for w in range(3) if v != w
    }
    with pytest.raises(ValueError, match="two vertices"):
        sample_pairs(1, 5, seed=0)

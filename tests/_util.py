"""Shared graph builders for the test suite."""

import random

from hypothesis import settings, strategies as st

from regraph import GenSpec, Graph, random_regular


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style random graph; may be disconnected."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random attachment tree on n vertices."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def small_regular(n: int, d: int, seed: int, connected: bool = False) -> Graph:
    return random_regular(GenSpec(n, d, seed=seed, require_connected=connected))


@st.composite
def graphs(draw):
    """Trees, forests and sparse gnp graphs on 1..150 vertices: uneven
    degrees exercise the padding, forests and gnp the unreachable rows,
    and n above 64 the block boundaries."""
    n = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("tree", "forest", "gnp")))
    if kind == "gnp":
        return gnp_graph(n, draw(st.floats(0.0, 4.0)) / n, seed)
    tree = random_tree(n, seed)
    return tree if kind == "tree" else Graph(n, tree.edges[::2])


KERNEL_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

"""Hopcroft–Karp vs networkx (property-based cross-check)."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.offline import hopcroft_karp


def nx_matching_size(adjacency) -> int:
    g = nx.Graph()
    left = [("L", u) for u in adjacency]
    g.add_nodes_from(left, bipartite=0)
    for u, nbrs in adjacency.items():
        for v in nbrs:
            g.add_node(("R", v), bipartite=1)
            g.add_edge(("L", u), ("R", v))
    if g.number_of_edges() == 0:
        return 0
    match = nx.bipartite.maximum_matching(g, top_nodes=left)
    return len(match) // 2


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(0, 12))
    n_right = draw(st.integers(1, 12))
    adjacency = {}
    for u in range(n_left):
        nbrs = draw(st.lists(st.integers(0, n_right - 1), max_size=6, unique=True))
        adjacency[u] = nbrs
    return adjacency


class TestHopcroftKarp:
    def test_simple_perfect(self):
        adj = {0: [10, 11], 1: [10], 2: [11, 12]}
        match = hopcroft_karp(adj)
        assert len(match) == 3
        assert len(set(match.values())) == 3

    def test_bottleneck(self):
        adj = {0: [10], 1: [10], 2: [10]}
        assert len(hopcroft_karp(adj)) == 1

    def test_empty(self):
        assert hopcroft_karp({}) == {}
        assert hopcroft_karp({0: []}) == {}

    def test_matching_is_consistent(self):
        adj = {0: [10, 11], 1: [11, 12], 2: [12, 10]}
        match = hopcroft_karp(adj)
        for u, v in match.items():
            assert v in adj[u]
        assert len(set(match.values())) == len(match)

    def test_augmenting_path_needed(self):
        """Greedy would match 0-10, leaving 1 unmatched; HK must find
        the augmenting path 1-10-0-11."""
        adj = {0: [10, 11], 1: [10]}
        assert len(hopcroft_karp(adj)) == 2

    @given(bipartite_graphs())
    @settings(max_examples=120, deadline=None)
    def test_size_matches_networkx(self, adjacency):
        ours = len(hopcroft_karp(adjacency))
        theirs = nx_matching_size(adjacency)
        assert ours == theirs

    @given(bipartite_graphs())
    @settings(max_examples=60, deadline=None)
    def test_valid_matching_on_random(self, adjacency):
        match = hopcroft_karp(adjacency)
        for u, v in match.items():
            assert v in adjacency[u]
        assert len(set(match.values())) == len(match)

"""Randomised checks of the shared diameter routine and the merged-subgraph
builder against the brute-force oracles.

Examples are derandomised so that every run of the suite tries the same
inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshort.audit import _merged_subgraph, measure_dilation
from treeshort.graph import INFINITE, Graph, GraphError, Partition, bfs_tree, diameter
from treeshort.sim import AggregationError, _part_tree

import oracles

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def graphs(draw, connected=False, max_n=9):
    """Simple graphs; trees plus extra edges when `connected`, else any edge set."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set()
    if connected:
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph(n, sorted(edges))


@st.composite
def merged_instances(draw):
    """A connected graph, one node subset as the part, and a tree-edge set as H."""
    g = draw(graphs(connected=True))
    tree = bfs_tree(g, 0)
    part = draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    h = draw(st.sets(st.sampled_from(sorted(tree.tree_edges)))) if g.n > 1 else set()
    return g, sorted(part), frozenset(h)


def merged_edges(g, part, h):
    """Node set and edge list of G[P]+H, straight from the definition."""
    inside = set(part)
    edges = [g.edges[e] for e in h]
    edges += [
        (u, v)
        for eid, (u, v) in enumerate(g.edges)
        if u in inside and v in inside and eid not in h
    ]
    return inside | {x for e in h for x in g.edges[e]}, edges


def merged_oracle(g, part, h):
    """Diameter of G[P]+H by the all-pairs oracle; None when disconnected."""
    nodes, edges = merged_edges(g, part, h)
    return oracles.induced_diameter(g.n, edges, nodes)


@SETTINGS
@given(graphs())
def test_diameter_matches_all_pairs_oracle(g):
    reached = oracles.bfs_dist(oracles.adjacency(g.n, g.edges), 0)
    if len(reached) == g.n:
        assert diameter(g) == oracles.all_pairs_diameter(g.n, g.edges)
    else:
        first = min(set(range(g.n)) - set(reached))
        with pytest.raises(GraphError, match=f"node {first} unreachable from 0$"):
            diameter(g)


@SETTINGS
@given(graphs(connected=True, max_n=14))
def test_diameter_of_spanning_tree_matches_oracle(g):
    # the BFS tree as a graph of its own takes the double-BFS path
    t = bfs_tree(g, 0)
    tree_graph = Graph(g.n, [g.edges[e] for e in sorted(t.tree_edges)])
    assert diameter(tree_graph) == oracles.all_pairs_diameter(tree_graph.n, tree_graph.edges)


@SETTINGS
@given(merged_instances())
def test_dilation_matches_merged_subgraph_oracle(inst):
    g, part, h = inst
    want = merged_oracle(g, part, h)
    got = measure_dilation(g, Partition(g.n, [part]), {0: h})
    assert got == (INFINITE if want is None else want)


@SETTINGS
@given(graphs(connected=True), st.data())
def test_induced_diameter_matches_oracle(g, data):
    part = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    want = oracles.induced_diameter(g.n, g.edges, part)
    got = measure_dilation(g, Partition(g.n, [part]), {0: set()})
    assert got == (INFINITE if want is None else want)


@SETTINGS
@given(merged_instances())
def test_merged_subgraph_matches_definition(inst):
    g, part, h = inst
    want_nodes, want_edges = merged_edges(g, part, h)
    nodes, adj = _merged_subgraph(g, part, h)
    assert set(nodes) == set(adj) == want_nodes
    assert sum(len(nbrs) for nbrs in adj.values()) == 2 * len(want_edges)
    assert {(min(u, v), max(u, v)) for u in adj for v in adj[u]} == set(want_edges)


@SETTINGS
@given(merged_instances())
def test_part_tree_spans_part_inside_merged_subgraph(inst):
    g, part, h = inst
    if merged_oracle(g, part, h) is None:
        with pytest.raises(AggregationError, match="part 5 is disconnected"):
            _part_tree(g, part, h, 5)
        return
    nodes, edges = merged_edges(g, part, h)
    parent, children, live = _part_tree(g, part, h, 5)
    root = min(part)
    assert set(part) <= live <= nodes
    assert parent[root] is None
    for v in live - {root}:
        pv = parent[v]
        assert pv in live
        assert (min(pv, v), max(pv, v)) in edges
        assert v in children[pv]
    # every live node's parent chain ends at the root
    for v in live:
        steps = 0
        while parent[v] is not None:
            v = parent[v]
            steps += 1
            assert steps <= len(live)
        assert v == root

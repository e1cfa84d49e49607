"""Randomised checks of the shared diameter routine, the merged-subgraph
builder and the audit's block count against the brute-force oracles.

Examples are derandomised so that every run of the suite tries the same
inputs.  The diameter routine prunes sources by eccentricity bounds, so some
inputs are large enough (n up to 40, a 12x12 grid) for the pruning to engage,
and a BFS-count guard catches a return to one BFS per node.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshort.graph
from treeshort.audit import _merged_subgraph, audit_shortcut
from treeshort.generators import (
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_parts_random,
    gen_wheel,
)
from treeshort.graph import INFINITE, Graph, GraphError, bfs_tree, diameter
from treeshort.sim import AggregationError, _part_tree

import oracles
from conftest import merged_diameter

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
def sized_graphs(draw):
    """Connected graphs with n up to 40, from trees to dense, labels shuffled."""
    n = draw(st.integers(2, 40))
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    label = list(range(n))
    rng.shuffle(label)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    return Graph(n, sorted((label[u], label[v]) for u, v in edges))


def all_ancestor_shortcut(tree, p):
    """H_i = every tree edge between a node of P_i and the root."""
    edge_sets = []
    for part in p.parts:
        edges = set()
        for v in part:
            while v != tree.root:
                edges.add(tree.parent_edge[v])
                v = tree.parent[v]
        edge_sets.append(frozenset(edges))
    return edge_sets


def cycle_edges(n):
    return [(v, (v + 1) % n) for v in range(n)]


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
@given(sized_graphs())
def test_diameter_matches_oracle_up_to_40_nodes(g):
    assert diameter(g) == oracles.all_pairs_diameter(g.n, g.edges)


@pytest.mark.parametrize(
    "g",
    [
        Graph(12, cycle_edges(12)),
        Graph(13, cycle_edges(13)),
        Graph(4, cycle_edges(4)),
        Graph(3, cycle_edges(3)),
        # a cycle with a pendant path: the far end of the path sets the diameter
        Graph(17, cycle_edges(10) + [(0, 10)] + [(v, v + 1) for v in range(10, 16)]),
        # the same with the path hung from a node other than the first source
        Graph(17, cycle_edges(10) + [(5, 10)] + [(v, v + 1) for v in range(10, 16)]),
        gen_grid(7, 5),
        gen_grid(1, 9),
        gen_wheel(4),
        gen_wheel(11),
        Graph(7, [(a, b) for a in range(3) for b in range(3, 7)]),  # K_{3,4}
        Graph(2, [(0, 1)]),
        gen_lower_bound(5, 12).graph,
    ],
    ids=[
        "cycle12", "cycle13", "cycle4", "cycle3", "cycle-pendant-at-0",
        "cycle-pendant-at-5", "grid7x5", "grid1x9", "wheel4", "wheel11", "K3x4",
        "K2", "lowerbound-5-12",
    ],
)
def test_diameter_on_tight_and_tied_families(g):
    assert diameter(g) == oracles.all_pairs_diameter(g.n, g.edges)


@pytest.mark.parametrize("seed, k", [(1, 6), (2, 20), (3, 40), (4, 72)])
def test_dilation_of_all_ancestor_merged_subgraphs_on_grid(seed, k):
    # cyclic merged subgraphs carrying pendant ancestor paths, as in the benchmark
    g = gen_grid(12, 12)
    tree = bfs_tree(g, 0)
    p = gen_parts_random(g, k, seed)
    shortcut = all_ancestor_shortcut(tree, p)
    want = [merged_oracle(g, p.parts[i], shortcut[i]) for i in range(k)]
    for i in range(k):
        assert merged_diameter(g, p.parts[i], shortcut[i]) == want[i]
    report = audit_shortcut(g, tree, p, shortcut)
    assert [q.dilation for q in report.per_part] == want
    dilation = max(merged_diameter(g, p.parts[i], shortcut[i]) for i in range(k))
    assert dilation == report.dilation == max(want)


@pytest.fixture
def bfs_calls(monkeypatch):
    """Count the BFS runs of the shared diameter routine."""
    calls = []
    bfs = treeshort.graph._bfs_far

    def counting(adj, source):
        calls.append(source)
        return bfs(adj, source)

    monkeypatch.setattr(treeshort.graph, "_bfs_far", counting)
    return calls


def test_grid_diameter_needs_few_bfs(bfs_calls):
    assert diameter(gen_grid(32, 32)) == 62
    assert len(bfs_calls) <= 10  # one BFS per node would be 1,024


def test_audit_runs_far_fewer_bfs_than_merged_nodes(bfs_calls):
    g = gen_grid(32, 32)
    tree = bfs_tree(g, 0)
    p = gen_parts_random(g, 200, 1)
    shortcut = all_ancestor_shortcut(tree, p)
    merged_nodes = sum(len(_merged_subgraph(g, p.parts[i], shortcut[i])[0]) for i in range(p.k))
    audit_shortcut(g, tree, p, shortcut)
    assert len(bfs_calls) <= merged_nodes / 4


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
    got = merged_diameter(g, part, h)
    assert got == (INFINITE if want is None else want)


@SETTINGS
@given(graphs(connected=True), st.data())
def test_induced_diameter_matches_oracle(g, data):
    part = sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    want = oracles.induced_diameter(g.n, g.edges, part)
    got = merged_diameter(g, part, set())
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


@st.composite
def tree_restricted_instances(draw):
    """A random tree, k-tree or grid with random parts, and per part a random
    set of BFS-tree edges as H_i, sparse to nearly all of them."""
    family = draw(st.sampled_from(["tree", "ktree", "grid"]))
    seed = draw(st.integers(0, 2**32))
    if family == "tree":
        g = gen_ktree(draw(st.integers(2, 40)), 1, seed)  # a 1-tree is a tree
    elif family == "ktree":
        g = gen_ktree(draw(st.integers(4, 60)), draw(st.integers(2, 3)), seed)
    else:
        g = gen_grid(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    tree = bfs_tree(g, 0)
    p = gen_parts_random(g, draw(st.integers(1, min(g.n, 12))), seed)
    share = draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
    rng = random.Random(seed)
    tree_edges = sorted(tree.tree_edges)
    shortcut = [frozenset(e for e in tree_edges if rng.random() < share) for _ in p.parts]
    return g, tree, p, shortcut


@SETTINGS
@given(tree_restricted_instances())
def test_blocks_match_forest_component_oracle(inst):
    g, tree, p, shortcut = inst
    report = audit_shortcut(g, tree, p, shortcut)
    for i, q in enumerate(report.per_part):
        h_edges = [g.edges[e] for e in shortcut[i]]
        nodes = set(p.parts[i]) | {x for e in h_edges for x in e}
        labels = oracles.component_labels(g.n, h_edges)
        assert q.blocks == len({labels[v] for v in nodes})
    assert report.blocks == max(q.blocks for q in report.per_part)
    non_tree = sorted(set(range(g.m)) - tree.tree_edges)
    if non_tree:
        bad = list(shortcut)
        bad[-1] = shortcut[-1] | {non_tree[0]}
        message = f"^edge {non_tree[0]} is not a tree edge; shortcut is not tree-restricted$"
        with pytest.raises(GraphError, match=message):
            audit_shortcut(g, tree, p, bad)

"""Randomised checks of the shared diameter routine, the merged-subgraph
builder, the aggregation part tree, the audit's block count, the case-I edge
sets and the connectivity check of both validators against the brute-force
oracles, of the simulator's message-size accounting against its
element-wise definition, and of the order in which an aggregating node
sends.

Examples are derandomised so that every run of the suite tries the same
inputs.  The diameter routine peels pendant trees and contracts degree-2
chains, then maximises closed forms over the kernel that is left, or runs
bound-pruned BFS when that kernel is dense; so the inputs include trees,
cycles, chains of unequal length between and around kernel nodes, pendant
paths, graphs large enough (n up to 40, a 12x12 grid) for the BFS
pruning to engage, and k-trees and Hamiltonian cycles with random chords,
dense graphs of small diameter on which the pruning stalls and a
bit-parallel sweep finishes it.  Sweep-count guards catch a return to one
BFS per node, a stall that the finisher does not cut short (more than 2*D
BFS runs or a second finisher call), and audits that stop taking the
kernel route.
"""

import contextlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshort.graph
from treeshort.audit import _merged_subgraph, audit_shortcut, validate_minor
from treeshort.engine import (
    EngineConfig,
    MinorCertificate,
    MinorNode,
    case_one_partial,
    construct_full,
    mark_overcongested,
)
from treeshort.generators import (
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_parts_random,
    gen_wheel,
)
from treeshort.graph import (
    INFINITE,
    Graph,
    GraphError,
    Partition,
    bfs_tree,
    diameter,
    validate_partition,
)
from treeshort.sim import (
    AggregationTask,
    SimConfig,
    SimError,
    _part_tree,
    int_bits,
    partwise_aggregate,
    payload_bits,
)

import oracles
from conftest import build_fan, merged_diameter

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


@st.composite
def ktrees(draw):
    """Random k-trees with k from 2 to 5 and n up to 150: dense graphs of
    small diameter, where bound-pruned BFS stalls."""
    k = draw(st.integers(2, 5))
    return gen_ktree(draw(st.integers(k + 1, 150)), k, draw(st.integers(0, 2**32)))


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
    assert_diameter_within_sweep_bound(g)


def path_edges(nodes):
    return list(zip(nodes, nodes[1:]))


def chains_graph(chains, kernel=2, pendants=()):
    """`kernel` nodes joined by chains (a, b, L) of L edges (a == b for a
    loop), then pendant paths (v, length) hung at existing nodes."""
    n, edges = kernel, []
    for a, b, length in chains:
        edges += path_edges([a, *range(n, n + length - 1), b])
        n += length - 1
    for v, length in pendants:
        edges += path_edges([v, *range(n, n + length)])
        n += length
    return Graph(n, edges)


def clique_edges(nodes):
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]


def subdivided_grid(a, b, times):
    g = gen_grid(a, b)
    return chains_graph([(u, v, times + 1) for u, v in g.edges], kernel=g.n)


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
        chains_graph([(0, 0, 9)], kernel=1),
        chains_graph([(0, 0, 4)], kernel=1, pendants=[(0, 6)]),
        chains_graph([(0, 1, 2), (0, 1, 5), (0, 1, 9)]),
        chains_graph([(0, 1, 1), (0, 1, 4), (0, 1, 4)]),
        chains_graph([(0, 1, 3), (0, 1, 3), (0, 1, 8), (0, 1, 2)]),
        chains_graph([(0, 1, 2), (0, 1, 7)], pendants=[(1, 3), (0, 1)]),
        chains_graph([(0, 0, 5), (0, 0, 8)], kernel=1),
        chains_graph([(0, 0, 3), (0, 0, 11)], kernel=1),
        chains_graph([(0, 0, 6), (0, 0, 7), (0, 0, 4)], kernel=1),
        chains_graph([(0, 0, 5), (0, 0, 8)], kernel=1, pendants=[(0, 2)]),
        # the trimmed-shortcut shape: a pendant path hung at a chain interior
        chains_graph([(0, 1, 5), (1, 0, 9)], pendants=[(6, 4)]),
        chains_graph([(0, 0, 12)], kernel=1, pendants=[(5, 3), (9, 2)]),
        chains_graph([(0, 1, 4), (1, 2, 6), (2, 0, 5), (0, 3, 3), (3, 3, 7)], kernel=4),
        # a chain pair whose farthest points sit next to the second breakpoint
        chains_graph([(2, 1, 1), (2, 0, 3), (2, 0, 2), (1, 0, 4), (1, 2, 6)], kernel=3),
        # one tall pendant path: h[a] + h[a] is no distance
        chains_graph([(0, 1, 1), (0, 1, 2), (0, 1, 2)], pendants=[(0, 8)]),
        Graph(8, clique_edges(range(5)) + path_edges(range(4, 8))),  # lollipop
        Graph(13, clique_edges(range(4)) + path_edges(range(3, 9)) + clique_edges(range(8, 13))),
        Graph(10, clique_edges(range(3)) + path_edges(range(2, 5)) + clique_edges(range(4, 7))
              + path_edges(range(6, 10))),
        subdivided_grid(3, 3, 1),
        subdivided_grid(4, 3, 2),
        subdivided_grid(2, 5, 3),
        subdivided_grid(1, 4, 2),
        chains_graph([], kernel=1, pendants=[(0, 5), (0, 3), (2, 4), (7, 2)]),  # a tree
        gen_ktree(30, 1, 7),
        Graph(1, []),
    ],
    ids=[
        "cycle12", "cycle13", "cycle4", "cycle3", "cycle-pendant-at-0",
        "cycle-pendant-at-5", "grid7x5", "grid1x9", "wheel4", "wheel11", "K3x4",
        "K2", "lowerbound-5-12",
        "cycle9", "cycle4-pendant6", "theta-2-5-9", "theta-1-4-4", "theta-3-3-8-2",
        "theta-pendants", "loops-5-8", "loops-3-11", "loops-6-7-4", "loops-pendant",
        "cycle-chain-pendant", "cycle12-two-pendants", "kernel4-with-loop",
        "kernel3-second-breakpoint", "theta-tall-pendant", "lollipop",
        "barbell", "barbell-tail", "subgrid3x3x1", "subgrid4x3x2", "subgrid2x5x3",
        "subgrid1x4x2", "spider", "tree30", "K1",
    ],
)
def test_diameter_on_tight_and_tied_families(g):
    assert diameter(g) == oracles.all_pairs_diameter(g.n, g.edges)


@st.composite
def subdivided_multigraphs(draw):
    """A multigraph on up to six nodes, loops and parallel edges allowed,
    every edge subdivided 0-6 times (a loop at least twice, and all but one
    of a set of parallel edges at least once, so the result is simple),
    plus random pendant trees; labels shuffled, possibly disconnected."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, 6))
    n, edges, direct = k, [], set()
    for _ in range(draw(st.integers(0, 9))):
        a, b = rng.randrange(k), rng.randrange(k)
        times = rng.randint(0, 6)
        if a == b:
            times = max(times, 2)
        elif times == 0 and (min(a, b), max(a, b)) in direct:
            times = 1
        if times == 0:
            direct.add((min(a, b), max(a, b)))
        edges += path_edges([a, *range(n, n + times), b])
        n += times
    for _ in range(draw(st.integers(0, 8))):
        edges.append((rng.randrange(n), n))
        n += 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@SETTINGS
@given(subdivided_multigraphs())
def test_diameter_of_subdivided_multigraphs_matches_oracle(g):
    want = oracles.induced_diameter(g.n, g.edges, range(g.n))
    assert merged_diameter(g, range(g.n), ()) == (INFINITE if want is None else want)


@pytest.mark.parametrize(
    "g",
    [
        Graph(9, path_edges([0, 1, 2, 3]) + path_edges([4, 5, 6, 7, 4, 8])),
        Graph(7, path_edges([0, 1, 2]) + path_edges([3, 4, 5, 6])),
        Graph(8, path_edges([0, 1, 2, 0]) + path_edges([3, 4, 5, 6, 7, 3])),
        Graph(10, path_edges([0, 1, 2, 3, 0, 4]) + path_edges([5, 6, 7, 8, 9, 5])),
        Graph(9, path_edges([0, 1, 2, 0, 3, 4, 0]) + path_edges([5, 6, 7, 5, 8])),
        Graph(5, path_edges([1, 2, 3, 4, 1])),
        Graph(2, []),
        Graph(8, [(a + o, b + o) for o in (0, 4) for a in range(4) for b in range(a + 1, 4)]),
    ],
    ids=[
        "tree-and-cycle", "two-trees", "two-cycles", "kernel-and-bare-cycle",
        "two-kernels", "node-and-cycle", "two-nodes", "two-dense-kernels",
    ],
)
def test_disconnected_graphs_are_infinite(g):
    assert oracles.induced_diameter(g.n, g.edges, range(g.n)) is None
    assert merged_diameter(g, range(g.n), ()) == INFINITE


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


@contextlib.contextmanager
def counted_sweeps():
    """Record the sweeps of the shared diameter routine inside the block: the
    source of each BFS run in `runs`, the candidate count of each finisher
    call in `finishers`.  Hypothesis tests use it directly, as hypothesis
    rejects function-scoped fixtures such as `bfs_calls`."""
    calls = SimpleNamespace(runs=[], finishers=[])
    bfs = treeshort.graph._bfs_far
    finish = treeshort.graph._largest_eccentricity

    def counting_bfs(adj, source):
        calls.runs.append(source)
        return bfs(adj, source)

    def counting_finish(adj, nodes, sources):
        calls.finishers.append(len(sources))
        return finish(adj, nodes, sources)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treeshort.graph, "_bfs_far", counting_bfs)
        patch.setattr(treeshort.graph, "_largest_eccentricity", counting_finish)
        yield calls


@pytest.fixture
def bfs_calls():
    with counted_sweeps() as calls:
        yield calls


def assert_diameter_within_sweep_bound(g):
    """diameter(g) is the oracle's, after at most 2*D BFS runs and at most
    one finisher call, the bound the sweep route promises."""
    with counted_sweeps() as calls:
        d = diameter(g)
    assert d == oracles.all_pairs_diameter(g.n, g.edges)
    assert len(calls.runs) <= 2 * d
    assert len(calls.finishers) <= 1


def test_grid_diameter_needs_few_bfs(bfs_calls):
    assert diameter(gen_grid(32, 32)) == 62
    assert len(bfs_calls.runs) <= 10  # one BFS per node would be 1,024
    assert bfs_calls.finishers == []  # the bounds meet before the sweeps stall


def test_ktree_diameter_needs_few_sweeps(bfs_calls):
    # BoundingDiameters alone stalls here: 135 BFS runs for a diameter of 6
    assert diameter(gen_ktree(1000, 3, 5)) == 6
    assert len(bfs_calls.runs) <= 10
    assert len(bfs_calls.finishers) == 1


@pytest.mark.parametrize("n, seed, want", [(100, 4, 4), (300, 6, 6)])
def test_stalled_ktree_diameter_is_finished_exactly(bfs_calls, n, seed, want):
    g = gen_ktree(n, 3, seed)
    assert oracles.all_pairs_diameter(g.n, g.edges) == want
    assert diameter(g) == want
    assert len(bfs_calls.finishers) == 1


@SETTINGS
@given(ktrees())
def test_ktree_diameter_matches_oracle(g):
    assert_diameter_within_sweep_bound(g)


def hamiltonian_with_chords(n, p, seed):
    """The cycle 0, 1, ..., n-1 plus each node pair as a chord with
    probability p: dense graphs of small diameter that are not k-trees."""
    rng = random.Random(seed)
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph(n, sorted(edges))


@pytest.mark.parametrize("n, p, seed", [(300, 0.01, 1), (350, 0.02, 2), (400, 0.05, 3)])
def test_dense_hamiltonian_diameter_within_sweep_bound(n, p, seed):
    assert_diameter_within_sweep_bound(hamiltonian_with_chords(n, p, seed))


def test_audit_dilation_on_ktree_parts_the_finisher_measures(bfs_calls):
    g = gen_ktree(150, 3, 2)
    tree = bfs_tree(g, 0)
    p = gen_parts_random(g, 8, 2)
    shortcut = all_ancestor_shortcut(tree, p)
    report = audit_shortcut(g, tree, p, shortcut)
    assert bfs_calls.finishers  # some merged subgraph stalls BoundingDiameters
    want = [merged_oracle(g, p.parts[i], shortcut[i]) for i in range(p.k)]
    assert [q.dilation for q in report.per_part] == want


def test_audit_runs_far_fewer_bfs_than_merged_nodes(bfs_calls):
    g = gen_grid(32, 32)
    tree = bfs_tree(g, 0)
    p = gen_parts_random(g, 200, 1)
    shortcut = all_ancestor_shortcut(tree, p)
    merged_nodes = sum(len(_merged_subgraph(g, p.parts[i], shortcut[i])[0]) for i in range(p.k))
    audit_shortcut(g, tree, p, shortcut)
    assert len(bfs_calls.runs) + len(bfs_calls.finishers) <= merged_nodes / 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_audit_takes_the_kernel_route_for_most_parts(bfs_calls, seed):
    # the merged subgraphs are small cycles and kernels with pendant ancestor
    # paths; BFS is left for the dense parts (about 1,100 runs per audit
    # when every part used bound-pruned BFS)
    g = gen_grid(32, 32)
    tree = bfs_tree(g, 0)
    p = gen_parts_random(g, 200, seed)
    audit_shortcut(g, tree, p, all_ancestor_shortcut(tree, p))
    assert len(bfs_calls.runs) + len(bfs_calls.finishers) <= 100


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
        with pytest.raises(SimError, match="^merged subgraph of part 5 is disconnected$"):
            _part_tree(g, part, h, 5)
        return
    nodes, edges = merged_edges(g, part, h)
    parent, children, height = _part_tree(g, part, h, 5)
    live = children.keys()
    # every leaf is a part node: aggregation holds one leaf per node to its delay
    assert {v for v in live if not children[v]} <= set(part)
    want_parent, want_children, want_live = oracles.pruned_part_tree(g.n, edges, part)
    assert live == want_live
    assert {v: parent[v] for v in live} == {v: want_parent[v] for v in live}
    assert children == want_children  # tuples compared in order
    (root,) = [v for v in live if parent[v] is None]
    tree_adj = oracles.adjacency(g.n, [(v, c) for v in live for c in children[v]])
    ecc = {v: max(oracles.bfs_dist(tree_adj, v).values()) for v in live}
    # the root is a centre: no higher than min(part), half the diameter
    assert height == ecc[root] <= ecc[min(part)]
    assert height == math.ceil(max(ecc.values()) / 2)
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
    # an unknown id is named before any non-tree edge of the same shortcut
    for unknown in (-1, g.m):
        bad = list(shortcut)
        bad[0] = shortcut[0] | {unknown, *non_tree[:1]}
        with pytest.raises(GraphError, match=f"^unknown edge id {unknown}$"):
            audit_shortcut(g, tree, p, bad)


# payload members: ints of every size and sign, with 0, -1 and bools drawn often
PAYLOAD_INTS = st.one_of(
    st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 1]), st.booleans()
)
# a payload is an int or a flat tuple of ints
PAYLOADS = st.one_of(PAYLOAD_INTS, st.lists(PAYLOAD_INTS, max_size=20).map(tuple))


def element_wise_bits(payload) -> int:
    """`int_bits` of the int, or summed over the tuple's ints."""
    if isinstance(payload, tuple):
        return sum(map(int_bits, payload))
    return int_bits(payload)


@SETTINGS
@given(PAYLOADS)
def test_payload_bits_matches_element_wise_definition(payload):
    assert payload_bits(payload) == element_wise_bits(payload)


@SETTINGS
@given(
    st.lists(PAYLOAD_INTS, max_size=4),
    st.sampled_from([1.5, 0.0, "x", ""]),
    st.data(),
)
def test_payload_bits_rejects_float_and_str_members(members, bad, data):
    pos = data.draw(st.integers(0, len(members)))
    flat = tuple(members[:pos]) + (bad,) + tuple(members[pos:])
    payload = data.draw(st.sampled_from([flat, (flat,), (tuple(members), flat)]))
    kind = type(bad).__name__ if payload is flat else "tuple"  # nesting is rejected first
    with pytest.raises(SimError, match=f"^unsupported payload type {kind}$"):
        payload_bits(payload)


@st.composite
def marked_instances(draw):
    """A grid, k-tree, wheel or fan with a random subset of its parts, a BFS
    tree from a random root, and the marking at a random threshold."""
    family = draw(st.sampled_from(["grid", "ktree", "wheel", "fan"]))
    seed = draw(st.integers(0, 2**32))
    if family == "fan":
        mids = draw(st.integers(1, 12))
        g, p = build_fan(mids, draw(st.integers(1, 12)), mids)
    else:
        if family == "grid":
            g = gen_grid(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        elif family == "ktree":
            g = gen_ktree(draw(st.integers(4, 60)), draw(st.integers(1, 3)), seed)
        else:
            g = gen_wheel(draw(st.integers(4, 40)))
        p = gen_parts_random(g, draw(st.integers(1, min(g.n, 12))), seed)
    if draw(st.booleans()):
        # construct_full runs case I on subsets of the parts, leaving nodes unassigned
        rng = random.Random(seed)
        p = p.subset(sorted(rng.sample(range(p.k), rng.randint(1, p.k))))
    tree = bfs_tree(g, draw(st.integers(0, g.n - 1)))
    marking = mark_overcongested(tree, p, draw(st.integers(1, 8)))
    return g, tree, p, marking


@settings(SETTINGS, max_examples=500)
@given(marked_instances(), st.sampled_from([1, 2]))
def test_case_one_matches_downward_traversal_oracle(inst, delta):
    g, tree, p, marking = inst
    marked = marking.overcongested
    below = {
        e: oracles.parts_below_tree_edge(tree, p, marked, e) for e in sorted(tree.tree_edges)
    }
    degree = [sum(i in below[e] for e in marked) for i in range(p.k)]
    eligible = [i for i in range(p.k) if degree[i] <= 8 * delta]
    partial = case_one_partial(marking, tree, p, delta)
    if len(eligible) < math.ceil(p.k / 2):
        assert partial is None
        return
    assert list(partial.edge_sets) == eligible
    for i, edges in ancestor_sets(below, marked, eligible).items():
        assert partial.edge_sets[i] == oracles.steiner_trim(tree, p.parts[i], edges)


def ancestor_sets(below, marked, parts):
    """Per part, the untrimmed case-I set: every unmarked tree edge with the
    part below it in the forest cut at the marked edges."""
    return {i: {e for e, found in below.items() if e not in marked and i in found} for i in parts}


@SETTINGS
@given(marked_instances(), st.sampled_from([1, 2]))
def test_trimmed_case_one_sets_cost_no_more_and_aggregate_alike(inst, delta):
    """Against the untrimmed ancestor sets, per part: dilation no larger,
    blocks equal, congestion no larger, and the same aggregation, message
    for message."""
    g, tree, p, marking = inst
    partial = case_one_partial(marking, tree, p, delta)
    if partial is None:
        return
    marked = marking.overcongested
    below = {e: oracles.parts_below_tree_edge(tree, p, marked, e) for e in tree.tree_edges}
    untrimmed = ancestor_sets(below, marked, partial.edge_sets)
    shortcuts = [
        {i: sets.get(i, frozenset()) for i in range(p.k)} for sets in (partial.edge_sets, untrimmed)
    ]
    trimmed_report, untrimmed_report = (audit_shortcut(g, tree, p, s) for s in shortcuts)
    assert trimmed_report.congestion <= untrimmed_report.congestion
    for i, (trimmed, full) in enumerate(zip(trimmed_report.per_part, untrimmed_report.per_part)):
        assert shortcuts[0][i] <= shortcuts[1][i]
        assert trimmed.dilation <= full.dilation
        assert trimmed.blocks == full.blocks
    task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
    cfg = SimConfig(msg_bits=64, seed=delta, log_messages=True)
    (results, trace), (full_results, full_trace) = (
        partwise_aggregate(g, p, s, task, cfg) for s in shortcuts
    )
    assert results == full_results
    assert trace.log == full_trace.log


@st.composite
def aggregation_instances(draw):
    """A random grid, k-tree or fan with random parts, a BFS tree from a
    random root, and as the shortcut either the engine's or every tree edge
    in every H_i, the most contended."""
    seed = draw(st.integers(0, 2**32))
    family = draw(st.sampled_from(["grid", "ktree", "fan"]))
    if family == "fan":
        mids = draw(st.integers(2, 6))
        g, p = build_fan(mids, draw(st.integers(2, 12)), mids)
    else:
        if family == "grid":
            g = gen_grid(draw(st.integers(2, 8)), draw(st.integers(2, 8)))
        else:
            k = draw(st.integers(1, 4))
            g = gen_ktree(draw(st.integers(k + 1, 60)), k, seed)
        p = gen_parts_random(g, draw(st.integers(1, min(g.n, 12))), seed)
    tree = bfs_tree(g, draw(st.integers(0, g.n - 1)))
    if draw(st.booleans()):
        shortcut = construct_full(g, tree, p, EngineConfig(), random.Random(seed)).shortcut
    else:
        shortcut = [tree.tree_edges] * p.k
    return g, p, shortcut, seed


@SETTINGS
@given(aggregation_instances())
def test_aggregation_sends_in_first_use_order(inst):
    """Within one round, a node sends to its destinations in the order of
    its first message to each, over the whole run."""
    g, p, shortcut, seed = inst
    task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
    _, trace = partwise_aggregate(g, p, shortcut, task, SimConfig(seed=seed, log_messages=True))
    first_use: dict[int, dict[int, int]] = {}
    last: dict[tuple[int, int], int] = {}  # (round, src) -> first-use rank of its last dst
    for record in trace.log:
        ranks = first_use.setdefault(record.src, {})
        rank = ranks.setdefault(record.dst, len(ranks))
        step = (record.round, record.src)
        assert last.get(step, -1) < rank, step
        last[step] = rank


@st.composite
def partitions_on_small_graphs(draw):
    """A small graph, a node count (sometimes not the graph's) and parts of
    distinct random nodes, sometimes with an extra part that may repeat a
    node of its own or of the other parts."""
    g = draw(graphs())
    n = g.n if draw(st.integers(0, 9)) else draw(st.integers(1, 10))
    owner = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    parts = [[v for v in range(n) if owner[v] == i] for i in range(4)]
    parts = [nodes for nodes in parts if nodes]
    if not parts or draw(st.integers(0, 2)) == 0:
        extra = st.lists(st.integers(0, n - 1), min_size=1, max_size=4)
        parts.insert(draw(st.integers(0, len(parts))), draw(extra))
    return g, n, parts


def connected_in(adj, nodes):
    return set(oracles.bfs_dist(adj, nodes[0], allowed=set(nodes))) == set(nodes)


def first_repeat(parts):
    """The message for the first node listed twice, in part order and then
    node order, or None when the parts are disjoint."""
    for i, nodes in enumerate(parts):
        for v in sorted(nodes):
            earlier = [j for j in range(i) if v in parts[j]]
            if earlier:
                return f"node {v} in part {earlier[0]} and part {i}"
            if nodes.count(v) > 1:
                return f"node {v} listed twice in part {i}"
    return None


@SETTINGS
@given(partitions_on_small_graphs())
def test_validate_partition_matches_brute_force(inst):
    g, n, parts = inst
    repeat = first_repeat(parts)
    if repeat is not None:
        with pytest.raises(GraphError, match=f"^{repeat}$"):
            Partition(n, parts)
        return
    p = Partition(n, parts)
    if n != g.n:
        with pytest.raises(GraphError, match=f"^partition built for n={n}, graph has n={g.n}$"):
            validate_partition(g, p)
        return
    adj = oracles.adjacency(g.n, g.edges)
    for i, nodes in enumerate(p.parts):
        if not connected_in(adj, nodes):
            with pytest.raises(GraphError, match=f"^part {i} induces a disconnected subgraph$"):
                validate_partition(g, p)
            return
    assert validate_partition(g, p) is None


@SETTINGS
@given(graphs(), st.data())
def test_validate_minor_connectivity_matches_brute_force(g, data):
    # each node goes to one of s sets or to none, so the sets are disjoint
    s = data.draw(st.integers(1, 4))
    owner = data.draw(st.lists(st.integers(-1, s - 1), min_size=g.n, max_size=g.n))
    sets = [[v for v in range(g.n) if owner[v] == idx] for idx in range(s)]
    sets = [data.draw(st.permutations(vs)) for vs in sets if vs]
    if not sets:
        return
    nodes = tuple(MinorNode("part", idx, tuple(vs)) for idx, vs in enumerate(sets))
    cert = MinorCertificate(nodes, (), Fraction(0))
    adj = oracles.adjacency(g.n, g.edges)
    for idx, vs in enumerate(sets):
        if not connected_in(adj, vs):
            with pytest.raises(GraphError, match=f"^minor node {idx} induces a disconnected set$"):
                validate_minor(g, cert)
            return
    assert validate_minor(g, cert) is None

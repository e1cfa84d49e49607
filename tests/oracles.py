"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's own traversal and accounting code:
plain dict adjacency, plain BFS, exhaustive enumeration.  They are the
second route for every dual-route check.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


def adjacency(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_dist(adj, source, allowed=None):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist and (allowed is None or u in allowed):
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def all_pairs_diameter(n, edges, reverse_order=False):
    adj = adjacency(n, edges)
    if reverse_order:
        adj = {v: list(reversed(nbrs)) for v, nbrs in adj.items()}
    best = 0
    for s in range(n):
        dist = bfs_dist(adj, s)
        assert len(dist) == n, "oracle expects a connected graph"
        best = max(best, max(dist.values()))
    return best


def eccentricity(n, edges, source):
    dist = bfs_dist(adjacency(n, edges), source)
    assert len(dist) == n
    return max(dist.values())


def induced_diameter(n, edges, subset):
    subset = set(subset)
    adj = adjacency(n, edges)
    best = 0
    for s in subset:
        dist = bfs_dist(adj, s, allowed=subset)
        if set(dist) != subset:
            return None  # disconnected
        best = max(best, max(dist.values()))
    return best


def pruned_part_tree(n, edges, part):
    """The aggregation part tree built the long way: the BFS tree of the
    graph (n, edges) from min(part), over neighbours in ascending order, with
    relay leaves outside the part peeled one at a time until none is left,
    then re-rooted at the live node of smallest eccentricity (a BFS over the
    tree from every live node), nearest min(part) on ties, by reversing the
    parent pointers on the path between the two.

    Returns (parent, children, live) over the nodes the BFS reaches, children
    as tuples in BFS order with a former parent last.
    """
    adj = {v: sorted(nbrs) for v, nbrs in adjacency(n, edges).items()}
    part_set = set(part)
    root = min(part)
    parent = {root: None}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    children = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    degree = {v: len(children[v]) for v in order}
    live = set(order)
    stack = [v for v in order if degree[v] == 0 and v not in part_set]
    while stack:
        v = stack.pop()
        live.discard(v)
        pv = parent[v]
        if pv is not None:
            degree[pv] -= 1
            if degree[pv] == 0 and pv not in part_set:
                stack.append(pv)
    children = {v: [c for c in children[v] if c in live] for v in live}
    tree_adj = {v: children[v] + ([parent[v]] if parent[v] is not None else []) for v in live}
    from_root = bfs_dist(tree_adj, root)
    ecc = {v: max(bfs_dist(tree_adj, v).values()) for v in live}
    centre = min(live, key=lambda v: (ecc[v], from_root[v]))
    path = [centre]  # from the centre up to min(part)
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    for child, former in zip(path, path[1:]):
        children[former].remove(child)
        children[child].append(former)
        parent[former] = child
    parent[centre] = None
    return parent, {v: tuple(cs) for v, cs in children.items()}, live


def parts_below_tree_edge(tree, partition, blocked, eid):
    """Parts intersecting the deeper endpoint's component of the forest
    (tree minus blocked edges), computed by direct downward traversal."""
    v = tree.deeper_endpoint(eid)
    found = set()
    stack = [v]
    while stack:
        x = stack.pop()
        if partition.part_of[x] is not None:
            found.add(partition.part_of[x])
        for ch in tree.children[x]:
            if tree.parent_edge[ch] not in blocked:
                stack.append(ch)
    return found


def steiner_trim(tree, part, edges):
    """The edges of the forest `edges` (tree edge ids) that separate two
    nodes of `part` within their forest component: an edge is kept iff
    deleting it leaves part nodes on both of its sides."""
    part = set(part)
    ends = {e: tree.graph.endpoints(e) for e in edges}
    kept = set()
    for e, (u, v) in ends.items():
        adj = adjacency(tree.graph.n, [ends[f] for f in ends if f != e])
        if all(part & set(bfs_dist(adj, x)) for x in (u, v)):
            kept.add(e)
    return kept


def min_spanning_weight_brute(n, edges, weights):
    """Minimum spanning tree by exhaustive enumeration (tiny graphs only)."""
    m = len(edges)
    best = None
    best_set = None
    for subset in combinations(range(m), n - 1):
        adj = adjacency(n, [edges[e] for e in subset])
        if len(bfs_dist(adj, 0)) != n:
            continue
        w = sum(weights[e] for e in subset)
        if best is None or w < best:
            best = w
            best_set = frozenset(subset)
    return best_set, best


def component_labels(n, edges_subset_endpoints):
    """Min-id component labels by plain union-find over the given endpoints."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges_subset_endpoints:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {v: find(v) for v in range(n)}


def is_planar(g):
    """Planarity check backing the Euler-formula density arguments in tests."""
    import networkx as nx  # only the planarity tests need networkx

    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges)
    planar, _ = nx.check_planarity(gx)
    return planar


@dataclass(frozen=True)
class DensityBounds:
    r: int
    delta_low: Fraction
    delta_high: float


def thomason_bounds(r):
    """Two-sided bounds on the minor density of a graph whose largest clique minor is K_r."""
    if r < 2:
        raise ValueError("r must be at least 2")
    return DensityBounds(
        r=r,
        delta_low=Fraction(r - 1, 2),
        delta_high=8.0 * r * math.sqrt(math.log2(r)),
    )

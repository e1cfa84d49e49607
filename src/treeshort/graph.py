"""Undirected graphs, BFS trees, node partitions, and distance primitives.

Nodes are dense integers 0..n-1 and edge ids are dense integers 0..m-1
(the position of the edge in the construction order).  The only rooted
tree is the BFS tree, which `bfs_tree` builds in one pass over the
adjacency.  All structures are immutable after construction and safe to
share between workers; every traversal visits neighbors in ascending node
id, so results are reproducible.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from heapq import heappop, heappush
from operator import add
from typing import Iterable, Iterator, Sequence

INFINITE = math.inf

MAX_WEIGHT = 2**31  # weights live in [1, 2**31)

# an integer token of a text input: ASCII decimal digits after one optional '-'
# (`int` alone would also take '+5', '1_0', ' 3' and non-ASCII digits)
_INT_TOKEN = re.compile("-?[0-9]+")


class GraphError(Exception):
    """Malformed graph/tree/partition input or unsatisfied precondition."""


def _check_no_parallel(pairs: Sequence[tuple[int, int]]) -> None:
    """Raise on the first pair in `pairs` that repeats an earlier one."""
    seen = set()
    for u, v in pairs:
        if (u, v) in seen:
            raise GraphError(f"parallel edge ({u}, {v})")
        seen.add((u, v))


class Graph:
    """Simple undirected graph with optional distinct positive edge weights.

    The adjacency is two tuples of per-node tuples: `_nbrs[v]` holds v's
    neighbours in ascending order and `_eids[v]` the matching edge ids, so
    the graph keeps no object per arc and no endpoint-pair index; `edge_id`
    bisects the neighbour tuple of the smaller endpoint."""

    __slots__ = ("n", "edges", "weights", "_nbrs", "_eids")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Sequence[int] | None = None,
    ):
        if n < 1:
            raise GraphError(f"node count must be positive, got {n}")
        self.n = n
        normalized: list[tuple[int, int]] = []
        for u, v in edges:
            # a malformed edge after a repeated pair reports the repeat, as it came first
            if not (0 <= u < n and 0 <= v < n):
                _check_no_parallel(normalized)
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                _check_no_parallel(normalized)
                raise GraphError(f"self-loop at node {u}")
            normalized.append((u, v) if u < v else (v, u))
        if len(set(normalized)) != len(normalized):
            _check_no_parallel(normalized)
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != len(normalized):
                raise GraphError("weight count does not match edge count")
            for w in weights:
                if not (1 <= w < MAX_WEIGHT):
                    raise GraphError(f"weight {w} outside [1, 2^31)")
        self.weights: tuple[int, ...] | None = weights
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(normalized):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        nbrs, eids = [], []
        for lst in adj:
            lst.sort()
            ns, es = zip(*lst) if lst else ((), ())
            nbrs.append(ns)
            eids.append(es)
        self._nbrs: tuple[tuple[int, ...], ...] = tuple(nbrs)
        self._eids: tuple[tuple[int, ...], ...] = tuple(eids)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self, v: int) -> Iterator[tuple[int, int]]:
        """An iterator over the pairs (neighbor, edge id) in ascending
        neighbor order."""
        return zip(self._nbrs[v], self._eids[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The neighbours of v in ascending order (the stored tuple)."""
        return self._nbrs[v]

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < self.m):
            raise GraphError(f"unknown edge id {eid}")
        return self.edges[eid]

    def edge_id(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if 0 <= u < self.n:  # a negative u would wrap the tuple index
            nbrs = self._nbrs[u]
            i = bisect_left(nbrs, v)
            if i < len(nbrs) and nbrs[i] == v:
                return self._eids[u][i]
        raise GraphError(f"no edge ({u}, {v})")

    def require_distinct_weights(self) -> None:
        if self.weights is None:
            raise GraphError("operation requires edge weights")
        if len(set(self.weights)) != self.m:
            raise GraphError("operation requires pairwise distinct weights")


class RootedTree:
    """The BFS spanning tree of a host graph from `root`; parent edges are
    host edges.  Only `bfs_tree` builds one, filling every field in its one
    pass: `children[v]` ascends and `order` is the reverse BFS order, so
    depth never increases along it (for bottom-up sweeps)."""

    __slots__ = (
        "graph",
        "root",
        "parent",
        "parent_edge",
        "depth",
        "D",
        "children",
        "order",
        "tree_edges",
    )

    def deeper_endpoint(self, eid: int) -> int:
        """The endpoint of a tree edge further from the root."""
        u, v = self.graph.endpoints(eid)
        return v if self.depth[v] > self.depth[u] else u


def bfs_tree(g: Graph, root: int) -> RootedTree:
    """Breadth-first spanning tree; depth equals the eccentricity of the root.

    One pass over `g._nbrs`/`g._eids`: a node's parent edge is the id next to
    it in its parent's edge tuple, and a node's children are found in
    ascending order, each after the children of every node found before."""
    if not (0 <= root < g.n):
        raise GraphError(f"invalid root {root}")
    parent = [-1] * g.n
    parent[root] = root
    parent_edge = [-1] * g.n
    depth = [0] * g.n
    children: list[tuple[int, ...]] = [()] * g.n
    found = [root]
    nbrs, eids = g._nbrs, g._eids
    for v in found:  # the list grows behind the loop: it is the BFS queue
        below = depth[v] + 1
        kids = []
        for u, e in zip(nbrs[v], eids[v]):
            if parent[u] < 0:
                parent[u] = v
                parent_edge[u] = e
                depth[u] = below
                kids.append(u)
        if kids:
            children[v] = tuple(kids)
            found += kids
    if len(found) != g.n:
        unreached = parent.index(-1)
        raise GraphError(f"graph disconnected: node {unreached} unreachable from {root}")
    t = object.__new__(RootedTree)  # the class has no constructor of its own
    t.graph = g
    t.root = root
    t.parent = tuple(parent)
    t.parent_edge = tuple(parent_edge)
    t.depth = tuple(depth)
    t.D = depth[found[-1]]  # the last node found is a deepest one
    t.children = tuple(children)
    t.order = tuple(reversed(found))
    t.tree_edges = frozenset(parent_edge) - {-1}
    return t


def _largest_eccentricity(adj, nodes, sources) -> int:
    """Largest eccentricity among `sources` in the connected graph on `nodes`,
    by one multi-source bit-parallel BFS (Then et al., 2014): bit j of
    `unseen[v]` stays set until the search from sources[j] reaches v, each
    round pushes to the neighbours only the bits a node gained in the round
    before, and the last round with a gain is the answer."""
    unseen = dict.fromkeys(nodes, (1 << len(sources)) - 1)
    frontier = {}
    for j, s in enumerate(sources):
        frontier[s] = 1 << j
        unseen[s] ^= 1 << j
    ecc = -1
    while frontier:
        ecc += 1
        gained = {}
        for v, bits in frontier.items():
            for u in adj[v]:
                new = bits & unseen[u]
                if new:
                    unseen[u] ^= new
                    gained[u] = gained.get(u, 0) | new
        frontier = gained
    return ecc


def _bfs_far(adj, source: int) -> tuple[dict[int, int], int]:
    """BFS distances from source over `adj`, and the last node reached (a farthest one)."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist, queue[-1]


# Kernel rule: all-pairs distances on a kernel of K nodes cost about K*K
# steps and a BFS about n.  A kernel of more than n/4 nodes (dense parts, such
# as k-tree parts and grid blocks) or of more than 4*sqrt(n) nodes (large
# subdivided meshes) would cost more than the sweeps, which pass over the
# arcs at most about 3*D times (2*D BFS runs and D+1 finisher rounds, D the
# diameter, small on such graphs), so those keep the BFS loop.
_KERNEL_RATIO = 4


def _diameter_of(adj, nodes) -> int | float:
    """Exact diameter of the graph on `nodes` with neighbor lists `adj[v]`;
    INFINITE if it is disconnected.

    Peel: strip degree-1 nodes until none is left, keeping each remaining
    node's pendant height h; the two tallest branches at each node give the
    longest path inside the pendant trees, so a tree needs no BFS.
    Contract: the core's degree-2 nodes with h == 0 form chains, paths of
    L edges between kernel nodes a and b (a == b for a loop); the kernel is
    every other core node (one node of a core that is a bare cycle).
    Maximise: with d the all-pairs distances on the weighted kernel, the
    diameter is the largest of
      - the longest pendant-tree path;
      - h[a] + d(a, b) + h[b] over kernel pairs a != b;
      - floor((L + d(a, y) + d(b, y)) / 2) + h[y] from a chain (a, b, L) to
        a kernel node y, since the chain point t steps from a lies
        min(t + d(a, y), L - t + d(b, y)) from y; y = a covers two points
        within one chain, floor((L + d(a, b)) / 2);
      - chain against chain (x, y, M): the same sum with y replaced by the
        point s steps from x, whose distances to a and to b are concave in s
        with breakpoints (M + d(a, y) - d(a, x)) / 2 and (M + d(b, y) -
        d(b, x)) / 2; their sum peaks between the two, so its integer
        maximum lies at an integer point next to a breakpoint.
    Kernel rule: when the kernel holds more than a quarter of the nodes, or
    more than 4*sqrt(n) of them (_KERNEL_RATIO), the routine sweeps the
    full adjacency instead, keeping the upper bounds of BoundingDiameters
    (Takes & Kosters, 2011): a BFS from s with eccentricity e bounds every
    candidate w by ecc(w) <= e + d(s, w), and a candidate is dropped once
    its upper bound is at most `best`, the largest distance found.  The
    next source is the first candidate, in dict order, that holds the
    largest upper bound U left.  On dense graphs of small diameter the
    bounds can stall, so the sweeps stop once their number reaches U, and
    one bit-parallel BFS from every candidate left (_largest_eccentricity)
    gives their largest eccentricity; the diameter is the larger of that
    and `best`, since no dropped node's eccentricity exceeds `best`.  Every
    upper bound is at most twice the first BFS's eccentricity, so the
    routine runs at most 2*D BFS and at most D+1 finisher rounds, each round
    visiting every arc at most once (with one operation on a mask of one bit
    per candidate).  A one-node graph returns 0 before any of this.
    """
    if len(nodes) == 1:
        return 0
    deg = {v: len(adj[v]) for v in nodes}
    height = dict.fromkeys(deg, 0)
    best = 0
    leaves = [v for v, d in deg.items() if d == 1]
    peeled = 0
    for v in leaves:
        if deg[v] != 1:
            continue  # its last neighbor was peeled first: v is a tree's last node
        deg[v] = -1
        peeled += 1
        for p in adj[v]:
            if deg[p] > 0:
                break
        hv, hp = height[v] + 1, height[p]
        if hp + hv > best:
            best = hp + hv
        if hv > hp:
            height[p] = hv
        deg[p] -= 1
        if deg[p] == 1:
            leaves.append(p)
    core = [v for v, d in deg.items() if d > 0]
    tree_ends = len(deg) - peeled - len(core)  # one per tree component
    if tree_ends:
        return best if tree_ends == 1 and not core else INFINITE
    kernel = [v for v in core if deg[v] != 2 or height[v]]
    size = len(kernel)
    if size * _KERNEL_RATIO > len(deg) or size * size > _KERNEL_RATIO**2 * len(deg):
        dist, far = _bfs_far(adj, next(iter(nodes)))
        if len(dist) != len(deg):
            return INFINITE
        upper = dict.fromkeys(nodes, INFINITE)  # the candidates and their upper bounds
        runs = 1
        while True:
            e = dist[far]
            best = max(best, e)
            kept = {}
            top = 0  # the largest upper bound kept, first held by s
            # comparisons rather than min()/max() calls: this loop dominates the bookkeeping
            for w, hi in upper.items():
                d = e + dist[w]
                if d < hi:
                    hi = d
                if hi > best:  # else ecc(w) <= best, and w cannot raise the diameter
                    kept[w] = hi
                    if hi > top:
                        top, s = hi, w
            if not kept:
                return best
            if runs >= top:
                return max(best, _largest_eccentricity(adj, nodes, kept))
            upper = kept
            dist, far = _bfs_far(adj, s)
            runs += 1
    if not kernel:
        kernel = core[:1]
    index = {v: i for i, v in enumerate(kernel)}
    kadj: list[list[tuple[int, int]]] = [[] for _ in kernel]
    chains = []
    inner = set()
    for i, a in enumerate(kernel):
        for u in adj[a]:
            if deg[u] < 0 or u in inner:
                continue  # a peeled node, or a chain walked from its other end
            prev, length, j = a, 1, index.get(u)
            while j is None:
                inner.add(u)
                x, y = adj[u]
                prev, u = u, (y if x == prev else x)
                length += 1
                j = index.get(u)
            kadj[i].append((j, length))
            if length > 1:
                kadj[j].append((i, length))
                chains.append((i, j, length))
    if len(inner) + len(kernel) < len(core):
        return INFINITE  # a cycle apart from every kernel node
    dist = []
    for s in range(len(kernel)):
        d = [INFINITE] * len(kernel)
        d[s] = 0
        heap = [(0, s)]
        while heap:
            dv, v = heappop(heap)
            if dv == d[v]:
                for u, w in kadj[v]:
                    if dv + w < d[u]:
                        d[u] = dv + w
                        heappush(heap, (dv + w, u))
        if INFINITE in d:
            return INFINITE
        dist.append(d)
    h = [height[v] for v in kernel]
    for a in range(len(kernel) - 1):
        best = max(best, h[a] + max(map(add, dist[a][a + 1 :], h[a + 1 :])))
    reach = []  # per chain, the farthest kernel node from any of its points
    for a, b, length in chains:
        far = [(length + ay + by) // 2 for ay, by in zip(dist[a], dist[b])]
        best = max(best, max(map(add, far, h)))
        reach.append(max(far))
    # a point of chain (x, y, M) is at most M // 2 from x or y, so a chain
    # whose reach plus the largest such half is at most `best` is done
    half = max((m // 2 for _, _, m in chains), default=0)
    live = [chain for chain, r in zip(chains, reach) if r + half > best]
    for c, (a, b, length) in enumerate(live):
        da, db = dist[a], dist[b]
        for x, y, m in live[c + 1 :]:
            ax, ay, bx, by = da[x], da[y], db[x], db[y]
            twice_a, twice_b = m + ay - ax, m + by - bx  # twice the breakpoints
            for s in (twice_a // 2, (twice_a + 1) // 2, twice_b // 2, (twice_b + 1) // 2):
                far = (length + min(s + ax, m - s + ay) + min(s + bx, m - s + by)) // 2
                if far > best:
                    best = far
    return best


def diameter(g: Graph) -> int:
    """Exact diameter; error on disconnected input."""
    d = _diameter_of(g._nbrs, range(g.n))
    if d == INFINITE:
        bfs_tree(g, 0)  # raises, naming the smallest node unreachable from 0
    return d


class Partition:
    """Disjoint node sets P_0..P_{k-1}; nodes may be left unassigned.

    Construction rejects empty parts, out-of-range ids and a node listed
    twice, in one part or in two; per-part connectivity needs the graph, so
    validate_partition checks it.
    """

    __slots__ = ("n", "parts", "k", "part_of")

    def __init__(self, n: int, parts: Iterable[Iterable[int]]):
        self.n = n
        normalized = []
        for nodes in parts:
            tup = tuple(sorted(nodes))
            if not tup:
                raise GraphError("empty part")
            if tup[0] < 0 or tup[-1] >= n:
                raise GraphError(f"part node out of range for n={n}: {tup}")
            normalized.append(tup)
        self.parts: tuple[tuple[int, ...], ...] = tuple(normalized)
        self.k = len(self.parts)
        part_of: list[int | None] = [None] * n
        for i, nodes in enumerate(self.parts):
            for v in nodes:
                j = part_of[v]
                if j is not None:
                    where = f"listed twice in part {i}" if j == i else f"in part {j} and part {i}"
                    raise GraphError(f"node {v} {where}")
                part_of[v] = i
        self.part_of: tuple[int | None, ...] = tuple(part_of)

    def subset(self, indices: Sequence[int]) -> "Partition":
        """Partition containing only the given parts (re-indexed in the given order)."""
        return Partition(self.n, [self.parts[i] for i in indices])


def _first_disconnected(
    g: Graph, sets: Sequence[Sequence[int]], owner: Sequence[int | None]
) -> int | None:
    """Index of the first of the disjoint node sets that is not connected, or
    None; `owner[v]` indexes the set holding node v (None for none).  It costs
    one O(n) copy of `owner`, where a reached node's entry becomes None, plus
    one BFS per set through its own nodes; `validate_partition` and
    `audit.validate_minor` share it."""
    nbrs, mark = g._nbrs, list(owner)
    for idx, nodes in enumerate(sets):
        mark[nodes[0]] = None
        order = [nodes[0]]
        for v in order:
            for u in nbrs[v]:
                if mark[u] == idx:
                    mark[u] = None
                    order.append(u)
        if len(order) != len(nodes):
            return idx
    return None


def _check_node_count(g: Graph, p: Partition) -> None:
    if p.n != g.n:
        raise GraphError(f"partition built for n={p.n}, graph has n={g.n}")


def validate_partition(g: Graph, p: Partition) -> None:
    """Raise GraphError unless `p` is built for `g`'s node count and each
    part induces a connected subgraph (the first disconnected part is named)."""
    _check_node_count(g, p)
    i = _first_disconnected(g, p.parts, p.part_of)
    if i is not None:
        raise GraphError(f"part {i} induces a disconnected subgraph")


# ---------------------------------------------------------------------------
# Text file formats.
#
# Graph:      "n m" or "n m weighted", then one line per edge: "u v [w]".
# Partition:  one part per line, node ids separated by blanks.
#
# Text written by dumps_* round-trips byte-identically through loads_*; the
# CLI reads and writes the files.
# ---------------------------------------------------------------------------


def dumps_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m} weighted" if g.weights is not None else f"{g.n} {g.m}"]
    if g.weights is not None:
        lines += [f"{u} {v} {w}" for (u, v), w in zip(g.edges, g.weights)]
    else:
        lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _line_ints(tokens: list[str], kind: str, lineno: int) -> list[int]:
    """The integers of one line of a `kind` file; a bad token names the 1-based line."""
    for tok in tokens:
        if not _INT_TOKEN.fullmatch(tok):
            raise GraphError(f"{kind} file line {lineno}: {tok!r} is not an integer")
    return [int(tok) for tok in tokens]


def loads_graph(text: str) -> Graph:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise GraphError("empty graph file")
    head_no, head_line = lines[0]
    head = head_line.split()
    if len(head) not in (2, 3) or (len(head) == 3 and head[2] != "weighted"):
        raise GraphError(f"bad header line: {head_line!r}")
    n, m = _line_ints(head[:2], "graph", head_no)
    weighted = len(head) == 3
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges, weights = [], []
    for no, ln in lines[1:]:
        fields = ln.split()
        want = "u v w" if weighted else "u v"
        if len(fields) != len(want.split()):
            raise GraphError(f"expected '{want}': {ln!r}")
        nums = _line_ints(fields, "graph", no)
        edges.append((nums[0], nums[1]))
        if weighted:
            weights.append(nums[2])
    return Graph(n, edges, weights if weighted else None)


def dumps_partition(p: Partition) -> str:
    return "\n".join(" ".join(str(v) for v in part) for part in p.parts) + "\n"


def loads_partition(text: str, n: int) -> Partition:
    parts = [
        _line_ints(ln.split(), "partition", no)
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip()
    ]
    return Partition(n, parts)

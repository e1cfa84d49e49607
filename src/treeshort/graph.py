"""Undirected graphs, BFS trees, node partitions, and distance primitives.

Nodes are dense integers 0..n-1 and edge ids are dense integers 0..m-1
(the position of the edge in the construction order).  All structures are
immutable after construction and safe to share between workers; every
traversal visits neighbors in ascending node id, so results are
reproducible.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add
from typing import Callable, Iterable, Sequence

INFINITE = math.inf

MAX_WEIGHT = 2**31  # weights live in [1, 2**31)


class GraphError(Exception):
    """Malformed graph/tree/partition input or unsatisfied precondition."""


@dataclass(frozen=True)
class Violation:
    """Structured validation failure; `code` is stable, `message` is for humans."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Graph:
    """Simple undirected graph with optional distinct positive edge weights."""

    __slots__ = ("n", "edges", "weights", "_adj", "_edge_index")

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
        edge_index: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u > v:
                u, v = v, u
            if (u, v) in edge_index:
                raise GraphError(f"parallel edge ({u}, {v})")
            edge_index[(u, v)] = len(normalized)
            normalized.append((u, v))
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        self._edge_index = edge_index
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != len(normalized):
                raise GraphError("weight count does not match edge count")
            for w in weights:
                if not (1 <= w < MAX_WEIGHT):
                    raise GraphError(f"weight {w} outside [1, 2^31)")
        self.weights: tuple[int, ...] | None = weights
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        for lst in adj:
            lst.sort()
        self._adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(lst) for lst in adj
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs (neighbor, edge id) in ascending neighbor order."""
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self._adj[v])

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < self.m):
            raise GraphError(f"unknown edge id {eid}")
        return self.edges[eid]

    def edge_id(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self._edge_index[(u, v)]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def with_weights(self, weights: Sequence[int]) -> "Graph":
        return Graph(self.n, self.edges, weights)

    def require_distinct_weights(self) -> None:
        if self.weights is None:
            raise GraphError("operation requires edge weights")
        if len(set(self.weights)) != self.m:
            raise GraphError("operation requires pairwise distinct weights")


class RootedTree:
    """Rooted spanning tree of a host graph; parent edges are host edges."""

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

    def __init__(self, graph: Graph, root: int, parent: Sequence[int]):
        if not (0 <= root < graph.n):
            raise GraphError(f"invalid root {root}")
        if parent[root] != root:
            raise GraphError("root must be its own parent")
        self.graph = graph
        self.root = root
        self.parent = tuple(parent)
        parent_edge = [-1] * graph.n
        children: list[list[int]] = [[] for _ in range(graph.n)]
        for v, p in enumerate(self.parent):
            if v == root:
                continue
            parent_edge[v] = graph.edge_id(p, v)  # raises if not a host edge
            children[p].append(v)
        self.parent_edge = tuple(parent_edge)
        self.children = tuple(tuple(sorted(c)) for c in children)
        # depth by BFS over tree edges; also proves the parent map is acyclic
        depth = [-1] * graph.n
        depth[root] = 0
        order = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for c in self.children[v]:
                depth[c] = depth[v] + 1
                order.append(c)
                queue.append(c)
        if len(order) != graph.n:
            missing = min(v for v in range(graph.n) if depth[v] < 0)
            raise GraphError(f"parent map does not span the graph (node {missing})")
        self.depth = tuple(depth)
        self.D = max(depth)
        # nodes in reverse BFS order = non-increasing depth, for bottom-up sweeps
        self.order = tuple(reversed(order))
        self.tree_edges = frozenset(
            self.parent_edge[v] for v in range(graph.n) if v != root
        )

    def deeper_endpoint(self, eid: int) -> int:
        """The endpoint of a tree edge further from the root."""
        u, v = self.graph.endpoints(eid)
        return v if self.depth[v] > self.depth[u] else u


def bfs_tree(g: Graph, root: int) -> RootedTree:
    """Breadth-first spanning tree; depth equals the eccentricity of the root."""
    if not (0 <= root < g.n):
        raise GraphError(f"invalid root {root}")
    parent = [-1] * g.n
    parent[root] = root
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u, _ in g.adjacency(v):
            if parent[u] < 0:
                parent[u] = v
                queue.append(u)
    unreached = [v for v in range(g.n) if parent[v] < 0]
    if unreached:
        raise GraphError(f"graph disconnected: node {unreached[0]} unreachable from {root}")
    return RootedTree(g, root, parent)


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
# subdivided meshes) would cost more than the handful of BFS runs that
# BoundingDiameters needs on such graphs, so those keep the BFS loop.
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
    more than 4*sqrt(n) of them (_KERNEL_RATIO), the routine runs
    BoundingDiameters (Takes & Kosters, 2011) on the full adjacency instead:
    a BFS from s with eccentricity e bounds every candidate w by
    max(d, e-d) <= ecc(w) <= e+d, d = d(s, w), and a candidate is dropped
    once its upper bound is at most `best`, the largest distance found.
    """
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
        lower = dict.fromkeys(nodes, 0)
        pick_upper = True
        while True:
            e = dist[far]
            best = max(best, e)
            kept = {}
            # comparisons rather than min()/max() calls: this loop dominates the bookkeeping
            for w, hi in upper.items():
                d = dist[w]
                if e + d < hi:
                    hi = e + d
                if hi > best:  # also drops w once its bounds meet, since lower[w] <= best
                    kept[w] = hi
                    lo = d if d > e - d else e - d
                    if lo > lower[w]:
                        lower[w] = lo
            if not kept:
                return best
            upper = kept
            # alternate: the largest upper bound, then the smallest lower bound
            s = max(upper, key=upper.get) if pick_upper else min(upper, key=lower.get)
            pick_upper = not pick_upper
            dist, far = _bfs_far(adj, s)
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
    d = _diameter_of([g.neighbors(v) for v in range(g.n)], range(g.n))
    if d == INFINITE:
        bfs_tree(g, 0)  # raises, naming the smallest node unreachable from 0
    return d


class Partition:
    """Disjoint connected node sets P_0..P_{k-1}; nodes may be left unassigned.

    Disjointness and per-part connectivity are *not* enforced here so that
    validate_partition can report violations; construction only rejects
    empty parts and out-of-range ids.
    """

    __slots__ = ("n", "parts", "k", "part_of")

    def __init__(self, n: int, parts: Iterable[Iterable[int]]):
        self.n = n
        normalized = []
        for nodes in parts:
            tup = tuple(sorted(set(nodes)))
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
                if part_of[v] is None:
                    part_of[v] = i
        self.part_of: tuple[int | None, ...] = tuple(part_of)

    def subset(self, indices: Sequence[int]) -> "Partition":
        """Partition containing only the given parts (re-indexed in the given order)."""
        return Partition(self.n, [self.parts[i] for i in indices])


def _first_disconnected(
    g: Graph, sets: Sequence[Sequence[int]], owner: Callable[[int], int | None]
) -> int | None:
    """Index of the first of the disjoint node sets that is not connected, or
    None; `owner(v)` is the index of the set holding v (None for no set).  One
    BFS per set through its own nodes, so the cost does not grow with n; it
    serves `validate_partition` and `audit.validate_minor` alike."""
    for idx, nodes in enumerate(sets):
        reached = {nodes[0]}
        order = [nodes[0]]
        for v in order:
            for u, _ in g.adjacency(v):
                if u not in reached and owner(u) == idx:
                    reached.add(u)
                    order.append(u)
        if len(order) != len(nodes):
            return idx
    return None


def validate_partition(g: Graph, p: Partition) -> Violation | None:
    """Check disjointness and per-part connectivity; first violation or None.

    `p.part_of` holds each node's first part, so a node of part i whose
    `part_of` is not i lies in that earlier part too."""
    if p.n != g.n:
        return Violation("size-mismatch", f"partition built for n={p.n}, graph has n={g.n}")
    part_of = p.part_of
    for i, nodes in enumerate(p.parts):
        for v in nodes:
            if part_of[v] != i:
                return Violation("overlap", f"node {v} in part {part_of[v]} and part {i}")
    i = _first_disconnected(g, p.parts, part_of.__getitem__)
    if i is not None:
        return Violation("disconnected-part", f"part {i} induces a disconnected subgraph")
    return None


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
    """The integers of one line of a `kind` file; a bad token names the
    1-based line."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise GraphError(f"{kind} file line {lineno}: {tok!r} is not an integer") from None
    return out


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

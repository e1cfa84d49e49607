"""Measurement and validation of shortcuts and minor certificates.

Everything here recomputes from scratch: congestion, dilation, block counts,
tree-restriction, and certificate soundness are derived only from the graph,
the partition, and the candidate object, never trusted from producer
bookkeeping.  Closed-form bounds are exposed as pure functions so tests can
compare measured values against formula values explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import (
    INFINITE,
    Graph,
    GraphError,
    Partition,
    RootedTree,
    Violation,
    _diameter_of,
    bfs_distances,
)


@dataclass(frozen=True)
class PartQuality:
    part: int
    dilation: int | float
    blocks: int


@dataclass(frozen=True)
class QualityReport:
    congestion: int
    dilation: int | float
    blocks: int
    quality: int | float
    per_part: tuple[PartQuality, ...]

    def to_json_dict(self) -> dict:
        def finite(x):
            return None if x == INFINITE else x

        return {
            "congestion": self.congestion,
            "dilation": finite(self.dilation),
            "blocks": self.blocks,
            "quality": finite(self.quality),
            "per_part": [[q.part, finite(q.dilation), q.blocks] for q in self.per_part],
        }


@dataclass(frozen=True)
class DensityBounds:
    r: int
    delta_low: Fraction
    delta_high: float


def as_edge_map(shortcut) -> Mapping[int, frozenset[int]]:
    """Normalize a shortcut-like object to a mapping part index -> edge id set.

    Accepts the engine's full and partial shortcut types (via their
    `edge_sets` attribute), plain mappings, and plain sequences of sets.
    """
    obj = getattr(shortcut, "edge_sets", shortcut)
    if isinstance(obj, Mapping):
        return {i: frozenset(es) for i, es in obj.items()}
    if isinstance(obj, Sequence):
        return {i: frozenset(es) for i, es in enumerate(obj)}
    raise TypeError(f"cannot interpret {type(shortcut).__name__} as a shortcut")


def measure_congestion(g: Graph, shortcut) -> int:
    """Maximum over edges of the number of parts whose H_i contains the edge."""
    counts: dict[int, int] = {}
    for edges in as_edge_map(shortcut).values():
        for eid in edges:
            if not (0 <= eid < g.m):
                raise GraphError(f"unknown edge id {eid}")
            counts[eid] = counts.get(eid, 0) + 1
    return max(counts.values(), default=0)


def _merged_subgraph(g: Graph, part: Sequence[int], edges: frozenset[int]):
    """Node set and adjacency lists of G[P_i] + H_i."""
    adj: dict[int, list[int]] = {v: [] for v in part}
    for eid in edges:
        u, v = g.endpoints(eid)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    part_set = frozenset(part)
    for v in part:
        for u, eid in g.adjacency(v):
            if u in part_set and v < u and eid not in edges:
                adj[u].append(v)
                adj[v].append(u)
    return adj.keys(), adj


def measure_dilation(g: Graph, p: Partition, shortcut) -> int | float:
    """Max over parts of diameter(G[P_i] + H_i); INFINITE if any merged subgraph splits."""
    edge_map = as_edge_map(shortcut)
    best: int | float = 0
    for i in range(p.k):
        nodes, adj = _merged_subgraph(g, p.parts[i], edge_map.get(i, frozenset()))
        d = _diameter_of(adj, nodes)
        if d == INFINITE:
            return INFINITE
        best = max(best, d)
    return best


def part_blocks(g: Graph, t: RootedTree, part: Sequence[int], edges: frozenset[int]) -> int:
    for eid in edges:
        if not t.is_tree_edge(eid):
            raise GraphError(f"edge {eid} is not a tree edge; shortcut is not tree-restricted")
    nodes = set(part)
    for eid in edges:
        u, v = g.endpoints(eid)
        nodes.add(u)
        nodes.add(v)
    # union-find over (P_i ∪ V(H_i), H_i)
    root: dict[int, int] = {v: v for v in nodes}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    components = len(nodes)
    for eid in edges:
        u, v = g.endpoints(eid)
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            components -= 1
    return components


def measure_blocks(t: RootedTree, p: Partition, shortcut) -> int:
    """Max over parts of the component count of (P_i ∪ V(H_i), H_i)."""
    edge_map = as_edge_map(shortcut)
    g = t.graph
    return max(
        part_blocks(g, t, p.parts[i], edge_map.get(i, frozenset())) for i in range(p.k)
    )


def check_tree_restricted(shortcut, t: RootedTree) -> bool:
    return all(
        eid in t.tree_edges
        for edges in as_edge_map(shortcut).values()
        for eid in edges
    )


def block_dilation_bound(b: int, D: int) -> int:
    """Dilation guarantee of a b-block tree-restricted shortcut on a depth-D tree."""
    if b < 0 or D < 0:
        raise ValueError("b and D must be non-negative")
    return b * (2 * D + 1)


def partial_to_full_congestion(c: int, k: int) -> int:
    """Congestion bound after iterating partial shortcuts until all k parts are covered."""
    if k < 1:
        raise ValueError("k must be positive")
    return c * math.ceil(math.log2(max(k, 2)))


def thomason_bounds(r: int) -> DensityBounds:
    """Two-sided bounds on the minor density of a graph whose largest clique minor is K_r."""
    if r < 2:
        raise ValueError("r must be at least 2")
    return DensityBounds(
        r=r,
        delta_low=Fraction(r - 1, 2),
        delta_high=8.0 * r * math.sqrt(math.log2(r)),
    )


def audit_shortcut(g: Graph, t: RootedTree, p: Partition, shortcut) -> QualityReport:
    """Full recomputation of (congestion, dilation, blocks, quality) plus per-part detail."""
    edge_map = as_edge_map(shortcut)
    per_part = []
    worst_dilation: int | float = 0
    worst_blocks = 0
    for i in range(p.k):
        edges = edge_map.get(i, frozenset())
        nodes, adj = _merged_subgraph(g, p.parts[i], edges)
        dil = _diameter_of(adj, nodes)
        blocks = part_blocks(g, t, p.parts[i], edges)
        per_part.append(PartQuality(i, dil, blocks))
        worst_dilation = max(worst_dilation, dil)
        worst_blocks = max(worst_blocks, blocks)
    congestion = measure_congestion(g, shortcut)
    return QualityReport(
        congestion=congestion,
        dilation=worst_dilation,
        blocks=worst_blocks,
        quality=congestion + worst_dilation,
        per_part=tuple(per_part),
    )


def validate_minor(g: Graph, cert) -> Violation | None:
    """Check a minor certificate against its host graph; first violation or None.

    Verifies set disjointness, per-set connectivity, witness-edge realization
    of every minor edge, simplicity, and the exact rational density.
    """
    owner: dict[int, int] = {}
    for idx, mnode in enumerate(cert.nodes):
        vertices = tuple(mnode.vertices)
        if not vertices:
            return Violation("empty-set", f"minor node {idx} maps to an empty vertex set")
        for v in vertices:
            if not (0 <= v < g.n):
                return Violation("bad-vertex", f"minor node {idx} contains invalid node {v}")
            if v in owner:
                return Violation(
                    "disjointness",
                    f"node {v} appears in minor nodes {owner[v]} and {idx}",
                )
            owner[v] = idx
    for idx, mnode in enumerate(cert.nodes):
        allowed = frozenset(mnode.vertices)
        start = mnode.vertices[0]
        dist = bfs_distances(g, start, allowed)
        if any(dist[v] < 0 for v in allowed):
            return Violation("connectivity", f"minor node {idx} induces a disconnected set")
    seen_pairs: set[tuple[int, int]] = set()
    for medge in cert.edges:
        a, b = medge.a, medge.b
        if a == b:
            return Violation("self-edge", f"minor edge joins node {a} to itself")
        if not (0 <= a < len(cert.nodes) and 0 <= b < len(cert.nodes)):
            return Violation("bad-endpoint", f"minor edge ({a}, {b}) out of range")
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            return Violation("duplicate-edge", f"minor edge {key} listed twice")
        seen_pairs.add(key)
        if not (0 <= medge.witness < g.m):
            return Violation("bad-witness", f"witness edge id {medge.witness} unknown")
        u, v = g.endpoints(medge.witness)
        sides = {owner.get(u), owner.get(v)}
        if sides != {a, b}:
            return Violation(
                "edge-realization",
                f"witness edge {medge.witness}=({u},{v}) does not join sets {a} and {b}",
            )
    recomputed = Fraction(len(cert.edges), len(cert.nodes)) if cert.nodes else Fraction(0)
    if cert.density != recomputed:
        return Violation(
            "density", f"stated density {cert.density} != recomputed {recomputed}"
        )
    return None

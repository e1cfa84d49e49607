"""Measurement and validation of shortcuts and minor certificates.

Everything here recomputes from scratch: congestion, dilation, block counts,
tree-restriction, and certificate soundness are derived only from the graph,
the partition, and the candidate object, never trusted from producer
bookkeeping.  `audit_shortcut` checks the edge ids once, at its entry (each
an int and a tree edge); the helpers it calls trust them.  Each part's
merged subgraph G[P_i] + H_i is built once and yields both measures:
dilation is its diameter, and blocks, the components of the forest
(P_i ∪ V(H_i), H_i), are its node count minus |H_i|.  A one-node part with
an empty H_i costs O(1): dilation 0 and one block, with no subgraph built.
Closed-form bounds are exposed as pure functions so tests can compare
measured values against formula values explicitly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .graph import (
    INFINITE,
    Graph,
    GraphError,
    Partition,
    RootedTree,
    _check_node_count,
    _diameter_of,
    _first_disconnected,
)


class PartQuality(NamedTuple):
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


def as_edge_map(shortcut) -> Mapping[int, frozenset[int]]:
    """A shortcut as a mapping part index -> edge id set.

    A shortcut is a mapping from part index to edge ids (parts without an
    entry get no edges) or a sequence of edge-id sets indexed by part, such
    as the engine's full shortcut tuple; anything else raises TypeError.
    """
    if isinstance(shortcut, Mapping):
        return {i: frozenset(es) for i, es in shortcut.items()}
    if isinstance(shortcut, Sequence):
        return {i: frozenset(es) for i, es in enumerate(shortcut)}
    raise TypeError(f"cannot interpret {type(shortcut).__name__} as a shortcut")


def _part_edge_map(shortcut, p: Partition) -> Mapping[int, frozenset[int]]:
    """`as_edge_map(shortcut)`; raises GraphError on an entry keyed by anything
    but an int (a bool is not one) or for no part of `p`, and on a sequence
    with fewer entries than `p` has parts."""
    edge_map = as_edge_map(shortcut)
    for i in edge_map:
        if type(i) is not int:
            raise GraphError(f"shortcut has an entry keyed {i!r}, not a part index")
    stray = [i for i in edge_map if not 0 <= i < p.k]
    if stray:
        raise GraphError(f"shortcut has an entry for part {min(stray)}; partition has {p.k} parts")
    if not isinstance(shortcut, Mapping) and len(edge_map) < p.k:
        raise GraphError(f"shortcut covers {len(edge_map)} parts, partition has {p.k}")
    return edge_map


def measure_congestion(shortcut) -> int:
    """Maximum over edges of the number of parts whose H_i contains the edge
    (the caller checks the edge ids)."""
    counts = Counter(eid for edges in as_edge_map(shortcut).values() for eid in edges)
    return max(counts.values(), default=0)


def _merged_subgraph(g: Graph, part: Sequence[int], edges: frozenset[int]):
    """Node set and adjacency lists of G[P_i] + H_i (the caller checks the ids):
    a part node lists its part neighbours, ascending, then its H_i edges out of
    the part; the nodes are the part's, then the other H_i endpoints."""
    part_set = frozenset(part)
    inside = part_set.__contains__
    adj: dict[int, list[int]] = {v: list(filter(inside, g.neighbors(v))) for v in part}
    for eid in edges:
        u, v = g.edges[eid]
        if u not in part_set or v not in part_set:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    return adj.keys(), adj


def part_blocks(nodes, edges: frozenset[int]) -> int:
    """Component count of the forest (P_i ∪ V(H_i), H_i), given its node set.

    The caller checks that H_i is a set of tree edges, so it is a forest and
    every edge joins two components: the count is |nodes| - |H_i|.
    """
    return len(nodes) - len(edges)


def _check_edge_types(bad) -> None:
    """Raise GraphError if an id among `bad`, (part, edge id) pairs, is not
    an int (a bool is not one), naming the smallest such part and its id
    first in repr order, so ids of different types are never compared."""
    wrong = [(i, repr(e)) for i, e in bad if type(e) is not int]
    if wrong:
        i, e = min(wrong)
        raise GraphError(f"shortcut of part {i} has edge id {e}, not an int")


def check_tree_restricted(shortcut, t: RootedTree) -> None:
    """Raise GraphError unless every edge id of `shortcut` is an int and an
    edge of `t`, hence also a known edge; on failure name an id that is not
    an int, if any, else the smallest unknown id, else the smallest
    non-tree edge."""
    tree_edges = t.tree_edges
    bad = [
        (i, e)
        for i, es in as_edge_map(shortcut).items()
        for e in es
        if type(e) is not int or e not in tree_edges
    ]
    if bad:
        _check_edge_types(bad)
        unknown = [e for _, e in bad if not 0 <= e < t.graph.m]
        if unknown:
            raise GraphError(f"unknown edge id {min(unknown)}")
        raise GraphError(
            f"edge {min(e for _, e in bad)} is not a tree edge; shortcut is not tree-restricted"
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


def audit_shortcut(g: Graph, t: RootedTree, p: Partition, shortcut) -> QualityReport:
    """Full recomputation of (congestion, dilation, blocks, quality) plus per-part
    detail; raises GraphError unless `p` is built for `g` and `shortcut`, with
    entries for parts of `p` only, is restricted to `t`."""
    _check_node_count(g, p)
    edge_map = _part_edge_map(shortcut, p)
    check_tree_restricted(edge_map, t)
    per_part = []
    worst_dilation: int | float = 0
    worst_blocks = 0
    for i in range(p.k):
        part, edges = p.parts[i], edge_map.get(i, frozenset())
        if not edges and len(part) == 1:  # a lone node: one block, no distance
            dil, blocks = 0, 1
        else:
            nodes, adj = _merged_subgraph(g, part, edges)
            blocks = part_blocks(nodes, edges)
            dil = _diameter_of(adj, nodes)
        per_part.append(PartQuality(i, dil, blocks))
        worst_dilation = max(worst_dilation, dil)
        worst_blocks = max(worst_blocks, blocks)
    congestion = measure_congestion(edge_map)
    return QualityReport(
        congestion=congestion,
        dilation=worst_dilation,
        blocks=worst_blocks,
        quality=congestion + worst_dilation,
        per_part=tuple(per_part),
    )


def validate_minor(g: Graph, cert) -> None:
    """Check a minor certificate against its host graph; raise GraphError on its first flaw.

    Verifies that every vertex, minor-edge endpoint and witness is an
    in-range int (a bool is not), set disjointness, per-set connectivity (as
    `validate_partition` does), witness-edge realization of every minor edge,
    simplicity and the exact rational density; its owner list of n entries
    costs O(n).
    """
    owner: list[int | None] = [None] * g.n
    for idx, mnode in enumerate(cert.nodes):
        vertices = tuple(mnode.vertices)
        if not vertices:
            raise GraphError(f"minor node {idx} maps to an empty vertex set")
        for v in vertices:
            if type(v) is not int or not 0 <= v < g.n:  # before the index: -1 would wrap
                raise GraphError(f"minor node {idx} contains invalid node {v!r}")
            if owner[v] is not None:
                raise GraphError(f"node {v} appears in minor nodes {owner[v]} and {idx}")
            owner[v] = idx
    idx = _first_disconnected(g, [mnode.vertices for mnode in cert.nodes], owner)
    if idx is not None:
        raise GraphError(f"minor node {idx} induces a disconnected set")
    seen_pairs: set[tuple[int, int]] = set()
    for medge in cert.edges:
        a, b = medge.a, medge.b
        if a == b:
            raise GraphError(f"minor edge joins node {a} to itself")
        if not (type(a) is type(b) is int and 0 <= min(a, b) and max(a, b) < len(cert.nodes)):
            raise GraphError(f"minor edge ({a!r}, {b!r}) out of range")
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            raise GraphError(f"minor edge {key} listed twice")
        seen_pairs.add(key)
        if type(medge.witness) is not int or not 0 <= medge.witness < g.m:
            raise GraphError(f"witness edge id {medge.witness!r} unknown")
        u, v = g.edges[medge.witness]
        if {owner[u], owner[v]} != {a, b}:
            raise GraphError(
                f"witness edge {medge.witness}=({u},{v}) does not join sets {a} and {b}"
            )
    recomputed = Fraction(len(cert.edges), len(cert.nodes)) if cert.nodes else Fraction(0)
    if cert.density != recomputed:
        raise GraphError(f"stated density {cert.density} != recomputed {recomputed}")

"""Shortcut-based applications run on the simulator, with exact oracles.

MST and component labelling share one Boruvka merge loop (`_boruvka`).
Fragments start as singletons; the graph never changes, so one BFS tree
serves the whole run.  Every phase builds a shortcut for the current
fragments on that tree, finds each fragment's minimum-key outgoing edge by
partwise aggregation (charged rounds), and merges along the chosen edges in
part order (centralized bookkeeping, uncharged, mirroring the simulator's
control-plane rule).  The loop stops when one fragment is left or when a
phase chooses no edge.  The bookkeeping is linear per phase: every node's
fragment label is found once, and the edge keys are one list built per run.

MST keys an edge by its weight, then its id.  Distinct weights make the MST
unique and the per-phase choice cycle-free.

Component labelling runs the loop per connected component of the host
graph, keying only the designated subset's edges, by id.  Fragments grow to
the subset's components, and the loop stops at the first phase in which no
fragment has an outgoing subset edge (or at one fragment).  One last
aggregation gives every node its fragment's minimum id as the label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .engine import EngineConfig, construct_full
from .graph import MAX_WEIGHT, Graph, GraphError, Partition, bfs_tree
from .audit import audit_shortcut
from .sim import (
    AggregationTask,
    SimConfig,
    aggregate_header_bits,
    int_bits,
    partwise_aggregate,
)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if rv < ru:  # keep the smaller id as root so labels are canonical
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.count -= 1
        return True

    def labels(self) -> list[int]:
        """Each node's root, in node order."""
        return [self.find(v) for v in range(len(self.parent))]


@dataclass(frozen=True)
class PhaseStats:
    fragments: int
    quality: int | float
    rounds: int
    delta_final: int
    tree_depth: int


@dataclass(frozen=True)
class MstResult:
    tree_edges: frozenset[int]
    total_weight: int
    per_phase: tuple[PhaseStats, ...]

    @property
    def phases(self) -> int:
        return len(self.per_phase)

    @property
    def rounds_total(self) -> int:
        return sum(ph.rounds for ph in self.per_phase)

    def to_json_dict(self) -> dict:
        return {
            "tree_edges": sorted(self.tree_edges),
            "total_weight": self.total_weight,
            "phases": self.phases,
            "rounds_total": self.rounds_total,
            "per_phase": [
                {
                    "fragments": ph.fragments,
                    "quality": ph.quality,
                    "rounds": ph.rounds,
                    "delta_final": ph.delta_final,
                    "tree_depth": ph.tree_depth,
                }
                for ph in self.per_phase
            ],
        }


def kruskal_oracle(g: Graph) -> tuple[frozenset[int], int]:
    """Exact MST by sort + union-find; the reference the simulator is held to."""
    g.require_distinct_weights()
    uf = UnionFind(g.n)
    chosen = []
    for eid in sorted(range(g.m), key=lambda e: g.weights[e]):
        u, v = g.endpoints(eid)
        if uf.union(u, v):
            chosen.append(eid)
    if len(chosen) != g.n - 1:
        raise GraphError("graph is disconnected")
    return frozenset(chosen), sum(g.weights[e] for e in chosen)


def _fragment_parts(labels: list[int]) -> Partition:
    """The fragments of a labelling (node -> its fragment's root)."""
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(labels):
        groups.setdefault(root, []).append(v)
    return Partition(len(labels), groups.values())  # first seen is the minimum: min-id order


def _min_outgoing(
    g: Graph,
    labels: list[int],
    keys: list[int | None],
    sentinel: int,
) -> dict[int, int]:
    """Per-node value: minimum key among incident edges leaving the fragment."""
    values = {}
    for v in range(g.n):
        own = labels[v]
        best = sentinel
        for u, eid in g.adjacency(v):
            if labels[u] != own:
                k = keys[eid]
                if k is not None and k < best:
                    best = k
        values[v] = best
    return values


def _edge_bits(g: Graph) -> int:
    """Bits that hold any edge id of g (at least one): the low bits of a key."""
    return max(1, (g.m - 1).bit_length())


def _phase(g, tree, parts, values, cfg, tag, sentinel, max_delta, rng):
    """Shortcut the fragments `parts` on `tree`, then aggregate the minimum of
    `values` per fragment, with messages wide enough for the sentinel.

    Returns (construction result, per-node minima, trace).
    """
    result = construct_full(g, tree, parts, EngineConfig(max_delta=max_delta), rng)
    phase_cfg = replace(
        cfg,
        msg_bits=max(
            cfg.msg_bits_for(g.n), aggregate_header_bits(parts.k) + int_bits(sentinel)
        ),
        seed=f"{cfg.seed}:{tag}",
    )
    task = AggregationTask(values=values, op="min", parts=parts)
    results, trace = partwise_aggregate(g, parts, result.shortcut, task, phase_cfg)
    return result, results, trace


def _boruvka(g, tree, uf, keys, sentinel, cfg, tag, max_delta, rng):
    """Merge the fragments of `uf` along their minimum-key outgoing edges.

    `keys[eid]` is None for an edge that may not be chosen, else an int
    below `sentinel` whose low `_edge_bits(g)` bits are `eid`.  Each phase
    labels every node with its fragment's root once; the outgoing minima and
    the fragment partition both read those labels.  Phase N is
    tagged f"{tag}{N}".  Yields (fragment partition, construction result,
    trace, chosen edge ids) per phase, after merging; stops when one
    fragment is left or a phase chooses no edge.
    """
    mask = (1 << _edge_bits(g)) - 1
    max_phases = math.ceil(math.log2(max(g.n, 2))) + 2
    phase = 0
    while uf.count > 1:
        phase += 1
        if phase > max_phases:
            raise GraphError("fragment count failed to halve; merging is stuck")
        labels = uf.labels()
        values = _min_outgoing(g, labels, keys, sentinel)
        parts = _fragment_parts(labels)
        result, results, trace = _phase(
            g, tree, parts, values, cfg, f"{tag}{phase}", sentinel, max_delta, rng
        )
        minima = [results[nodes[0]] for nodes in parts.parts]
        chosen = [best & mask for best in minima if best != sentinel]
        for eid in chosen:
            uf.union(*g.endpoints(eid))
        yield parts, result, trace, chosen
        if not chosen:
            return


def boruvka_mst(g: Graph, cfg: SimConfig, max_delta: int | None = None) -> MstResult:
    """Distributed-style Boruvka on the simulator; exact unique MST."""
    g.require_distinct_weights()
    tree = bfs_tree(g, 0)  # also the connectivity check
    eb = _edge_bits(g)
    rng = random.Random(f"{cfg.seed}:mst")
    mst_edges: set[int] = set()
    per_phase: list[PhaseStats] = []
    for parts, result, trace, chosen in _boruvka(
        g, tree, UnionFind(g.n), [(w << eb) | e for e, w in enumerate(g.weights)],
        MAX_WEIGHT << eb, cfg, "mst-phase", max_delta, rng,
    ):
        report = audit_shortcut(g, tree, parts, result.shortcut)
        per_phase.append(
            PhaseStats(
                fragments=parts.k,
                quality=report.quality,
                rounds=trace.rounds_used,
                delta_final=result.delta_final,
                tree_depth=tree.D,
            )
        )
        mst_edges.update(chosen)
    if len(mst_edges) != g.n - 1:
        raise GraphError("merging finished with a non-spanning edge set")
    return MstResult(
        tree_edges=frozenset(mst_edges),
        total_weight=sum(g.weights[e] for e in mst_edges),
        per_phase=tuple(per_phase),
    )


def label_components(
    g: Graph, subgraph_edges, cfg: SimConfig, max_delta: int | None = None
) -> dict[int, int]:
    """Minimum-member-id label of each component of (V, subgraph_edges).

    Runs weightless Boruvka per connected component of the host graph:
    fragments merge along minimum-id outgoing subset edges, then every node
    learns its fragment's minimum id by one final aggregation.
    """
    active = frozenset(subgraph_edges)
    for eid in active:
        if not (0 <= eid < g.m):
            raise GraphError(f"unknown edge id {eid}")
    host = UnionFind(g.n)
    for u, v in g.edges:
        host.union(u, v)
    comps = _fragment_parts(host.labels())
    comp_edges: list[list[int]] = [[] for _ in range(comps.k)]  # ascending host ids
    for eid, (u, _) in enumerate(g.edges):
        comp_edges[comps.part_of[u]].append(eid)
    labels: dict[int, int] = {}
    for comp, edge_back in zip(comps.parts, comp_edges):
        if len(comp) == 1:
            labels[comp[0]] = comp[0]
            continue
        idx = {v: i for i, v in enumerate(comp)}
        sub = Graph(len(comp), [(idx[u], idx[v]) for u, v in map(g.endpoints, edge_back)])
        tree = bfs_tree(sub, 0)
        rng = random.Random(f"{cfg.seed}:labels")
        uf = UnionFind(sub.n)
        for _ in _boruvka(
            sub, tree, uf, [e if eid in active else None for e, eid in enumerate(edge_back)],
            sub.m + 1, cfg, "label-phase", max_delta, rng,
        ):
            pass
        ids = {v: v for v in range(sub.n)}
        parts = _fragment_parts(uf.labels())
        _, minima, _ = _phase(
            sub, tree, parts, ids, cfg, "label-final", sub.m + 1, max_delta, rng
        )
        for v_sub, v in enumerate(comp):
            labels[v] = comp[minima[v_sub]]
    return labels

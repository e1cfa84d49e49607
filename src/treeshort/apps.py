"""Shortcut-based applications run on the simulator, with exact oracles.

Boruvka MST: fragments start as singletons; the graph never changes, so one
BFS tree serves the whole run.  Every phase builds a shortcut for the current
fragments on that tree, finds each fragment's minimum-weight outgoing edge by
partwise aggregation (charged rounds), and merges along the chosen edges
(centralized bookkeeping, uncharged, mirroring the simulator's control-plane
rule).  Distinct weights make the MST unique and the per-phase choice
cycle-free.

Component labeling is Boruvka without weights: fragments of a designated
edge subset merge along their minimum-id outgoing subset edge until none
remains, then learn their minimum member id as the label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .engine import EngineConfig, construct_full
from .graph import Graph, GraphError, Partition, bfs_tree
from .audit import audit_shortcut
from .sim import (
    AggregationTask,
    SimConfig,
    default_msg_bits,
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
    phases: int
    rounds_total: int
    per_phase: tuple[PhaseStats, ...]

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


def _fragment_parts(g: Graph, uf: UnionFind) -> Partition:
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v), []).append(v)
    ordered = [groups[r] for r in sorted(groups, key=lambda r: min(groups[r]))]
    return Partition(g.n, ordered)


def _min_outgoing(
    g: Graph,
    uf: UnionFind,
    key_of,
    sentinel: int,
) -> dict[int, int]:
    """Per-node value: minimum key among incident edges leaving the fragment."""
    values = {}
    for v in range(g.n):
        best = sentinel
        for u, eid in g.adjacency(v):
            if uf.find(u) != uf.find(v):
                k = key_of(eid)
                if k is not None and k < best:
                    best = k
        values[v] = best
    return values


def _phase(g, tree, uf, values, cfg, tag, sentinel, max_delta, rng):
    """Shortcut the current fragments on `tree`, then aggregate the minimum of
    `values` per fragment, with messages wide enough for the sentinel.

    Returns (fragment partition, construction result, per-node minima, trace).
    """
    parts = _fragment_parts(g, uf)
    result = construct_full(g, tree, parts, EngineConfig(max_delta=max_delta), rng)
    header = int_bits(max(parts.k - 1, 0)) + int_bits(1)
    phase_cfg = replace(
        cfg,
        msg_bits=max(
            cfg.msg_bits if cfg.msg_bits is not None else default_msg_bits(g.n),
            header + int_bits(sentinel),
        ),
        seed=f"{cfg.seed}:{tag}",
    )
    task = AggregationTask(values=values, op="min", parts=parts)
    results, trace = partwise_aggregate(g, parts, result.shortcut, task, phase_cfg)
    return parts, result, results, trace


def boruvka_mst(
    g: Graph, cfg: SimConfig, max_delta: int | None = None
) -> MstResult:
    """Distributed-style Boruvka on the simulator; exact unique MST."""
    g.require_distinct_weights()
    tree = bfs_tree(g, 0)  # also the connectivity check
    eb = max(1, (max(g.m - 1, 1)).bit_length())
    sentinel = 1 << (31 + eb)
    mask = (1 << eb) - 1
    rng = random.Random(f"{cfg.seed}:mst")
    uf = UnionFind(g.n)
    mst_edges: set[int] = set()
    per_phase: list[PhaseStats] = []
    rounds_total = 0
    phases = 0
    max_phases = math.ceil(math.log2(max(g.n, 2))) + 2
    while uf.count > 1:
        phases += 1
        if phases > max_phases:
            raise GraphError("fragment count failed to halve; merging is stuck")
        values = _min_outgoing(g, uf, lambda e: (g.weights[e] << eb) | e, sentinel)
        parts, result, results, trace = _phase(
            g, tree, uf, values, cfg, f"mst-phase{phases}", sentinel, max_delta, rng
        )
        report = audit_shortcut(g, tree, parts, result.shortcut)
        rounds_total += trace.rounds_used
        per_phase.append(
            PhaseStats(
                fragments=parts.k,
                quality=report.quality,
                rounds=trace.rounds_used,
                delta_final=result.delta_final,
                tree_depth=tree.D,
            )
        )
        for i in range(parts.k):
            best = results[parts.parts[i][0]]
            if best == sentinel:
                raise GraphError(f"fragment {i} has no outgoing edge; graph disconnected")
            eid = best & mask
            u, v = g.endpoints(eid)
            if uf.find(u) != uf.find(v):
                uf.union(u, v)
            mst_edges.add(eid)
    if len(mst_edges) != g.n - 1:
        raise GraphError("merging finished with a non-spanning edge set")
    return MstResult(
        tree_edges=frozenset(mst_edges),
        total_weight=sum(g.weights[e] for e in mst_edges),
        phases=phases,
        rounds_total=rounds_total,
        per_phase=tuple(per_phase),
    )


def _induced(g: Graph, nodes: list[int]) -> tuple[Graph, list[int]]:
    idx = {v: i for i, v in enumerate(nodes)}
    edges = []
    edge_back = []
    for eid, (u, v) in enumerate(g.edges):
        if u in idx and v in idx:
            edges.append((idx[u], idx[v]))
            edge_back.append(eid)
    return Graph(len(nodes), edges), edge_back


def _connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        for v in comp:
            for u, _ in g.adjacency(v):
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comps.append(sorted(comp))
    return comps


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
    labels: dict[int, int] = {}
    for comp in _connected_components(g):
        if len(comp) == 1:
            labels[comp[0]] = comp[0]
            continue
        sub, edge_back = _induced(g, comp)
        sub_active = frozenset(
            se for se, orig in enumerate(edge_back) if orig in active
        )
        sub_labels = _label_connected(sub, sub_active, cfg, max_delta)
        for v_sub, lab_sub in sub_labels.items():
            labels[comp[v_sub]] = comp[lab_sub]
    return labels


def _label_connected(
    g: Graph, active: frozenset[int], cfg: SimConfig, max_delta: int | None
) -> dict[int, int]:
    tree = bfs_tree(g, 0)
    rng = random.Random(f"{cfg.seed}:labels")
    uf = UnionFind(g.n)
    sentinel = g.m + 1
    phase = 0
    max_phases = math.ceil(math.log2(max(g.n, 2))) + 2

    def run_phase(values, tag):
        parts, _, results, _ = _phase(g, tree, uf, values, cfg, tag, sentinel, max_delta, rng)
        return parts, results

    while True:
        phase += 1
        if phase > max_phases:
            raise GraphError("fragment merging failed to make progress")
        values = _min_outgoing(
            g, uf, lambda e: e if e in active else None, sentinel
        )
        parts, results = run_phase(values, f"label-phase{phase}")
        merged_any = False
        for i in range(parts.k):
            best = results[parts.parts[i][0]]
            if best == sentinel:
                continue
            u, v = g.endpoints(best)
            if uf.find(u) != uf.find(v):
                uf.union(u, v)
            merged_any = True
        if not merged_any:
            break
    ids = {v: v for v in range(g.n)}
    parts, results = run_phase(ids, "label-final")
    return {v: results[v] for v in range(g.n)}

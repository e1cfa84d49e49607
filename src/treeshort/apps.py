"""Shortcut-based applications run on the simulator, with exact oracles.

MST runs Boruvka's merge loop on the shortcut framework (Ghaffari &
Haeupler, SODA 2016).  Fragments start as singletons; the graph never
changes, so one BFS tree serves the whole run.  Every phase builds a
shortcut for the current fragments on that tree, finds each fragment's
minimum-key outgoing edge by partwise aggregation (charged rounds), and
merges along the chosen edges in part order (centralized bookkeeping,
uncharged, mirroring the simulator's control-plane rule).  The loop stops
when one fragment is left.  The bookkeeping is linear per phase: every
node's fragment label is found once, and the edge keys are one list built
per run.

An edge's key is its weight, then its id.  Distinct weights make the MST
unique and the per-phase choice cycle-free.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, replace

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
            "per_phase": [asdict(ph) for ph in self.per_phase],
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


def _min_outgoing(g: Graph, labels: list[int], keys: list[int], sentinel: int) -> dict[int, int]:
    """Per-node value: minimum key among incident edges leaving the
    fragment, else `sentinel` (above every key)."""
    values = {}
    for v in range(g.n):
        own = labels[v]
        best = sentinel
        for u, eid in g.adjacency(v):
            if labels[u] != own:
                k = keys[eid]
                if k < best:
                    best = k
        values[v] = best
    return values


def boruvka_mst(g: Graph, cfg: SimConfig, max_delta: int | None = None) -> MstResult:
    """Distributed-style Boruvka on the simulator; exact unique MST.

    An edge's key is its weight above its id's low `eb` bits, and a fragment
    with no outgoing edge reports the sentinel, which no key reaches.  Phase
    N aggregates under the simulator seed f"{cfg.seed}:mst-phase{N}" and
    audits its shortcut after merging.
    """
    g.require_distinct_weights()
    tree = bfs_tree(g, 0)  # also the connectivity check
    eb = max(1, (g.m - 1).bit_length())  # bits that hold any edge id
    keys = [(w << eb) | e for e, w in enumerate(g.weights)]
    sentinel, mask = MAX_WEIGHT << eb, (1 << eb) - 1
    rng = random.Random(f"{cfg.seed}:mst")
    max_phases = math.ceil(math.log2(max(g.n, 2))) + 2
    uf = UnionFind(g.n)
    mst_edges: set[int] = set()
    per_phase: list[PhaseStats] = []
    while uf.count > 1:
        if len(per_phase) == max_phases:
            raise GraphError("fragment count failed to halve; merging is stuck")
        labels = uf.labels()
        values = _min_outgoing(g, labels, keys, sentinel)
        parts = _fragment_parts(labels)
        result = construct_full(g, tree, parts, EngineConfig(max_delta=max_delta), rng)
        phase_cfg = replace(
            cfg,
            msg_bits=max(
                cfg.msg_bits_for(g.n), aggregate_header_bits(parts.k) + int_bits(sentinel)
            ),
            seed=f"{cfg.seed}:mst-phase{len(per_phase) + 1}",
        )
        task = AggregationTask(values=values, op="min", parts=parts)
        minima, trace = partwise_aggregate(g, parts, result.shortcut, task, phase_cfg)
        for nodes in parts.parts:
            best = minima[nodes[0]]
            if best != sentinel:  # only a faulty aggregate; the guards catch it
                eid = best & mask
                mst_edges.add(eid)
                uf.union(*g.endpoints(eid))
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
    if len(mst_edges) != g.n - 1:
        raise GraphError("merging finished with a non-spanning edge set")
    return MstResult(
        tree_edges=frozenset(mst_edges),
        total_weight=sum(g.weights[e] for e in mst_edges),
        per_phase=tuple(per_phase),
    )

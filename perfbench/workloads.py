"""Workloads: instance builders, the timed pipeline, output checks and digests.

An instance is built the way `treeshort gen` builds it; an operation runs one
instance through the call sequence of `treeshort shortcut` and `treeshort
aggregate` (and, on the MST workload, `treeshort mst`).  Checks and digests
run outside the timed region.  Every timed region (a build, an op, a run of
the reference kernel) starts right after `gc.collect()`, so where a collection
fires inside it does not depend on the garbage that earlier regions left.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass

from treeshort import apps, audit, engine, generators, graph, sim

# MST op cost varies most between instances (three or four Boruvka phases), so
# mst-ktree draws more of them to keep its per-run mean steady across seeds
INSTANCES_PER_RUN = {"grid-audit": 24, "fan-sim": 24, "mst-ktree": 36}
GRID_SIDE, GRID_PARTS = 32, 200
FAN_PARTS = 150
KTREE_N, KTREE_PARTS = 1000, 100


def _fan(mids: int, parts_count: int, rng: random.Random):
    """Two-level fan: root 0, `mids` middles, each part one leaf per middle,
    leaves of a part chained.  Non-root ids are shuffled by `rng`."""
    n = 1 + mids + parts_count * mids
    label = list(range(1, n))
    rng.shuffle(label)
    label.insert(0, 0)

    def leaf(i, b):
        return label[1 + mids + i * mids + b]

    edges = [(0, label[1 + b]) for b in range(mids)]
    for i in range(parts_count):
        for b in range(mids):
            edges.append((label[1 + b], leaf(i, b)))
        for b in range(mids - 1):
            edges.append((leaf(i, b), leaf(i, b + 1)))
    g = graph.Graph(n, edges)
    return g, graph.Partition(n, [[leaf(i, b) for b in range(mids)] for i in range(parts_count)])


def generate(workload: str, seed: int):
    """Graph and partition of one instance; what `treeshort gen` draws."""
    if workload == "grid-audit":
        g = generators.gen_grid(GRID_SIDE, GRID_SIDE)
        return g, generators.gen_parts_random(g, GRID_PARTS, seed)
    if workload == "fan-sim":
        return _fan(33, FAN_PARTS, random.Random(seed))
    g = generators.gen_ktree(KTREE_N, 3, seed)
    parts = generators.gen_parts_random(g, KTREE_PARTS, seed)
    return generators.assign_weights(g, seed), parts


@dataclass
class Instance:
    seed: int
    g: graph.Graph
    parts: graph.Partition
    values: dict[int, int]
    setup_s: float


def build_instance(workload: str, seed: int) -> Instance:
    """Generate, validate the partition, and take the diameter `gen` records.

    The fan is not a `gen` family and has no meta diameter.
    """
    gc.collect()
    start = time.perf_counter()
    g, parts = generate(workload, seed)
    violation = graph.validate_partition(g, parts)
    if violation is not None:
        raise graph.GraphError(f"invalid partition: {violation}")
    if workload != "fan-sim":
        graph.diameter(g)
    setup_s = time.perf_counter() - start
    # node ids are the aggregation inputs, as in `treeshort aggregate`
    inst = Instance(seed, g, parts, {v: v for v in range(g.n)}, setup_s)
    # instances live for the whole run; frozen, they are not rescanned by the
    # collections inside later builds, ops and kernel runs, as they would not
    # be in a fresh `treeshort` process
    gc.collect()
    gc.freeze()
    return inst


@dataclass
class Op:
    shortcut_s: float
    aggregate_s: float
    mst_s: float
    tree: graph.RootedTree
    result: engine.FullShortcutResult
    report: audit.QualityReport
    aggregates: dict[int, int]
    agg_trace: sim.RoundTrace
    mst: apps.MstResult | None
    oracle: tuple[frozenset[int], int] | None

    @property
    def op_s(self) -> float:
        return self.shortcut_s + self.aggregate_s + self.mst_s

    @property
    def quality(self):
        """Worst audited quality over every shortcut the op constructed."""
        phases = self.mst.per_phase if self.mst is not None else ()
        return max([self.report.quality] + [ph.quality for ph in phases])


def run_op(inst: Instance, with_mst: bool, log_messages: bool = False) -> Op:
    """One operation.  Calls go through module attributes so that a tracer
    can rebind them."""
    g, parts = inst.g, inst.parts
    gc.collect()
    t0 = time.perf_counter()
    tree = graph.bfs_tree(g, 0)
    result = engine.construct_full(
        g, tree, parts, engine.EngineConfig(), random.Random(inst.seed)
    )
    report = audit.audit_shortcut(g, tree, parts, result.shortcut)
    t1 = time.perf_counter()
    task = sim.AggregationTask(values=inst.values, op="sum", parts=parts)
    cfg = sim.SimConfig(seed=inst.seed, log_messages=log_messages)
    aggregates, agg_trace = sim.partwise_aggregate(g, parts, result.shortcut, task, cfg)
    t2 = time.perf_counter()
    mst = oracle = None
    if with_mst:
        mst = apps.boruvka_mst(g, cfg)
        oracle = apps.kruskal_oracle(g)
    t3 = time.perf_counter()
    return Op(t1 - t0, t2 - t1, t3 - t2, tree, result, report, aggregates, agg_trace, mst, oracle)


def check_op(inst: Instance, op: Op) -> list[str]:
    """Every way the op's outputs are wrong; empty when they are right."""
    g, parts = inst.g, inst.parts
    bad = []
    D, k, delta = op.tree.D, parts.k, op.result.delta_final
    rep = op.report
    if rep.congestion > audit.partial_to_full_congestion(8 * delta * D, k):
        bad.append(f"congestion {rep.congestion} above 8*delta*D*ceil(log2 k)")
    if rep.blocks > 8 * delta:
        bad.append(f"blocks {rep.blocks} above 8*delta")
    if rep.dilation > 8 * delta * (2 * D + 1):
        bad.append(f"dilation {rep.dilation} above 8*delta*(2D+1)")
    for pq in rep.per_part:
        if pq.dilation > audit.block_dilation_bound(pq.blocks, D):
            bad.append(f"part {pq.part} dilation {pq.dilation} above blocks*(2D+1)")
    stats = op.result.stats
    for cert, fired in zip(op.result.certificates, stats.certificate_deltas):
        violation = audit.validate_minor(g, cert)
        if violation is not None:
            bad.append(f"certificate invalid: {violation}")
        if not cert.density > fired:
            bad.append(f"certificate density {cert.density} not above delta {fired}")
    for i, members in enumerate(parts.parts):
        want = sum(inst.values[v] for v in members)
        if any(op.aggregates.get(v) != want for v in members):
            bad.append(f"part {i} aggregate differs from the central fold {want}")
    if op.mst is not None:
        edges, weight = op.oracle
        if op.mst.tree_edges != edges or op.mst.total_weight != weight:
            bad.append("Boruvka edge set differs from kruskal_oracle")
        for idx, ph in enumerate(op.mst.per_phase, start=1):
            d, dt = ph.tree_depth, ph.delta_final
            bound = audit.partial_to_full_congestion(8 * dt * d, ph.fragments) + 8 * dt * (2 * d + 1)
            if ph.quality > bound:
                bad.append(f"MST phase {idx} quality {ph.quality} above {bound}")
    return bad


# reference_s() in a fresh process on an idle 2-vCPU Intel Xeon VM under
# Python 3.11.7; set-up times are reported in seconds of a machine that runs
# the kernel this fast
REFERENCE_S = 0.028


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python kernel that uses no treeshort code.

    Timings divided by this track the program's own cost while other tenants
    of the machine slow every process by a varying factor.
    """
    side = 18
    adj = [[] for _ in range(side * side)]
    for v in range(side * side):
        if v % side + 1 < side:
            adj[v].append(v + 1)
            adj[v + 1].append(v)
        if v + side < side * side:
            adj[v].append(v + side)
            adj[v + side].append(v)
    gc.collect()
    start = time.perf_counter()
    far = 0
    for s in range(side * side):
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        far = max(far, dist[queue[-1]])
    elapsed = time.perf_counter() - start
    if far != 2 * (side - 1):
        raise RuntimeError(f"reference kernel computed diameter {far}")
    return elapsed


def digest(inst: Instance, op: Op) -> str:
    """sha256 over the outputs the CLI writes for this instance."""
    parts = inst.parts
    blobs = [
        engine.dumps_shortcut(op.result.shortcut),
        [engine.certificate_to_json_dict(c) for c in op.result.certificates],
        op.report.to_json_dict(),
        {"op": "sum", "per_part": {str(i): op.aggregates[parts.parts[i][0]] for i in range(parts.k)}},
    ]
    if op.mst is not None:
        blobs.append(op.mst.to_json_dict())
    h = hashlib.sha256()
    for blob in blobs:
        text = blob if isinstance(blob, str) else json.dumps(blob, sort_keys=True)
        h.update(text.encode())
    return h.hexdigest()

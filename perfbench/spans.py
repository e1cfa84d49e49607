"""Spans around the calls into each treeshort module, and the per-layer
metrics derived from them.

The tracer rebinds public functions on their module objects (including the
names `apps` and `engine` imported from other modules) for the duration of
one traced operation, and restores them afterwards; untraced operations run
the original functions.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from treeshort import apps, audit, engine, graph, sim

import workloads

# (module, attribute, span name, keep arguments and result for counters)
TARGETS = [
    (workloads, "generate", "generators.instance", False),
    (graph, "bfs_tree", "graph.bfs_tree", False),
    (apps, "bfs_tree", "graph.bfs_tree", True),
    (graph, "diameter", "graph.diameter", False),
    (graph, "validate_partition", "graph.validate_partition", False),
    (engine, "construct_full", "engine.construct_full", True),
    (apps, "construct_full", "engine.construct_full", True),
    (engine, "construct_partial", "engine.construct_partial", True),
    (engine, "mark_overcongested", "engine.mark_overcongested", True),
    (engine, "case_one_partial", "engine.case_one_partial", False),
    (engine, "sample_dense_minor", "engine.sample_dense_minor", False),
    (engine, "validate_minor", "engine.validate_minor", False),
    (audit, "audit_shortcut", "audit.audit_shortcut", True),
    (apps, "audit_shortcut", "audit.audit_shortcut", True),
    (audit, "part_blocks", "audit.part_blocks", False),
    (audit, "measure_congestion", "audit.measure_congestion", False),
    (sim, "partwise_aggregate", "sim.partwise_aggregate", True),
    (apps, "partwise_aggregate", "sim.partwise_aggregate", True),
    (sim, "run", "sim.run", True),
    (apps, "boruvka_mst", "apps.boruvka_mst", True),
    (apps, "kruskal_oracle", "apps.kruskal_oracle", False),
]

LAYERS = ("graph", "engine", "audit", "sim", "apps")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.calls: list[tuple[str, tuple, object]] = []  # (attribute, args, result)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = None

    def _wrap(self, fn, name: str, attr: str | None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if attr is not None:
                self.calls.append((attr, args, result))
            return result

        return traced

    def install(self, op) -> None:
        self.op = op
        for module, attr, name, keep in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}" if keep else None
            setattr(module, attr, self._wrap(fn, name, label))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        self.op = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_times(spans, ops) -> tuple[Counter, Counter]:
    """Inclusive and self seconds per span name, over spans of the given ops."""
    child = Counter()
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    incl, self_t = Counter(), Counter()
    for idx, (name, start, end, parent, op) in enumerate(spans):
        if op in ops:
            incl[name] += end - start
            self_t[name] += end - start - child[idx]
    return incl, self_t


def merged_sizes(g, p, shortcut) -> tuple[int, int, int]:
    """(sum |V_i|, sum |E_i|, parts whose G[P_i]+H_i has a cycle), from the
    merged subgraphs the audit builds."""
    edge_map = audit.as_edge_map(shortcut)
    nodes = edges = cyclic = 0
    for i, part in enumerate(p.parts):
        vs, adj = audit._merged_subgraph(g, part, edge_map.get(i, frozenset()))
        es = sum(len(nbrs) for nbrs in adj.values()) // 2
        nodes += len(vs)
        edges += es
        cyclic += es >= len(vs)
    return nodes, edges, cyclic


def h_edge_use(g, p, shortcut, trace) -> tuple[int, int]:
    """Distinct shortcut edges not inside one part, offered and carrying data.

    An edge whose endpoints are not in the same part can carry data-plane
    traffic only as a shortcut edge, so the message log alone tells use.
    """
    part_of = p.part_of

    def crossing(u, v):
        return part_of[u] is None or part_of[u] != part_of[v]

    offered = {
        eid
        for es in audit.as_edge_map(shortcut).values()
        for eid in es
        if crossing(*g.endpoints(eid))
    }
    used = {g.edge_id(r.src, r.dst) for r in trace.log if crossing(r.src, r.dst)}
    return len(offered), len(used)


def op_counters(calls) -> Counter:
    """Counters of one traced op from the kept calls."""
    c = Counter()
    for attr, args, result in calls:
        kind = attr.rsplit(".", 1)[1]
        if attr == "apps.bfs_tree":
            c["bfs_tree_calls"] += 1
        elif kind == "construct_full":
            c["iterations"] += sum(it for _, it in result.stats.iterations_by_delta)
            c["certificates"] += len(result.certificates)
            c["uncertified_failures"] += result.stats.uncertified_failures
            c["delta_final"] = max(c["delta_final"], result.delta_final)
        elif kind == "construct_partial":
            c["partial_calls"] += 1
            c["case_one"] += result.case == "I"
        elif kind == "mark_overcongested":
            c["marked_edges"] += len(result.overcongested)
        elif kind == "audit_shortcut":
            g, _tree, p, shortcut = args
            nodes, edges, cyclic = merged_sizes(g, p, shortcut)
            c["merged_nodes"] += nodes
            c["merged_edges"] += edges
            c["cyclic_parts"] += cyclic
        elif kind == "partwise_aggregate":
            offered, used = h_edge_use(args[0], args[1], args[2], result[1])
            c["h_offered"] += offered
            c["h_used"] += used
        elif kind == "run":
            c["node_rounds"] += args[0].n * result.rounds_used
        elif kind == "boruvka_mst":
            c["phases"] += result.phases
            c["mst_rounds"] += result.rounds_total
    return c


def layer_metrics(tracer: Tracer, traced_ops, untraced_op_s, setups, counters, qualities) -> dict:
    """Per-layer metrics: per-op means over the traced ops, per-instance means
    for set-up spans."""
    n = len(traced_ops)
    ops = {op_id for op_id, _ in traced_ops}
    incl, self_t = span_times(tracer.spans, ops)
    s_incl, _ = span_times(tracer.spans, set(setups))
    ns = len(setups)
    op_s = sum(wall for _, wall in traced_ops) / n
    layer_self = {
        layer: sum(t for name, t in self_t.items() if name.startswith(layer + ".")) / n
        for layer in LAYERS
    }
    m = {
        "graph.bfs_tree_s": (incl["graph.bfs_tree"] / n, "s"),
        "graph.bfs_tree_calls": (counters["bfs_tree_calls"] / n, "count"),
        "graph.diameter_s": (s_incl["graph.diameter"] / ns, "s"),
        "graph.validate_partition_s": (s_incl["graph.validate_partition"] / ns, "s"),
        "generators.instance_s": (s_incl["generators.instance"] / ns, "s"),
        "engine.construct_s": (incl["engine.construct_full"] / n, "s"),
        "engine.mark_s": (incl["engine.mark_overcongested"] / n, "s"),
        "engine.case_one_s": (incl["engine.case_one_partial"] / n, "s"),
        "engine.sample_minor_s": (incl["engine.sample_dense_minor"] / n, "s"),
        "engine.validate_minor_s": (incl["engine.validate_minor"] / n, "s"),
        "engine.partial_calls": (counters["partial_calls"] / n, "count"),
        "engine.iterations": (counters["iterations"] / n, "count"),
        "engine.marked_edges": (counters["marked_edges"] / n, "count"),
        "engine.delta_final": (counters["delta_final"] / n, "count"),
        "engine.certificates": (counters["certificates"] / n, "count"),
        "engine.uncertified_failures": (counters["uncertified_failures"] / n, "count"),
        "engine.case_one_rate": (counters["case_one"] / max(counters["partial_calls"], 1), "ratio"),
        "audit.audit_s": (incl["audit.audit_shortcut"] / n, "s"),
        "audit.congestion_s": (incl["audit.measure_congestion"] / n, "s"),
        "audit.blocks_s": (incl["audit.part_blocks"] / n, "s"),
        "audit.dilation_s": (self_t["audit.audit_shortcut"] / n, "s"),
        "audit.merged_nodes": (counters["merged_nodes"] / n, "count"),
        "audit.merged_edges": (counters["merged_edges"] / n, "count"),
        "audit.cyclic_parts": (counters["cyclic_parts"] / n, "count"),
        "audit.quality_engine": (qualities["engine"], "count"),
        "audit.quality_empty": (qualities["empty"], "count"),
        "audit.quality_all_ancestors": (qualities["all_ancestors"], "count"),
        "sim.aggregate_s": (incl["sim.partwise_aggregate"] / n, "s"),
        "sim.run_s": (incl["sim.run"] / n, "s"),
        "sim.control_plane_s": (self_t["sim.partwise_aggregate"] / n, "s"),
        "sim.run_us_per_node_round": (1e6 * incl["sim.run"] / max(counters["node_rounds"], 1), "us"),
        "sim.h_edges_offered": (counters["h_offered"] / n, "count"),
        "sim.h_edges_used": (counters["h_used"] / n, "count"),
        "sim.h_edge_use_ratio": (counters["h_used"] / max(counters["h_offered"], 1), "ratio"),
        "apps.boruvka_s": (incl["apps.boruvka_mst"] / n, "s"),
        "apps.kruskal_s": (incl["apps.kruskal_oracle"] / n, "s"),
        "apps.phases": (counters["phases"] / n, "count"),
        "apps.rounds_total": (counters["mst_rounds"] / n, "count"),
        "trace.op_s": (op_s, "s"),
        "trace.untraced_op_s": (untraced_op_s, "s"),
        "trace.overhead_s": (op_s - untraced_op_s, "s"),
        "trace.unattributed_s": (op_s - sum(layer_self.values()), "s"),
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = (t, "s")
    return m


def baseline_qualities(instances) -> tuple[float, float]:
    """Mean audited quality of the H_i = empty and all-ancestors shortcuts."""
    empty, all_anc = [], []
    for inst in instances:
        tree = graph.bfs_tree(inst.g, 0)
        none = [frozenset()] * inst.parts.k
        empty.append(audit.audit_shortcut(inst.g, tree, inst.parts, none).quality)
        # with no marked edge, case I gives every part all its ancestor edges
        marking = engine.mark_overcongested(tree, inst.parts, inst.parts.k + 1)
        anc = engine.case_one_partial(marking, tree, inst.parts, 1).edge_sets
        all_anc.append(audit.audit_shortcut(inst.g, tree, inst.parts, anc).quality)
    return sum(empty) / len(empty), sum(all_anc) / len(all_anc)

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Artifact
constants (the 32 in the aggregation round bound and the 64 * ceil(log2 n)^3
in the MST round bound) are fixed here, not derived; hard inequalities carry
no tolerance.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from treeshort.apps import boruvka_mst, kruskal_oracle
from treeshort.audit import (
    audit_shortcut,
    block_dilation_bound,
    partial_to_full_congestion,
    validate_minor,
)
from treeshort.cli import main as cli_main
from treeshort.engine import EngineConfig, construct_full, mark_overcongested, sample_dense_minor
from treeshort.generators import (
    assign_weights,
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_parts_random,
    gen_wheel,
)
from treeshort.graph import bfs_tree, diameter
from treeshort.sim import AggregationTask, SimConfig, default_msg_bits, partwise_aggregate

import oracles
from conftest import build_fan
from oracles import is_planar, thomason_bounds


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


class Run:
    def __init__(self, name, g, parts, tree, result, audit, elapsed, planar):
        self.name = name
        self.g = g
        self.parts = parts
        self.tree = tree
        self.result = result
        self.audit = audit
        self.elapsed = elapsed
        self.planar = planar


def _run_instance(name, g, k, seed, planar):
    start = time.monotonic()
    tree = bfs_tree(g, 0)
    parts = gen_parts_random(g, k, seed)
    result = construct_full(g, tree, parts, EngineConfig(), random.Random(seed))
    audit = audit_shortcut(g, tree, parts, result.shortcut)
    return Run(name, g, parts, tree, result, audit, time.monotonic() - start, planar)


@pytest.fixture(scope="module")
def structural_runs():
    runs = []
    for side in (16, 32):
        g = gen_grid(side, side)
        for k in (10, 50, 200):
            for seed in (101, 202, 303):
                runs.append(_run_instance(f"grid{side}-k{k}-s{seed}", g, k, seed, True))
    for tw in (2, 3):
        for n in (200, 400):
            g = gen_ktree(n, tw, 17)
            for k in (10, 50, 200):
                run = _run_instance(f"ktree{n}-tw{tw}-k{k}", g, k, 404, False)
                run.treewidth = tw
                runs.append(run)
    assert len(runs) == 30
    return runs


@pytest.fixture(scope="module")
def certificate_harvest(structural_runs):
    """Certificates with the delta each fired at, plus instance planarity."""
    harvest = []
    for run in structural_runs:
        for cert, delta in zip(
            run.result.certificates, run.result.stats.certificate_deltas
        ):
            harvest.append((run.g, cert, delta, run.planar))
    # fan families force case II and emit certificates deterministically
    for mids, parts_count, seed in [(9, 18, 7), (17, 34, 21)]:
        g, parts = build_fan(mids, parts_count, mids)
        tree = bfs_tree(g, 0)
        result = construct_full(g, tree, parts, EngineConfig(), random.Random(seed))
        planar = is_planar(g)
        for cert, delta in zip(result.certificates, result.stats.certificate_deltas):
            harvest.append((g, cert, delta, planar))
        # direct sampling against the same marking, pinned at delta=1
        marking = mark_overcongested(tree, parts, 8 * tree.D)
        cert = sample_dense_minor(g, tree, parts, marking, 1, random.Random(seed))
        if cert is not None:
            harvest.append((g, cert, 1, planar))
    return harvest


def test_criterion_1_structural_guarantee(structural_runs):
    failures = []
    for run in structural_runs:
        D = run.tree.D
        k = run.parts.k
        df = run.result.delta_final
        checks = [
            run.audit.congestion <= 8 * df * D * math.ceil(math.log2(max(k, 2))),
            run.audit.blocks <= 8 * df,
            run.audit.dilation <= 8 * df * (2 * D + 1),
            all(e in run.tree.tree_edges for es in run.result.shortcut for e in es),
            run.elapsed <= 10.0,
        ]
        if not all(checks):
            failures.append((run.name, checks))
    ok = report(
        1,
        not failures,
        f"30 instances, hard bounds on congestion/blocks/dilation/tree-restriction"
        f"{' violations: ' + str(failures) if failures else ''}",
    )
    assert ok


def test_criterion_2_delta_discovery(structural_runs):
    bad = []
    for run in structural_runs:
        if run.name.startswith("grid"):
            if run.result.delta_final > 4:
                bad.append(run.name)
        else:
            if run.result.delta_final > 2 * run.treewidth:
                bad.append(run.name)
    deltas = sorted({run.result.delta_final for run in structural_runs})
    ok = report(2, not bad, f"delta_final values seen: {deltas}; violations: {bad or 'none'}")
    assert ok


def test_criterion_3_certificate_soundness(certificate_harvest):
    assert certificate_harvest, "suite produced no certificates to check"
    bad = []
    planar_count = 0
    for g, cert, fired_delta, planar in certificate_harvest:
        if validate_minor(g, cert) is not None:
            bad.append("validate")
        if not (cert.density > fired_delta):
            bad.append("density-vs-delta")
        if cert.density != Fraction(len(cert.edges), len(cert.nodes)):
            bad.append("density-recompute")
        if planar:
            planar_count += 1
            if not (cert.density < 3):
                bad.append("planar-density")
    ok = report(
        3,
        not bad,
        f"{len(certificate_harvest)} certificates checked "
        f"({planar_count} from planar instances); violations: {bad or 'none'}",
    )
    assert ok


def test_criterion_4_block_dilation_observation(structural_runs):
    bad = []
    for run in structural_runs:
        bound = block_dilation_bound(run.audit.blocks, run.tree.D)
        if not run.audit.dilation <= bound:
            bad.append(run.name)
        for pq in run.audit.per_part:
            if not pq.dilation <= block_dilation_bound(pq.blocks, run.tree.D):
                bad.append(f"{run.name}/part{pq.part}")
    ok = report(4, not bad, f"dilation <= blocks*(2D+1) on all audited instances; violations: {bad or 'none'}")
    assert ok


def test_criterion_5_lower_bound_reproduction():
    failures = []
    details = []
    for delta_prime, D_prime in [(6, 16), (8, 20), (6, 24)]:
        start = time.monotonic()
        inst = gen_lower_bound(delta_prime, D_prime)
        delta, k = delta_prime - 2, D_prime // (2 * (delta_prime - 2))
        D = k * delta
        side = (delta - 1) * D + 1
        expected_nodes = ((delta - 1) * k + 1) + side * side
        if inst.graph.n != expected_nodes:
            failures.append(f"({delta_prime},{D_prime}) nodes {inst.graph.n} != {expected_nodes}")
        measured = diameter(inst.graph)
        if not (measured <= 1.5 * inst.D + 1 <= D_prime):
            failures.append(
                f"({delta_prime},{D_prime}) diameter {measured} > 1.5D+1 = {1.5 * inst.D + 1}"
            )
        tree = bfs_tree(inst.graph, 0)
        result = construct_full(
            inst.graph, tree, inst.parts, EngineConfig(), random.Random(delta_prime)
        )
        rep = audit_shortcut(inst.graph, tree, inst.parts, result.shortcut)
        floor = Fraction((delta_prime - 3) * D_prime, 6)
        if not rep.quality >= floor:
            failures.append(f"({delta_prime},{D_prime}) quality {rep.quality} < {floor}")
        elapsed = time.monotonic() - start
        if elapsed > 60.0:
            failures.append(f"({delta_prime},{D_prime}) took {elapsed:.1f}s")
        details.append(
            f"({delta_prime},{D_prime}): n={inst.graph.n} diam={measured} "
            f"quality={rep.quality} floor={floor}"
        )
    ok = report(5, not failures, "; ".join(details) + (f"; FAILED: {failures}" if failures else ""))
    assert ok


def test_criterion_6_marking_matches_brute_force():
    mismatches = 0
    for seed in range(50):
        rng = random.Random(9000 + seed)
        n = rng.randrange(10, 201)
        g = gen_ktree(n, 1, seed)  # random tree on n nodes
        tree = bfs_tree(g, 0)
        parts = gen_parts_random(g, rng.randrange(1, max(2, n // 2)), seed)
        c = rng.randrange(1, 14)
        marking = mark_overcongested(tree, parts, c)
        for eid in tree.tree_edges:
            expected = oracles.parts_below_tree_edge(tree, parts, marking.overcongested, eid)
            in_marked = eid in marking.overcongested
            if in_marked != (len(expected) >= c):
                mismatches += 1
            elif in_marked and marking.parts_below[eid].keys() != expected:
                mismatches += 1
    ok = report(6, mismatches == 0, f"50 random trees <= 200 nodes, exact part-set equality; mismatches: {mismatches}")
    assert ok


def test_criterion_7_partwise_aggregation():
    triples = []
    for side, k, seed in [(16, 10, 1), (16, 50, 2), (16, 200, 3), (32, 10, 4), (32, 50, 5)]:
        triples.append((f"grid{side}-k{k}", gen_grid(side, side), k, seed))
    for n, tw, k, seed in [(200, 2, 10, 6), (200, 3, 50, 7), (400, 2, 50, 8), (400, 3, 10, 9)]:
        triples.append((f"ktree{n}-tw{tw}-k{k}", gen_ktree(n, tw, seed), k, seed))
    for dp, Dp in [(5, 12), (6, 16)]:
        inst = gen_lower_bound(dp, Dp)
        triples.append((f"lb{dp}-{Dp}", inst.graph, inst.parts, 10 + dp))
    triples.append(("wheel40", gen_wheel(40), 5, 11))
    fan_g, fan_parts = build_fan(9, 18, 9)
    triples.append(("fan", fan_g, fan_parts, 12))
    for side, k, seed in [(8, 4, 13), (8, 64, 14), (12, 12, 15), (12, 60, 16), (24, 30, 17), (24, 100, 18), (20, 20, 19)]:
        triples.append((f"grid{side}-k{k}b", gen_grid(side, side), k, seed))
    assert len(triples) == 20

    failures = []
    for name, g, parts_or_k, seed in triples:
        tree = bfs_tree(g, 0)
        parts = parts_or_k if not isinstance(parts_or_k, int) else gen_parts_random(g, parts_or_k, seed)
        result = construct_full(g, tree, parts, EngineConfig(), random.Random(seed))
        rep = audit_shortcut(g, tree, parts, result.shortcut)
        task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=parts)
        cfg = SimConfig(seed=seed, log_messages=True)
        results, trace = partwise_aggregate(g, parts, result.shortcut, task, cfg)
        for i in range(parts.k):
            expected = sum(parts.parts[i])
            if any(results[v] != expected for v in parts.parts[i]):
                failures.append(f"{name}: wrong aggregate")
                break
        seen = set()
        bits_cap = default_msg_bits(g.n)
        for record in trace.log:
            key = (record.round, record.src, record.dst)
            if key in seen or record.bits > bits_cap:
                failures.append(f"{name}: trace violation")
                break
            seen.add(key)
        bound = 32 * (rep.congestion + rep.dilation * math.ceil(math.log2(g.n)))
        if trace.rounds_used > bound:
            failures.append(f"{name}: rounds {trace.rounds_used} > {bound}")
    ok = report(7, not failures, f"20 triples, exact results + bandwidth + round bound; violations: {failures or 'none'}")
    assert ok


def test_criterion_8_mst():
    instances = []
    for side, seed in [(8, 1), (12, 2), (16, 3), (16, 4), (20, 5), (24, 6), (32, 7)]:
        instances.append((f"grid{side}-s{seed}", assign_weights(gen_grid(side, side), seed)))
    for n, tw, seed in [(100, 2, 8), (200, 2, 9), (200, 3, 10), (400, 2, 11), (400, 3, 12), (300, 3, 13)]:
        instances.append((f"ktree{n}-tw{tw}", assign_weights(gen_ktree(n, tw, seed), seed)))
    for dp, Dp, seed in [(5, 12, 14), (6, 16, 15), (8, 20, 16)]:
        instances.append((f"lb{dp}-{Dp}", assign_weights(gen_lower_bound(dp, Dp).graph, seed)))
    for n, seed in [(10, 17), (40, 18)]:
        instances.append((f"wheel{n}", assign_weights(gen_wheel(n), seed)))
    instances.append(("grid40", assign_weights(gen_grid(40, 40), 19)))
    instances.append(("path", assign_weights(gen_grid(1, 50), 20)))
    assert len(instances) == 20

    start = time.monotonic()
    failures = []
    for idx, (name, g) in enumerate(instances):
        res = boruvka_mst(g, SimConfig(seed=1000 + idx))
        edges, _ = kruskal_oracle(g)
        if res.tree_edges != edges:
            failures.append(f"{name}: edge set mismatch")
        if res.phases > math.ceil(math.log2(g.n)):
            failures.append(f"{name}: {res.phases} phases")
        D = res.per_phase[0].tree_depth
        df = max(ph.delta_final for ph in res.per_phase)
        bound = 64 * df * D * math.ceil(math.log2(g.n)) ** 3
        if res.rounds_total > bound:
            failures.append(f"{name}: rounds {res.rounds_total} > {bound}")
    elapsed = time.monotonic() - start
    if elapsed > 120.0:
        failures.append(f"total runtime {elapsed:.1f}s > 120s")
    ok = report(8, not failures, f"20 weighted instances in {elapsed:.1f}s; violations: {failures or 'none'}")
    assert ok


def test_criterion_9_formula_units():
    checks = [
        thomason_bounds(2).delta_low == 0.5,
        thomason_bounds(2).delta_high == 16.0,
        block_dilation_bound(8, 5) == 88,
        partial_to_full_congestion(10, 8) == 30,
    ]
    ok = report(9, all(checks), "thomason(2)=(0.5,16.0), block_dilation(8,5)=88, partial_to_full(10,8)=30")
    assert ok


def test_criterion_10_determinism(tmp_path):
    specs = []
    spec_a = tmp_path / "a.json"
    spec_a.write_text(json.dumps({"runs": [
        {"family": "grid", "params": [8, 8], "parts": 6, "seed": 1},
        {"family": "wheel", "params": [12], "parts": 3, "seed": 2},
    ]}))
    specs.append(("bench-a", ["bench", str(spec_a)], "out.csv"))
    spec_b = tmp_path / "b.json"
    spec_b.write_text(json.dumps({"runs": [
        {"family": "lowerbound", "params": [5, 12], "seed": 3},
        {"family": "ktree", "params": [60, 2], "parts": 8, "seed": 4},
    ]}))
    specs.append(("bench-b", ["bench", str(spec_b)], "out.csv"))

    gen_dir = tmp_path / "inst"
    cli_main(["gen", "grid", "6", "6", "--out", str(gen_dir), "--parts", "4", "--seed", "5"])
    graph, parts = str(gen_dir / "graph.txt"), str(gen_dir / "parts.txt")
    specs.append(("shortcut", ["shortcut", graph, parts, "--seed", "6"], "audit.json"))
    specs.append(("aggregate", ["aggregate", graph, parts, "--op", "sum", "--seed", "7"], "agg.json"))
    wdir = tmp_path / "w"
    cli_main(["gen", "grid", "6", "6", "--out", str(wdir), "--weights", "--seed", "8"])
    specs.append(("mst", ["mst", str(wdir / "graph.txt"), "--seed", "9"], "mst.json"))

    bad = []
    for name, argv, out_name in specs:
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}" / out_name
            out.parent.mkdir(exist_ok=True)
            if name.startswith("bench"):
                code = cli_main(argv + ["--out", str(out)])
            elif name == "shortcut":
                code = cli_main(argv + ["--out", str(out.parent)])
                out = out.parent / "audit.json"
            else:
                code = cli_main(argv + ["--out", str(out)])
            if code != 0:
                bad.append(f"{name}: exit {code}")
                break
            outputs.append(out.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            bad.append(f"{name}: outputs differ")
    ok = report(10, not bad, f"5 command specs rerun byte-identically; violations: {bad or 'none'}")
    assert ok

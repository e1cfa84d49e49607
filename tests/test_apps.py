import hashlib
import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from treeshort import apps, audit, sim
from treeshort.apps import boruvka_mst, kruskal_oracle
from treeshort.engine import EngineConfig, construct_full
from treeshort.generators import (
    assign_weights,
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_parts_random,
    gen_wheel,
)
from treeshort.graph import Graph, GraphError, Partition, bfs_tree
from treeshort.sim import AggregationTask, SimConfig, partwise_aggregate

import oracles
from conftest import build_fan


class TestKruskalOracle:
    def test_tree_keeps_all_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)], [4, 9, 2])
        edges, weight = kruskal_oracle(g)
        assert edges == {0, 1, 2}
        assert weight == 15

    def test_four_cycle_drops_heaviest(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 2, 3, 4])
        edges, weight = kruskal_oracle(g)
        expected_set, expected_weight = oracles.min_spanning_weight_brute(
            g.n, g.edges, g.weights
        )
        assert edges == expected_set == {0, 1, 2}
        assert weight == expected_weight == 6

    def test_k4_against_exhaustive_enumeration(self):
        base = gen_wheel(4)
        for seed in range(4):
            g = assign_weights(base, seed)
            expected_set, expected_weight = oracles.min_spanning_weight_brute(
                g.n, g.edges, g.weights
            )
            edges, weight = kruskal_oracle(g)
            assert edges == expected_set
            assert weight == expected_weight

    def test_requires_weights_and_distinctness(self):
        with pytest.raises(GraphError):
            kruskal_oracle(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(GraphError):
            kruskal_oracle(Graph(3, [(0, 1), (1, 2)], [5, 5]))


class TestBoruvka:
    def test_star_single_phase_keeps_all_edges(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)], [5, 2, 9])
        result = boruvka_mst(g, SimConfig(seed=1))
        assert result.tree_edges == {0, 1, 2}
        assert result.phases == 1

    def test_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 2, 3, 4])
        result = boruvka_mst(g, SimConfig(seed=1))
        assert result.tree_edges == {0, 1, 2}
        assert result.total_weight == 6

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_matches_kruskal_exactly(self, seed):
        g = assign_weights(gen_grid(16, 16), seed)
        result = boruvka_mst(g, SimConfig(seed=seed))
        edges, weight = kruskal_oracle(g)
        assert result.tree_edges == edges
        assert result.total_weight == weight
        assert result.phases <= math.ceil(math.log2(g.n))

    def test_ktree_and_lower_bound_families(self):
        for g in [
            assign_weights(gen_ktree(120, 3, 2), 11),
            assign_weights(gen_lower_bound(5, 12).graph, 12),
        ]:
            result = boruvka_mst(g, SimConfig(seed=7))
            edges, weight = kruskal_oracle(g)
            assert result.tree_edges == edges
            assert result.total_weight == weight

    def test_duplicate_weights_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)], [4, 4])
        with pytest.raises(GraphError):
            boruvka_mst(g, SimConfig(seed=0))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)], [1, 2])
        with pytest.raises(GraphError):
            boruvka_mst(g, SimConfig(seed=0))

    def test_stuck_merging_rejected(self, monkeypatch):
        # every node learns the global minimum, so each phase merges one pair
        def global_min(g, parts, shortcut, task, cfg):
            results, trace = partwise_aggregate(g, parts, shortcut, task, cfg)
            return dict.fromkeys(results, min(task.values.values())), trace

        monkeypatch.setattr(apps, "partwise_aggregate", global_min)
        g = assign_weights(gen_grid(4, 4), 1)
        with pytest.raises(GraphError, match="fragment count failed to halve"):
            boruvka_mst(g, SimConfig(seed=1))

    def test_per_phase_bookkeeping(self):
        g = assign_weights(gen_grid(8, 8), 3)
        result = boruvka_mst(g, SimConfig(seed=3))
        assert len(result.per_phase) == result.phases
        assert result.rounds_total == sum(ph.rounds for ph in result.per_phase)
        assert result.per_phase[0].fragments == g.n
        fragments = [ph.fragments for ph in result.per_phase]
        assert fragments == sorted(fragments, reverse=True)

    def test_first_phase_skips_per_part_machinery(self, monkeypatch):
        """Phase 1 has n one-node fragments, each with an empty H_i: the
        aggregation and the audit build no merged subgraph for them, and the
        aggregation draws no start delay, since each can only be 0."""
        events = []

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return wrapper

        class CountedRandom(random.Random):
            def randrange(self, *args):
                events.append("draw")
                return super().randrange(*args)

        monkeypatch.setattr(apps, "construct_full", counted(apps.construct_full, "phase"))
        monkeypatch.setattr(audit, "_merged_subgraph", counted(audit._merged_subgraph, "merged"))
        monkeypatch.setattr(sim, "_merged_subgraph", counted(sim._merged_subgraph, "merged"))
        monkeypatch.setattr(sim, "random", SimpleNamespace(Random=CountedRandom))
        # a weighted fan: its later fragments' part trees share edges, so
        # start delays are drawn (on k-trees of this size none are)
        g = assign_weights(build_fan(9, 18, 9)[0], 1)
        result = boruvka_mst(g, SimConfig(seed=1))
        assert result.per_phase[0].fragments == g.n
        phases = []  # per phase, the calls from its construction to the next
        for name in events:
            if name == "phase":
                phases.append(Counter())
            else:
                phases[-1][name] += 1
        assert len(phases) == result.phases
        assert (phases[0]["merged"], phases[0]["draw"]) == (0, 0)
        # the later phases still build and draw, so the counters see them
        assert all(phase["merged"] for phase in phases[1:])
        assert any(phase["draw"] for phase in phases[1:])

    def test_deterministic(self):
        g = assign_weights(gen_grid(7, 7), 5)
        a = boruvka_mst(g, SimConfig(seed=9))
        b = boruvka_mst(g, SimConfig(seed=9))
        assert a == b


def json_digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def golden_mst_inputs():
    """(weighted graph, sim seed) of the two pinned MST runs."""
    return (
        (assign_weights(gen_ktree(150, 3, 4), 6), 2),
        (assign_weights(gen_grid(9, 9), 8), 3),
    )


def golden_log_inputs():
    """(graph, parts, seed) of `test_sim.TestGoldenLogs`."""
    grid, wheel = gen_grid(12, 12), gen_wheel(41)
    wheel_parts = Partition(wheel.n, [list(range(1 + 10 * a, 11 + 10 * a)) for a in range(4)])
    return (
        (grid, gen_parts_random(grid, 15, 3), 3),
        (*build_fan(9, 18, 9), 1),
        (wheel, wheel_parts, 1),
    )


def golden_sum_aggregate(g, p, seed):
    """Sum of node ids over the engine's shortcut, as `TestGoldenLogs` runs it."""
    result = construct_full(g, bfs_tree(g, 0), p, EngineConfig(), random.Random(seed))
    task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
    return partwise_aggregate(g, p, result.shortcut, task, SimConfig(seed=seed))


class TestGolden:
    """MST results pinned by hash, so a change to `apps` that moves an MST
    edge or a per-phase round count fails here, not only a comparison of two
    runs of the same code."""

    def test_ktree_mst(self):
        g, seed = golden_mst_inputs()[0]
        result = boruvka_mst(g, SimConfig(seed=seed))
        assert json_digest(result.to_json_dict()) == (
            "fcd7b4abd21813902313edee158698eab0188696aaba796fa50ed9d98e176dc5"
        )

    def test_grid_mst(self):
        g, seed = golden_mst_inputs()[1]
        result = boruvka_mst(g, SimConfig(seed=seed))
        assert json_digest(result.to_json_dict()) == (
            "3608f3278ae3985fdcd8164ed5509816b36da4dce2882fa73e72a1a3341f015a"
        )

    def test_edges_and_costs_do_not_depend_on_shortcut_shape(self, monkeypatch):
        """What a shortcut that keeps every part's paths may not move: MST
        edges, weight and per-phase rounds and messages on the two MST
        inputs above, and the rounds and messages of `TestGoldenLogs`."""
        traces = []

        def recording(*args):
            results, trace = partwise_aggregate(*args)
            traces.append((trace.rounds_used, trace.messages_sent))
            return results, trace

        monkeypatch.setattr(apps, "partwise_aggregate", recording)
        pinned = []
        for g, seed in golden_mst_inputs():
            traces.clear()
            result = boruvka_mst(g, SimConfig(seed=seed))
            pinned.append([sorted(result.tree_edges), result.total_weight, list(traces)])
        for g, p, seed in golden_log_inputs():
            _, trace = golden_sum_aggregate(g, p, seed)
            pinned.append([trace.rounds_used, trace.messages_sent])
        assert json_digest(pinned) == (
            "bc465020a0071b41a0549afff5f56f88157c826c56806ad5991542df5d814f2f"
        )

    def test_results_and_messages_do_not_depend_on_part_tree_root(self):
        """What moving a part tree's root may not move: the results and
        message counts of `TestGoldenLogs` and the MST edges and weights of
        the two MST inputs above."""
        pinned = []
        for g, p, seed in golden_log_inputs():
            results, trace = golden_sum_aggregate(g, p, seed)
            pinned.append([[results[v] for v in sorted(results)], trace.messages_sent])
        for g, seed in golden_mst_inputs():
            result = boruvka_mst(g, SimConfig(seed=seed))
            pinned.append([sorted(result.tree_edges), result.total_weight])
        assert json_digest(pinned) == (
            "c4bec4076afcea2223f1f3b2ab5e4f0015fa2edacb15b6515dd079286fd0930d"
        )

import math
import random

import pytest

from treeshort.audit import audit_shortcut
from treeshort.engine import EngineConfig, construct_full
from treeshort.generators import gen_grid, gen_parts_random, gen_wheel
from treeshort.graph import Graph, Partition, bfs_tree
from treeshort.sim import (
    AggregationError,
    AggregationTask,
    DuplicateSendError,
    NodeProgram,
    OversizeMessageError,
    SimConfig,
    SimError,
    SimTimeout,
    default_msg_bits,
    int_bits,
    partwise_aggregate,
    payload_bits,
    run,
)


class HaltAtInit(NodeProgram):
    def on_init(self, ctx):
        ctx.halt()


class Flood(NodeProgram):
    """Forward a token once, then halt."""

    def __init__(self, start):
        self.start = start

    def on_init(self, ctx):
        if self.start:
            for u in ctx.neighbors:
                ctx.send(u, 1, tag="tok")
            ctx.halt()

    def on_round(self, ctx, inbox):
        if inbox:
            for u in ctx.neighbors:
                if u not in inbox:
                    ctx.send(u, 1, tag="tok")
            ctx.halt()


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestRun:
    def test_halt_in_init_costs_zero_rounds(self):
        trace = run(Graph(1, []), [HaltAtInit()], SimConfig())
        assert trace.rounds_used == 0
        assert trace.messages_sent == 0

    def test_flood_token_path_five(self):
        g = path_graph(5)
        trace = run(g, [Flood(v == 0) for v in range(5)], SimConfig())
        assert trace.rounds_used == 4

    def test_hub_broadcast_on_wheel(self):
        g = gen_wheel(10)
        trace = run(g, [Flood(v == 0) for v in range(10)], SimConfig())
        assert trace.rounds_used == 1

    def test_oversize_message_names_node_and_round(self):
        class Shout(NodeProgram):
            def on_init(self, ctx):
                ctx.send(ctx.neighbors[0], 1 << 64)
                ctx.halt()

        g = path_graph(2)
        with pytest.raises(OversizeMessageError, match="node 0.*round 1"):
            run(g, [Shout(), HaltAtInit()], SimConfig())

    def test_duplicate_send_rejected(self):
        class Stutter(NodeProgram):
            def on_init(self, ctx):
                ctx.send(ctx.neighbors[0], 1)
                ctx.send(ctx.neighbors[0], 2)

        g = path_graph(2)
        with pytest.raises(DuplicateSendError):
            run(g, [Stutter(), HaltAtInit()], SimConfig())

    def test_non_neighbor_send_rejected(self):
        class Teleport(NodeProgram):
            def on_init(self, ctx):
                ctx.send(2, 1)

        g = path_graph(3)
        with pytest.raises(SimError, match="non-neighbor"):
            run(g, [Teleport(), HaltAtInit(), HaltAtInit()], SimConfig())

    def test_timeout_carries_partial_trace(self):
        class Stubborn(NodeProgram):
            pass  # never halts

        g = path_graph(2)
        with pytest.raises(SimTimeout) as err:
            run(g, [Stubborn(), Stubborn()], SimConfig(max_rounds=10))
        assert err.value.trace.rounds_used == 10

    def test_msg_bits_floor(self):
        g = path_graph(9)
        with pytest.raises(SimError, match="node id"):
            run(g, [HaltAtInit() for _ in range(9)], SimConfig(msg_bits=3))

    def test_payload_bits_accounting(self):
        assert payload_bits(0) == 2
        assert payload_bits(7) == 4
        assert payload_bits((1, 0, 7)) == int_bits(1) + int_bits(0) + int_bits(7)

    def test_per_node_rng_streams_are_seeded_and_distinct(self):
        class Draw(NodeProgram):
            def on_init(self, ctx):
                ctx.set_output(ctx.rng.randrange(1 << 30))
                ctx.halt()

        g = path_graph(4)
        first = run(g, [Draw() for _ in range(4)], SimConfig(seed=5)).outputs
        second = run(g, [Draw() for _ in range(4)], SimConfig(seed=5)).outputs
        other = run(g, [Draw() for _ in range(4)], SimConfig(seed=6)).outputs
        assert first == second
        assert len(set(first.values())) == 4
        assert first != other


class TestPartwiseAggregate:
    def test_single_part_on_tree_edges(self):
        g = path_graph(7)
        t = bfs_tree(g, 0)
        p = Partition(7, [list(range(7))])
        task = AggregationTask(values={v: 100 - v for v in range(7)}, op="min", parts=p)
        results, trace = partwise_aggregate(g, p, {0: t.tree_edges}, task, SimConfig(seed=1))
        assert set(results.values()) == {94}
        assert trace.rounds_used <= 2 * t.D + 1

    def test_singleton_parts_cost_nothing(self):
        g = path_graph(7)
        p = Partition(7, [[v] for v in range(7)])
        task = AggregationTask(values={v: 3 * v for v in range(7)}, op="sum", parts=p)
        results, trace = partwise_aggregate(
            g, p, {i: frozenset() for i in range(7)}, task, SimConfig(seed=1)
        )
        assert results == {v: 3 * v for v in range(7)}
        assert trace.messages_sent == 0
        assert trace.rounds_used == 0

    @pytest.mark.parametrize("op,combine", [("sum", sum), ("min", min), ("max", max)])
    def test_grid_matches_central_oracle(self, op, combine):
        g = gen_grid(16, 16)
        t = bfs_tree(g, 0)
        p = gen_parts_random(g, 20, 5)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(5)).shortcut
        task = AggregationTask(values={v: v for v in range(g.n)}, op=op, parts=p)
        results, trace = partwise_aggregate(g, p, shortcut, task, SimConfig(seed=9))
        for i in range(p.k):
            expected = combine(list(p.parts[i]))
            for v in p.parts[i]:
                assert results[v] == expected
        report = audit_shortcut(g, t, p, shortcut)
        bound = 32 * (report.congestion + report.dilation * math.ceil(math.log2(g.n)))
        assert trace.rounds_used <= bound

    def test_trace_respects_bandwidth_constraints(self):
        g = gen_grid(12, 12)
        t = bfs_tree(g, 0)
        p = gen_parts_random(g, 15, 3)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(3)).shortcut
        task = AggregationTask(values={v: 1 for v in range(g.n)}, op="sum", parts=p)
        _, trace = partwise_aggregate(
            g, p, shortcut, task, SimConfig(seed=2, log_messages=True)
        )
        seen = set()
        for record in trace.log:
            key = (record.round, record.src, record.dst)
            assert key not in seen
            seen.add(key)
            assert record.bits <= default_msg_bits(g.n)
            assert 1 <= record.round <= trace.rounds_used

    def test_deterministic_traces(self):
        g = gen_grid(8, 8)
        t = bfs_tree(g, 0)
        p = gen_parts_random(g, 6, 1)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(1)).shortcut
        task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
        cfg = SimConfig(seed=11, log_messages=True)
        r1, t1 = partwise_aggregate(g, p, shortcut, task, cfg)
        r2, t2 = partwise_aggregate(g, p, shortcut, task, cfg)
        assert r1 == r2
        assert t1.log == t2.log
        assert t1.rounds_used == t2.rounds_used

    def test_disconnected_merged_subgraph_names_part(self):
        g = path_graph(3)
        p = Partition(3, [[0, 2]])
        task = AggregationTask(values={0: 1, 2: 1}, op="sum", parts=p)
        with pytest.raises(AggregationError, match="part 0"):
            partwise_aggregate(g, p, {0: frozenset()}, task, SimConfig())

    def test_value_capacity_checked(self):
        g = path_graph(3)
        p = Partition(3, [list(range(3))])
        task = AggregationTask(values={v: 1 << 40 for v in range(3)}, op="max", parts=p)
        with pytest.raises(AggregationError, match="bits"):
            partwise_aggregate(g, p, {0: frozenset()}, task, SimConfig())

    def test_sum_overflowing_capacity_errors_at_send(self):
        # individual values fit, the partial sum does not
        g = path_graph(3)
        t = bfs_tree(g, 0)
        p = Partition(3, [list(range(3))])
        bits = default_msg_bits(3)
        big = (1 << (bits - int_bits(0) - int_bits(1) - 1)) - 1
        task = AggregationTask(values={v: big for v in range(3)}, op="sum", parts=p)
        with pytest.raises(OversizeMessageError):
            partwise_aggregate(g, p, {0: t.tree_edges}, task, SimConfig())

    def test_partition_mismatch_rejected(self):
        g = path_graph(4)
        p = Partition(4, [[0, 1], [2, 3]])
        other = Partition(4, [[0, 1, 2, 3]])
        task = AggregationTask(values={v: 1 for v in range(4)}, op="sum", parts=other)
        with pytest.raises(AggregationError, match="partition"):
            partwise_aggregate(g, p, {0: frozenset(), 1: frozenset()}, task, SimConfig())


class TestLeaderAndCount:
    """Per part, the minimum node id and the part size, by two aggregations."""

    @staticmethod
    def leader_and_count(g, p, shortcut, cfg):
        def per_part(values, op):
            task = AggregationTask(values=values, op=op, parts=p)
            results, _ = partwise_aggregate(g, p, shortcut, task, cfg)
            return [results[p.parts[i][0]] for i in range(p.k)]

        leaders = per_part({v: v for v in range(g.n)}, "min")
        sizes = per_part({v: 1 for v in range(g.n)}, "sum")
        return dict(enumerate(zip(leaders, sizes)))

    def test_singletons(self):
        g = path_graph(4)
        p = Partition(4, [[v] for v in range(4)])
        out = self.leader_and_count(g, p, {i: frozenset() for i in range(4)}, SimConfig())
        assert out == {v: (v, 1) for v in range(4)}

    def test_whole_wheel(self):
        g = gen_wheel(10)
        t = bfs_tree(g, 0)
        p = Partition(10, [list(range(10))])
        out = self.leader_and_count(g, p, {0: t.tree_edges}, SimConfig(seed=4))
        assert out == {0: (0, 10)}

    def test_random_grid_partition_matches_direct_computation(self):
        g = gen_grid(9, 9)
        t = bfs_tree(g, 0)
        p = gen_parts_random(g, 7, 13)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(13)).shortcut
        out = self.leader_and_count(g, p, shortcut, SimConfig(seed=8))
        assert out == {i: (min(p.parts[i]), len(p.parts[i])) for i in range(p.k)}

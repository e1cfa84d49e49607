import gc
import hashlib
import math
import random
import re
import tracemalloc

import pytest

from conftest import build_fan
from treeshort import sim
from treeshort.audit import audit_shortcut
from treeshort.engine import EngineConfig, construct_full
from treeshort.generators import gen_grid, gen_lower_bound, gen_parts_random, gen_wheel
from treeshort.graph import Graph, GraphError, Partition, bfs_tree
from treeshort.sim import (
    AggregationTask,
    NodeProgram,
    SimConfig,
    SimError,
    default_msg_bits,
    int_bits,
    partwise_aggregate,
    payload_bits,
    run,
)


class HaltAtInit(NodeProgram):
    """Halt in round 0, the first step."""

    def on_round(self, ctx, inbox):
        ctx.halt()


class Flood(NodeProgram):
    """Forward a token once to the neighbours `nbrs`, then halt; a start
    node sends it in round 0."""

    def __init__(self, start, nbrs):
        self.start = start
        self.nbrs = nbrs

    def on_round(self, ctx, inbox):
        if inbox or (self.start and ctx.round == 0):
            for u in self.nbrs:
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
        trace = run(g, [Flood(v == 0, g.neighbors(v)) for v in range(5)], SimConfig())
        assert trace.rounds_used == 4

    def test_hub_broadcast_on_wheel(self):
        g = gen_wheel(10)
        trace = run(g, [Flood(v == 0, g.neighbors(v)) for v in range(10)], SimConfig())
        assert trace.rounds_used == 1

    def test_oversize_message_names_node_and_round(self):
        class Shout(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.send(1, 1 << 64)
                ctx.halt()

        g = path_graph(2)
        message = re.escape("node 0 sent 66 bits (> 8) in round 1")
        with pytest.raises(SimError, match=f"^{message}$"):
            run(g, [Shout(), HaltAtInit()], SimConfig())

    def test_duplicate_send_rejected(self):
        class Stutter(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.send(1, 1)
                ctx.send(1, 2)

        g = path_graph(2)
        message = re.escape("node 0 sent twice on edge (0, 1) in round 1")
        with pytest.raises(SimError, match=f"^{message}$"):
            run(g, [Stutter(), HaltAtInit()], SimConfig())

    def test_two_senders_reach_one_node_in_send_order(self):
        class Send(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.send(1, 10 + ctx.node)
                ctx.halt()

        class Receive(NodeProgram):
            def on_round(self, ctx, inbox):
                if inbox:
                    ctx.set_output(list(inbox.items()))
                    ctx.halt()

        trace = run(path_graph(3), [Send(), Receive(), Send()], SimConfig())
        assert trace.outputs == {1: [(0, 10), (2, 12)]}
        assert (trace.rounds_used, trace.messages_sent) == (1, 2)

    def test_non_neighbor_send_rejected(self):
        """A node out of range, a non-adjacent node and a destination that is
        not a node id all raise the same SimError."""

        class Teleport(NodeProgram):
            def __init__(self, dst):
                self.dst = dst

            def on_round(self, ctx, inbox):
                ctx.send(self.dst, 1)

        g = path_graph(3)
        for dst in (2, -1, 3, "x", None, 0.5):
            with pytest.raises(SimError) as err:
                run(g, [Teleport(dst), HaltAtInit(), HaltAtInit()], SimConfig())
            assert str(err.value) == f"node 0 tried to message non-neighbor {dst}"

    def test_hub_sends_to_both_ends_of_its_neighbour_tuple(self):
        """The send check bisects the sender's neighbour tuple: a hub with 60
        leaves reaches its first and its last leaf, and the ids just past
        either end, -1 and n, are rejected."""

        class Hub(NodeProgram):
            def __init__(self, dsts):
                self.dsts = dsts

            def on_round(self, ctx, inbox):
                for dst in self.dsts:
                    ctx.send(dst, dst)
                ctx.halt()

        class Leaf(NodeProgram):
            def on_round(self, ctx, inbox):
                if inbox:
                    ctx.set_output(dict(inbox))
                if ctx.round == 1:  # the hub's sends have arrived
                    ctx.halt()

        n = 61
        g = Graph(n, [(0, v) for v in range(1, n)])
        trace = run(g, [Hub((1, n - 1))] + [Leaf() for _ in range(1, n)], SimConfig())
        assert trace.outputs == {1: {0: 1}, n - 1: {0: n - 1}}
        for dst in (n, -1):
            with pytest.raises(SimError) as err:
                run(g, [Hub((dst,))] + [HaltAtInit() for _ in range(1, n)], SimConfig())
            assert str(err.value) == f"node 0 tried to message non-neighbor {dst}"

    def test_timeout_names_max_rounds(self):
        class Stubborn(NodeProgram):
            pass  # never halts

        g = path_graph(2)
        with pytest.raises(SimError, match="^exceeded max_rounds=10$"):
            run(g, [Stubborn(), Stubborn()], SimConfig(max_rounds=10))

    def test_program_count_must_match_node_count(self):
        with pytest.raises(SimError, match="^need 3 programs, got 2$"):
            run(path_graph(3), [HaltAtInit(), HaltAtInit()], SimConfig())

    def test_msg_bits_floor(self):
        g = path_graph(9)
        with pytest.raises(SimError, match="node id"):
            run(g, [HaltAtInit() for _ in range(9)], SimConfig(msg_bits=3))

    def test_payload_bits_accounting(self):
        assert payload_bits(0) == 2
        assert payload_bits(7) == 4
        assert payload_bits((1, 0, 7)) == int_bits(1) + int_bits(0) + int_bits(7)

    def test_payload_bits_signs_bools_and_nesting(self):
        """A payload is an int or a flat tuple of ints; a nested tuple is
        rejected like any other non-int member."""
        assert payload_bits(-5) == payload_bits((-5,)) == 4
        assert payload_bits(True) == payload_bits((True,)) == 2  # a bool is an int
        assert payload_bits(()) == 0
        for bad, kind in [
            (1.5, "float"),
            ((1, 1.5), "float"),
            ((1, (2, -3)), "tuple"),
            ((0, ((), (-1,))), "tuple"),
            ((1, (2, 1.5)), "tuple"),
        ]:
            with pytest.raises(SimError, match=f"^unsupported payload type {kind}$"):
                payload_bits(bad)

    def test_nested_payload_raises_at_the_send(self):
        class Nest(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.send(1, (1, (2, 3)))
                ctx.halt()

        with pytest.raises(SimError, match="^unsupported payload type tuple$"):
            run(path_graph(2), [Nest(), HaltAtInit()], SimConfig())

    def test_round_zero_steps_every_node_once_with_no_mail(self):
        """Round 0 steps every node once, in id order, with an empty inbox,
        even when max_rounds is 0; a round-0 send arrives in round 1."""
        steps = []

        class Probe(NodeProgram):
            def on_round(self, ctx, inbox):
                steps.append((ctx.round, ctx.node, dict(inbox)))
                if ctx.round == 0:
                    for u in g.neighbors(ctx.node):
                        ctx.send(u, ctx.node)
                else:
                    ctx.halt()

        g = gen_wheel(6)
        trace = run(g, [Probe() for _ in range(g.n)], SimConfig(log_messages=True))
        assert steps == [(0, v, {}) for v in range(g.n)] + [
            (1, v, {u: u for u in g.neighbors(v)}) for v in range(g.n)
        ]
        assert {record.round for record in trace.log} == {1}
        assert (trace.rounds_used, trace.messages_sent) == (1, 2 * g.m)
        steps.clear()
        with pytest.raises(SimError, match="^exceeded max_rounds=0$"):
            run(g, [Probe() for _ in range(g.n)], SimConfig(max_rounds=0))
        assert steps == [(0, v, {}) for v in range(g.n)]

    def test_one_context_per_run_set_to_the_stepped_node(self):
        """Every step of a run gets the same context, with `ctx.node` the
        node being stepped."""
        seen = []

        class Record(Flood):
            def __init__(self, v):
                super().__init__(v == 0, g.neighbors(v))
                self.v = v

            def on_round(self, ctx, inbox):
                seen.append((id(ctx), ctx.node, self.v))
                super().on_round(ctx, inbox)

        g = gen_wheel(6)
        run(g, [Record(v) for v in range(g.n)], SimConfig())
        assert len(seen) > g.n  # the round-0 steps and the later ones
        assert len({ctx for ctx, _, _ in seen}) == 1
        assert all(node == v for _, node, v in seen)


class Sleeper(NodeProgram):
    """Sleep in round 0 until `first`; on each later step record the round
    and, if `plan` has an entry for it, sleep until that round, else halt."""

    def __init__(self, first, plan=None):
        self.first = first
        self.plan = plan or {}
        self.steps = []

    def on_round(self, ctx, inbox):
        if ctx.round == 0:
            ctx.sleep(self.first)
            return
        self.steps.append(ctx.round)
        if ctx.round in self.plan:
            ctx.sleep(self.plan[ctx.round])
        else:
            ctx.halt()


class Poke(NodeProgram):
    """Send one message to each of the neighbours `nbrs` in round 0, then
    halt."""

    def __init__(self, nbrs):
        self.nbrs = nbrs

    def on_round(self, ctx, inbox):
        for u in self.nbrs:
            ctx.send(u, 1)
        ctx.halt()


class TestScheduler:
    def test_sleeper_not_stepped_before_its_wake_round(self):
        sleeper = Sleeper(5)
        trace = run(Graph(1, []), [sleeper], SimConfig())
        assert sleeper.steps == [5]
        assert trace.rounds_used == 5

    def test_mail_wakes_early_and_cancels_the_wake(self):
        class Ticker(NodeProgram):
            """Awake until round 15, so that no round is skipped."""

            def on_round(self, ctx, inbox):
                if ctx.round == 15:
                    ctx.halt()

        sleeper = Sleeper(10, plan={1: 20})
        trace = run(path_graph(3), [sleeper, Poke((0, 2)), Ticker()], SimConfig())
        assert sleeper.steps == [1, 20]  # not stepped in round 10
        assert trace.rounds_used == 20
        assert trace.messages_sent == 2

    def test_all_asleep_gap_counts_in_rounds_used(self):
        early, late = Sleeper(3, plan={3: 40}), Sleeper(700)
        trace = run(path_graph(2), [early, late], SimConfig())
        assert early.steps == [3, 40]
        assert late.steps == [700]
        assert trace.rounds_used == 700

    def test_past_wake_round_keeps_node_awake(self):
        sleeper = Sleeper(0, plan={1: 1})
        trace = run(path_graph(2), [sleeper, HaltAtInit()], SimConfig(max_rounds=50))
        assert sleeper.steps == [1, 2]
        assert trace.rounds_used == 2

    def test_all_asleep_without_wake_times_out_at_once(self):
        sleepers = [Sleeper(None), Sleeper(None)]
        with pytest.raises(SimError, match="^exceeded max_rounds=1000000$"):
            run(path_graph(2), sleepers, SimConfig(max_rounds=10**6))
        assert all(s.steps == [] for s in sleepers)

    def test_wake_after_max_rounds_times_out_at_max_rounds(self):
        sleeper = Sleeper(50)
        with pytest.raises(SimError, match="^exceeded max_rounds=30$"):
            run(Graph(1, []), [sleeper], SimConfig(max_rounds=30))
        assert sleeper.steps == []

    def test_mail_to_halted_node_is_dropped(self):
        sleeper = Sleeper(4)
        trace = run(path_graph(3), [Poke((1,)), HaltAtInit(), sleeper], SimConfig())
        assert sleeper.steps == [4]
        assert trace.messages_sent == 1

    def test_halt_is_idempotent(self):
        class HaltTwice(NodeProgram):
            def on_round(self, ctx, inbox):
                ctx.halt()
                ctx.halt()

        class HaltAtThree(NodeProgram):
            def on_round(self, ctx, inbox):
                if ctx.round == 3:
                    ctx.halt()

        trace = run(path_graph(2), [HaltTwice(), HaltAtThree()], SimConfig())
        assert trace.rounds_used == 3

    def test_sends_checked_on_the_stored_neighbour_tuples(self, monkeypatch):
        """A send is checked by bisecting the sender's neighbour tuple, not
        through `Graph.edge_id`: an aggregation makes no `edge_id` call, and
        `Graph.neighbors` hands out the stored tuple, building none."""
        calls = 0
        edge_id = Graph.edge_id

        def counted(self, u, v):
            nonlocal calls
            calls += 1
            return edge_id(self, u, v)

        g = gen_grid(6, 6)
        p = gen_parts_random(g, 4, 2)
        monkeypatch.setattr(Graph, "edge_id", counted)
        task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
        results, trace = partwise_aggregate(g, p, [bfs_tree(g, 0).tree_edges] * 4, task, SimConfig())
        assert trace.messages_sent > 0 and calls == 0
        assert all(g.neighbors(v) is g.neighbors(v) for v in range(g.n))

    def test_aggregation_steps_only_nodes_with_work(self, monkeypatch):
        """Steps are bounded by one per message plus one start-round wake per
        node, not by rounds times nodes."""
        g, p = build_fan(9, 18, 9)
        t = bfs_tree(g, 0)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(1)).shortcut
        steps = 0
        on_round = sim._AggregateProgram.on_round

        def counted(self, ctx, inbox):
            nonlocal steps
            steps += 1
            on_round(self, ctx, inbox)

        monkeypatch.setattr(sim._AggregateProgram, "on_round", counted)
        task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
        _, trace = partwise_aggregate(g, p, shortcut, task, SimConfig(seed=1))
        assert 0 < steps <= trace.messages_sent + g.n

    def test_aggregation_peaks_below_1000_bytes_per_node(self):
        """One aggregation keeps its per-node state in flat containers, and
        only a node with two or more roles makes heaps: no program, role
        object or send queue per node (objects per node peak at about 1,300 B
        per node on this fan, the flat layout at about 690)."""
        g, p = build_fan(33, 150, 33)
        t = bfs_tree(g, 0)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(1)).shortcut
        task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
        cfg = SimConfig(seed=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            partwise_aggregate(g, p, shortcut, task, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1000 * g.n


class Gossip(NodeProgram):
    """Send the node's id to each of the neighbours `nbrs`, then output the
    senders in the order the inbox lists them."""

    def __init__(self, nbrs):
        self.nbrs = nbrs

    def on_round(self, ctx, inbox):
        if ctx.round == 0:
            for u in self.nbrs:
                ctx.send(u, ctx.node)
        else:
            ctx.set_output(tuple(inbox))
            ctx.halt()


def log_digest(log):
    text = "".join(f"{r.round} {r.src} {r.dst} {r.bits} {r.tag}\n" for r in log)
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenLogs:
    """Message logs pinned byte for byte, so that a scheduler change cannot
    reorder sends or deliveries unnoticed."""

    @staticmethod
    def aggregate_log(g, p, seed):
        t = bfs_tree(g, 0)
        shortcut = construct_full(g, t, p, EngineConfig(), random.Random(seed)).shortcut
        task = AggregationTask(values={v: v for v in range(g.n)}, op="sum", parts=p)
        _, trace = partwise_aggregate(
            g, p, shortcut, task, SimConfig(seed=seed, log_messages=True)
        )
        return trace

    def test_grid(self):
        g = gen_grid(12, 12)
        trace = self.aggregate_log(g, gen_parts_random(g, 15, 3), 3)
        assert (trace.rounds_used, trace.messages_sent) == (11, 268)
        assert log_digest(trace.log) == (
            "6ae611ab1491a3ee640d556bf4135a222fbf57386397b3508f71ce20790a4647"
        )

    def test_fan(self):
        trace = self.aggregate_log(*build_fan(9, 18, 9), 1)
        assert (trace.rounds_used, trace.messages_sent) == (28, 540)
        assert log_digest(trace.log) == (
            "6e35ba86f462c9add469e9dec2e8b8d517a8bf9e1ee77fe4393ba70828e38b79"
        )

    def test_lower_bound(self):
        # nodes hold roles in several parts and some start delays open late,
        # so 71 steps end with a message still held back for a busy edge
        inst = gen_lower_bound(6, 16)
        trace = self.aggregate_log(inst.graph, inst.parts, 1)
        assert (trace.rounds_used, trace.messages_sent) == (57, 1862)
        assert log_digest(trace.log) == (
            "d8c0c59f16e8c64586886b20da7b953c58496cb58726a2377d0435aab42b0ec0"
        )

    def test_contended_fan(self):
        # 611 steps of nodes with several roles end with a message still
        # waiting, as many as 9 of them for one destination
        trace = self.aggregate_log(*build_fan(17, 50, 17), 1)
        assert (trace.rounds_used, trace.messages_sent) == (59, 3100)
        assert log_digest(trace.log) == (
            "b8d69ee2c1f63c6c66db0e9ae2d562f782dc07ea7d2fe9da8f69e2cde7af40b0"
        )

    def test_wheel_hub_relays_four_parts(self):
        # the hub holds one role per rim arc, all ready in the same round, so
        # the log pins the order in which one node's roles send
        g = gen_wheel(41)
        p = Partition(g.n, [list(range(1 + 10 * a, 11 + 10 * a)) for a in range(4)])
        trace = self.aggregate_log(g, p, 1)
        assert (trace.rounds_used, trace.messages_sent) == (4, 80)
        assert log_digest(trace.log) == (
            "fed7b122ea64aaceaeff24579e3a6d4d234d8f40bff06e48da479eae07be8307"
        )

    def test_wheel_inbox_order(self):
        # every inbox lists its senders in the order they sent
        g = gen_wheel(10)
        trace = run(g, [Gossip(g.neighbors(v)) for v in range(g.n)], SimConfig(log_messages=True))
        text = repr((sorted(trace.outputs.items()), trace.rounds_used, trace.messages_sent,
                     log_digest(trace.log)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9711430bca8a5d541cb5e33a7328811862b8914793aad277a150b8b40c861a74"
        )


class TestPartwiseAggregate:
    def test_single_part_on_tree_edges(self):
        g = path_graph(7)
        t = bfs_tree(g, 0)
        p = Partition(7, [list(range(7))])
        task = AggregationTask(values={v: 100 - v for v in range(7)}, op="min", parts=p)
        results, trace = partwise_aggregate(g, p, {0: t.tree_edges}, task, SimConfig(seed=1))
        assert set(results.values()) == {94}
        assert trace.rounds_used <= 2 * t.D + 1

    def test_path_part_is_rooted_at_its_centre(self):
        # rooted at node 3, up and down take 3 rounds each; from node 0 they
        # took 6 each, over the same 6 edges
        g = path_graph(7)
        p = Partition(7, [list(range(7))])
        task = AggregationTask(values={v: v for v in range(7)}, op="sum", parts=p)
        results, trace = partwise_aggregate(g, p, {0: frozenset()}, task, SimConfig(seed=1))
        assert set(results.values()) == {21}
        assert (trace.rounds_used, trace.messages_sent) == (6, 12)
        assert trace.meta["part_tree_depth"] == 3

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
        with pytest.raises(SimError, match="^merged subgraph of part 0 is disconnected$"):
            partwise_aggregate(g, p, {0: frozenset()}, task, SimConfig())

    def test_value_capacity_checked(self):
        g = path_graph(3)
        p = Partition(3, [list(range(3))])
        task = AggregationTask(values={v: 1 << 40 for v in range(3)}, op="max", parts=p)
        message = "value of node 0 needs 42 bits; only 4 available after the header"
        with pytest.raises(SimError, match=f"^{message}$"):
            partwise_aggregate(g, p, {0: frozenset()}, task, SimConfig())

    def test_value_budget_matches_int_bits(self):
        """The entry check admits a value exactly when its `int_bits` fit the
        budget left after the header, at either sign and at budgets of one
        bit or less, where no value fits; a bool is an int."""
        g = path_graph(3)
        p = Partition(3, [[1]])
        header = sim.aggregate_header_bits(1)
        for msg_bits in range(2, 10):
            budget = msg_bits - header
            for x in [*range(-18, 19), True]:
                task = AggregationTask(values={1: x}, op="sum", parts=p)
                cfg = SimConfig(msg_bits=msg_bits)
                if int_bits(x) <= budget:
                    assert partwise_aggregate(g, p, [frozenset()], task, cfg)[0] == {1: x}
                    continue
                message = f"value of node 1 needs {int_bits(x)} bits; only {budget} available"
                with pytest.raises(SimError, match=f"^{message} after the header$"):
                    partwise_aggregate(g, p, [frozenset()], task, cfg)

    def test_sum_overflowing_capacity_errors_at_send(self):
        # individual values fit, the partial sum does not
        g = path_graph(3)
        t = bfs_tree(g, 0)
        p = Partition(3, [list(range(3))])
        bits = default_msg_bits(3)
        big = (1 << (bits - int_bits(0) - int_bits(1) - 1)) - 1
        task = AggregationTask(values={v: big for v in range(3)}, op="sum", parts=p)
        message = re.escape("node 1 sent 10 bits (> 8) in round 2")
        with pytest.raises(SimError, match=f"^{message}$"):
            partwise_aggregate(g, p, {0: t.tree_edges}, task, SimConfig())

    @pytest.mark.parametrize(
        "values, op, message",
        [
            ({v: 1 for v in range(3)}, "avg", "unsupported op 'avg'"),
            ({0: 1, 1: 1}, "sum", "node 2 belongs to a part but has no value"),
            ({0: 1, 1: 1.0, 2: 1}, "sum", "value of node 1 has type float, not int"),
            ({0: 1, 1: 1, 2: "1"}, "sum", "value of node 2 has type str, not int"),
            ({0: None, 1: 1}, "sum", "value of node 0 has type NoneType, not int"),
        ],
        ids=["unsupported-op", "missing-value", "float-value", "str-value", "none-value"],
    )
    def test_bad_task_rejected(self, values, op, message):
        g = path_graph(3)
        p = Partition(3, [[0, 1, 2]])
        task = AggregationTask(values=values, op=op, parts=p)
        with pytest.raises(SimError, match=f"^{re.escape(message)}$"):
            partwise_aggregate(g, p, {0: frozenset()}, task, SimConfig())

    @pytest.mark.parametrize("eid", [-1, 2], ids=["negative", "m"])
    def test_unknown_edge_id_rejected(self, eid):
        # without the check, -1 would wrap to the last edge and aggregate
        g = path_graph(3)
        p = Partition(3, [[0, 1, 2]])
        task = AggregationTask(values={v: 1 for v in range(3)}, op="sum", parts=p)
        with pytest.raises(GraphError, match=f"^unknown edge id {eid}$"):
            partwise_aggregate(g, p, {0: {eid}}, task, SimConfig())

    def test_partition_for_other_node_count_rejected(self):
        # without the check, node 11 would index past the 9-node graph
        g = gen_grid(3, 3)
        p = Partition(12, [[0, 1], [4, 11]])
        task = AggregationTask({v: v for v in range(12)}, "sum", p)
        with pytest.raises(GraphError, match=r"^partition built for n=12, graph has n=9$"):
            partwise_aggregate(g, p, [frozenset(), frozenset()], task, SimConfig())

    def test_partition_mismatch_rejected(self):
        g = path_graph(4)
        p = Partition(4, [[0, 1], [2, 3]])
        other = Partition(4, [[0, 1, 2, 3]])
        task = AggregationTask(values={v: 1 for v in range(4)}, op="sum", parts=other)
        message = "task partition does not match the supplied partition"
        with pytest.raises(SimError, match=f"^{message}$"):
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

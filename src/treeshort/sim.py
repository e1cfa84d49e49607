"""Synchronous bandwidth-limited message-passing simulator and aggregation.

The simulator runs lock-step rounds: messages sent during round r are
delivered at the start of round r+1, and each directed edge carries at most
one message of at most `msg_bits` bits per round (violations raise, they are
never silently dropped).  A send is stored at once in the receiver's inbox
for the next round, and an inbox lists its senders in send order, so a
second send on one edge in one round is caught at the send.  A non-halted
node steps once per round unless it sleeps: a node that calls
`ctx.sleep(until)` is next stepped when a message reaches it or in round
`until`, whichever comes first.  Rounds in which no node steps and no
message is in flight are skipped but still counted.
A program has one hook, `on_round`, and round 0 is its first step, with
an empty inbox.  A step receives the run's one context: `ctx.node` is the
node being stepped, and the context is valid only during that step.

The partwise-aggregation protocol splits work into an uncharged control
plane (per-part spanning trees of G[P_i], or of G[P_i]+H_i where that one is
strictly shorter, pruned to the part and rooted at their centres, start
delays drawn uniformly from the measured tree congestion range, contention
priorities) and a charged data plane (convergecast of partial aggregates up
each part tree followed by a broadcast of the result down).  Contention on
a shared edge is resolved by deterministic priority, smaller delay first,
then smaller part index; losers retry next round.  Only data-plane messages
on graph edges are counted in the trace.

Cost model: the control plane is linear in the merged subgraphs, besides
sorting the merged nodes' neighbour lists of a part with H_i edges (one BFS
of each from min(P_i), kept to the paths from the part's nodes up to it,
then re-rooted at the kept tree's centre by a walk over the heights
recorded by the pass that links children).  Only a part whose merged tree
keeps a Steiner node has G[P_i]'s tree built as well, one more such pass
over G[P_i], and the shorter is kept, G[P_i]'s on ties; with no Steiner
node live, the merged tree is G[P_i]'s tree.  A one-node part with an empty
H_i is its own tree, in O(1) and with no merged subgraph; when no two part
trees share an edge, every start delay is 0 and none is drawn.  A send
bisects the sender's neighbour tuple.  An aggregation step is one
`on_round` call.  One program object serves every node, with the per-node
state in flat containers (a role keyed part*n + node).  A node with one
role sends straight; a node with two or more keeps a queue per
destination, in first-use order, and its step also scans those queues.  A
node keeps one start round, for its own part's role while that is a leaf
that has not sent.  A payload, an int or a flat tuple of ints, is sized in
one pass.  Part-tree congestion is counted under an integer key per tree
edge, min(v,c)*n + max(v,c), and the value checks (a type test and two
comparisons each) and the results walk the parts' nodes.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .audit import _check_edge_types, _merged_subgraph, _part_edge_map
from .graph import Graph, GraphError, Partition, _check_node_count


def default_msg_bits(n: int) -> int:
    return 4 * math.ceil(math.log2(n + 1))


def int_bits(x: int) -> int:
    """Bits to encode an integer: magnitude plus one sign bit (0 costs 1 bit)."""
    return max(1, abs(x).bit_length()) + 1


def aggregate_header_bits(k: int) -> int:
    """Bits of an aggregation message ahead of its value: the part index
    (one of k) and the up/down kind."""
    return int_bits(max(k - 1, 0)) + int_bits(1)


_bit_length = int.bit_length  # raises TypeError on anything but an int


def payload_bits(payload) -> int:
    """Canonical size accounting of an int, or of a flat tuple of ints
    element-wise; anything else raises SimError."""
    if isinstance(payload, tuple):
        # int_bits(x) is x.bit_length() + 1, with 0 taking 1 bit
        bits = len(payload)
        try:
            for x in payload:
                bits += _bit_length(x) or 1
        except TypeError:  # a nested or non-int member
            raise SimError(f"unsupported payload type {type(x).__name__}") from None
        return bits
    if isinstance(payload, int):
        return int_bits(payload)
    raise SimError(f"unsupported payload type {type(payload).__name__}")


class SimError(Exception):
    """Simulator misuse or protocol failure."""


@dataclass(frozen=True)
class SimConfig:
    msg_bits: int | None = None  # default: 4 * ceil(log2(n+1))
    max_rounds: int = 1_000_000
    seed: int | str = 0  # str for derived streams, e.g. per MST phase
    log_messages: bool = False

    def msg_bits_for(self, n: int) -> int:
        """The per-message bit budget on an n-node graph."""
        return self.msg_bits if self.msg_bits is not None else default_msg_bits(n)


@dataclass(frozen=True)
class MessageRecord:
    round: int  # the round in which the edge carries the message
    src: int
    dst: int
    bits: int
    tag: str


@dataclass
class RoundTrace:
    rounds_used: int
    messages_sent: int
    log: tuple[MessageRecord, ...] | None
    outputs: dict[int, object]
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "rounds_used": self.rounds_used,
            "messages_sent": self.messages_sent,
            "meta": self.meta,
        }


@dataclass(frozen=True)
class AggregationTask:
    """Inputs of partwise aggregation: per-node values and an associative op."""

    values: Mapping[int, int]
    op: str  # "min", "max", or "sum"
    parts: Partition


class NodeContext:
    """The state of one run, handed to every program step.

    `run` builds one context per run and sets `node` to the node it steps
    before each `on_round` call; `send`, `sleep`, `halt` and `set_output`
    act for that node.  A context is valid only during the step it is
    passed to.  `send` checks a message and stores it in the
    receiver's inbox for the next round, which lists its senders in send
    order; a second send on one edge in one round raises there."""

    __slots__ = ("node", "round", "_msg_bits", "_neighbors", "_halted", "_awake",
                 "_wake_at", "_wakes", "_outputs", "_next", "_messages_sent", "_log")

    def __init__(self, g: Graph, cfg: SimConfig):
        self._msg_bits = cfg.msg_bits_for(g.n)
        if self._msg_bits < math.ceil(math.log2(g.n + 1)):
            raise SimError(
                f"msg_bits={self._msg_bits} cannot even carry a node id for n={g.n}"
            )
        self.node = 0  # the node being stepped
        self.round = -1  # the clock starts one before round 0
        self._neighbors = g.neighbors
        self._halted: set[int] = set()
        self._awake = set(range(g.n))  # stepped every round
        # round given to each node's latest sleep(); left over, harmlessly, once awake
        self._wake_at: list[int | None] = [None] * g.n
        # heap of (round, node); an entry that no longer matches _wake_at is stale
        self._wakes: list[tuple[int, int]] = []
        self._outputs: dict[int, object] = {}
        # next round's inboxes: dst -> {src: payload}, senders in send order
        self._next: dict[int, dict[int, object]] = {}
        self._messages_sent = 0
        self._log: list[MessageRecord] | None = [] if cfg.log_messages else None

    def send(self, dst: int, payload, tag: str = "") -> None:
        src = self.node
        nbrs = self._neighbors(src)
        try:
            i = bisect_left(nbrs, dst)
        except TypeError:  # dst is not a node id
            i = len(nbrs)
        if i == len(nbrs) or nbrs[i] != dst:
            raise SimError(f"node {src} tried to message non-neighbor {dst}")
        inbox = self._next.get(dst)
        if inbox is not None and src in inbox:
            raise SimError(
                f"node {src} sent twice on edge ({src}, {dst}) in round {self.round + 1}"
            )
        bits = payload_bits(payload)
        if bits > self._msg_bits:
            raise SimError(
                f"node {src} sent {bits} bits (> {self._msg_bits}) in round {self.round + 1}"
            )
        if inbox is None:
            inbox = self._next[dst] = {}
        inbox[src] = payload
        self._messages_sent += 1
        if self._log is not None:
            self._log.append(MessageRecord(self.round + 1, src, dst, bits, tag))

    def sleep(self, until: int | None = None) -> None:
        """Step this node next when a message reaches it or in round `until`
        (never, if None), whichever comes first.  An `until` that is not
        after the current round leaves the node awake."""
        if until is not None and until <= self.round:
            return
        v = self.node
        self._awake.discard(v)
        self._wake_at[v] = until
        if until is not None:
            heapq.heappush(self._wakes, (until, v))

    def halt(self) -> None:
        self._halted.add(self.node)
        self._awake.discard(self.node)

    def set_output(self, value) -> None:
        self._outputs[self.node] = value

    def _pop_due(self) -> list[int]:
        """Sleepers whose wake round is the current round."""
        wakes, due = self._wakes, []
        while wakes and wakes[0][0] <= self.round:
            w, v = heapq.heappop(wakes)
            if self._wake_at[v] == w:
                due.append(v)
        return due


class NodeProgram:
    """Pure state machine stepped by its one hook, `on_round`; round 0 is its
    first step, with an empty inbox.  Nodes communicate only through
    simulator-delivered messages."""

    __slots__ = ()

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, object]) -> None:
        pass


def run(g: Graph, programs: Sequence[NodeProgram], cfg: SimConfig) -> RoundTrace:
    """Execute one program per node until all halt or max_rounds is exceeded.

    The clock starts one before round 0 with every node awake, so round 0
    steps every node once, in id order, with an empty inbox.  Messages sent
    during round r occupy their edge in round r+1, when the receiver gets
    them in one inbox that lists its senders in send order; a message
    addressed to a node that has already halted is counted and logged but
    silently dropped.  Each round steps, in ascending id order, the awake
    nodes, the non-halted nodes with mail and the sleepers whose wake round
    has come; a step wakes the node.  When no node is awake and no message
    is in flight, the clock jumps to the round before the next wake round,
    or to max_rounds if no sleeper has one; the skipped rounds count in
    `rounds_used`.  Every step gets the run's one context, with `ctx.node`
    set to the node stepped.  Passing max_rounds raises `SimError` naming
    the cap.
    """
    if len(programs) != g.n:
        raise SimError(f"need {g.n} programs, got {len(programs)}")
    ctx = NodeContext(g, cfg)
    halted, awake, max_rounds = ctx._halted, ctx._awake, cfg.max_rounds
    empty: dict[int, object] = {}
    while len(halted) < g.n:
        if not awake and not ctx._next:
            # a stale heap top costs one empty round, never a missed wake
            wake = ctx._wakes[0][0] if ctx._wakes else max_rounds + 1
            ctx.round = min(wake - 1, max_rounds)
        if ctx.round >= max_rounds:
            raise SimError(f"exceeded max_rounds={max_rounds}")
        ctx.round += 1
        inboxes, ctx._next = ctx._next, {}
        for v in sorted(awake.union(inboxes, ctx._pop_due())):
            if v not in halted:
                awake.add(v)  # a later sleep() overwrites any pending wake
                ctx.node = v
                programs[v].on_round(ctx, inboxes.get(v, empty))
    config = {"msg_bits": ctx._msg_bits, "max_rounds": max_rounds, "seed": cfg.seed}
    return RoundTrace(
        rounds_used=ctx.round,
        messages_sent=ctx._messages_sent,
        log=tuple(ctx._log) if ctx._log is not None else None,
        outputs=ctx._outputs,
        meta={"config": config},
    )


# ---------------------------------------------------------------------------
# Partwise aggregation on a shortcut.
# ---------------------------------------------------------------------------

_OPS = {"min": min, "max": max, "sum": operator.add}

_UP, _DOWN = 0, 1
_TAGS = ("up", "down")  # message tag by kind


class _AggregateProgram(NodeProgram):
    """The aggregation protocol of one run: one object, handed to `run` once
    per node.

    A step reads and writes only the entries of `ctx.node`, so each node is
    still its own state machine.  The state sits in flat containers: a list
    entry per node, and a dict entry per role (a node's place in part i's
    tree) under the key `i * n + node`.  Only a leaf waits for its part's
    start delay: every leaf of a pruned part tree is a node of the part, so a
    node has at most one, and an inner role's last report leaves at or after
    the delay, so it is ready after it.  A node with two or more roles queues
    each message in its destination's heap, and its queues keep the order in
    which it first used the destinations."""

    __slots__ = ("op", "n", "delays", "part_of", "parent", "children", "acc", "waiting",
                 "unresolved", "start", "queues")

    def __init__(self, op: str, n: int, trees, delays: list[int], part_of, values):
        self.op = _OPS[op]
        self.n = n
        self.delays = delays
        self.part_of = part_of
        self.parent: dict[int, int | None] = {}  # role -> parent in its tree, None at the root
        self.children: dict[int, tuple[int, ...]] = {}  # role -> children in its tree
        self.acc: dict[int, int | None] = {}  # role -> partial aggregate, None on a relay
        self.waiting: dict[int, int] = {}  # role -> children that have not reported
        self.unresolved = [0] * n  # per node, roles still waiting for their part's result
        # per node, its part's start delay while its role there is a leaf that
        # has not sent, else None
        self.start: list[int | None] = [None] * n
        for i, (parent, children) in enumerate(trees):
            for v, cs in children.items():
                key = i * n + v
                self.parent[key] = parent[v]
                self.children[key] = cs
                self.acc[key] = values[v] if part_of[v] == i else None
                self.waiting[key] = len(cs)
                self.unresolved[v] += 1
                if not cs:  # a leaf, so a node of part i
                    self.start[v] = delays[i]
        # per node, None on one role (it messages each neighbour once, parent
        # first, so it sends straight), else dst -> heap of (delay, payload);
        # no key is deleted, so the keys keep the order a step sends in
        self.queues: list[dict[int, list] | None] = [{} if r > 1 else None for r in self.unresolved]

    def _resolve(self, ctx: NodeContext, key: int, part: int, value: int, out):
        """The role `key` of `ctx.node` learns its part's result: output it
        on a part node and queue it down to the role's children."""
        v = ctx.node
        self.unresolved[v] -= 1
        if self.part_of[v] == part:
            ctx.set_output(value)
        cs = self.children[key]
        if cs:
            payload = (part, _DOWN, value)
            if out is None:
                out = []
            out += [(c, payload) for c in cs]
        return out

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, object]) -> None:
        """One step: take the mail in; send up (or, at a root, resolve) every
        role made ready by mail and the node's leaf once its start delay has
        come, in part order; send each destination its highest-priority
        queued message, in the order the node first used the destinations;
        then, with nothing left queued, halt once every role has its result,
        else sleep until mail or the leaf's start round."""
        v, rnd, n = ctx.node, ctx.round, self.n
        acc, waiting = self.acc, self.waiting
        due = out = None
        start = self.start[v]
        if start is not None and start <= rnd:  # the leaf's delay has come
            start = self.start[v] = None
            due = [self.part_of[v]]
        for part, kind, value in inbox.values():
            key = part * n + v
            if kind == _UP:
                a = acc[key]
                acc[key] = value if a is None else self.op(a, value)
                left = waiting[key] - 1
                waiting[key] = left
                if not left:
                    if due is None:
                        due = [part]
                    else:
                        due.append(part)
            else:
                out = self._resolve(ctx, key, part, value, out)
        if due is not None:
            due.sort()  # part order fixes the order in which the roles queue
            for part in due:
                key = part * n + v
                up = self.parent[key]
                if up is None:
                    out = self._resolve(ctx, key, part, acc[key], out)
                elif out is None:
                    out = [(up, (part, _UP, acc[key]))]
                else:
                    out.append((up, (part, _UP, acc[key])))
        queues = self.queues[v]
        if queues is None:  # one role: out has one message per dst, in first-use order
            for dst, payload in out or ():
                ctx.send(dst, payload, tag=_TAGS[payload[1]])
        elif self._send(ctx, queues, out):
            return  # stay awake for the queued messages
        if not self.unresolved[v]:
            ctx.halt()
        else:
            ctx.sleep(start)

    def _send(self, ctx: NodeContext, queues: dict[int, list], out: list | None) -> bool:
        """Queue the step's messages `out`, (dst, payload), then send each
        destination its highest-priority queued message, in the order the
        node first used the destinations; returns whether any is left."""
        delays = self.delays
        for dst, payload in out or ():
            heap = queues.get(dst)
            if heap is None:
                heap = queues[dst] = []
            heapq.heappush(heap, (delays[payload[0]], payload))
        for dst, heap in queues.items():
            if heap:
                payload = heapq.heappop(heap)[1]
                ctx.send(dst, payload, tag=_TAGS[payload[1]])
        return any(queues.values())


def _part_tree(g: Graph, part: Sequence[int], edges: frozenset[int], index: int):
    """Rooted spanning tree of G[P_i]+H_i pruned to the part (control plane).

    The tree is the BFS tree from min(P_i), over neighbours in ascending
    order, cut down to the union of the paths from the part's nodes up to
    min(P_i), then re-rooted at its centre: the walk from min(P_i) steps to
    the tallest child while the eccentricity drops, so a tie goes to the
    centre nearest min(P_i), and the parent pointers along the walk are
    reversed.  The edge set is the pruned BFS tree's; the height is the
    tree's radius.  Returns (parent, children, height): the parent of every
    merged node (None at the root), the children of every live node as a
    tuple in BFS order, a former parent last, keyed by exactly the live
    nodes, and the tree's height; raises if the merged subgraph is
    disconnected.  A one-node part with an empty H_i is its own tree, built
    in O(1) with no merged subgraph.
    """
    if not edges and len(part) == 1:  # a lone node is its own tree
        return {part[0]: None}, {part[0]: ()}, 0
    nodes, adj = _merged_subgraph(g, part, edges)
    if edges:  # only H_i's edges are appended out of order; without them all lists ascend
        for nbrs in adj.values():
            nbrs.sort()  # no duplicates: the merged subgraph lists each edge once
    root = min(part)
    parent: dict[int, int | None] = {root: None}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    if len(order) != len(nodes):
        raise SimError(f"merged subgraph of part {index} is disconnected")
    children: dict[int, list[int]] = {root: []}
    for v in part:
        while v not in children:
            children[v] = []
            v = parent[v]
    height = dict.fromkeys(children, 0)
    for v in order[:0:-1]:  # reverse BFS order: a node's children come first
        if v in children:
            pv = parent[v]
            children[pv].append(v)  # so each list is in reverse BFS order
            hv = height[v] + 1
            if hv > height[pv]:
                height[pv] = hv
    # Walk down into the tallest child while that drops the eccentricity.
    # `up` is the distance from the walk's node to the farthest live node
    # outside its subtree and never exceeds the node's height, so the
    # eccentricity is the height, and a step drops it iff the step's `up`
    # stays below the height it leaves.  `beside` is the longest way down
    # through the other children.
    walk, up = [root], 0
    while up + 1 < height[root]:
        tallest, beside, below = None, 0, height[root] - 1
        for c in children[root]:
            if tallest is None and height[c] == below:
                tallest = c
            elif height[c] >= beside:
                beside = height[c] + 1
        up = max(up, beside) + 1
        if up >= height[root]:
            break
        walk.append(tallest)
        root = tallest
    for v, pv in zip(walk, walk[1:]):
        children[v].remove(pv)
        children[pv].insert(0, v)  # last once the list is put in BFS order
        parent[v] = pv
    parent[root] = None
    return parent, {v: tuple(cs[::-1]) for v, cs in children.items()}, height[root]


def _chosen_part_tree(g: Graph, part: Sequence[int], edges: frozenset[int], index: int):
    """The part tree aggregation uses: `_part_tree` over G[P_i]+H_i, or over
    G[P_i] alone where that tree is no taller.

    The merged tree is built first.  Only when it keeps a Steiner node is
    G[P_i]'s tree built too: with none live it already is that tree.  A tie
    goes to G[P_i]'s tree, whose edges join two nodes of the part, so no
    other part's tree shares them.  A part that only H_i connects keeps its
    merged tree.
    """
    tree = _part_tree(g, part, edges, index)
    if len(tree[1]) > len(part):  # `children` is keyed by the live nodes
        try:
            own = _part_tree(g, part, frozenset(), index)
        except SimError:  # G[P_i] is disconnected
            return tree
        if own[2] <= tree[2]:
            return own
    return tree


def partwise_aggregate(
    g: Graph, parts: Partition, shortcut, task: AggregationTask, cfg: SimConfig
) -> tuple[dict[int, int], RoundTrace]:
    """Every node of every part learns the exact aggregate of its part.

    Returns (results, trace) where results maps each node belonging to a part
    to the aggregate of that part's values.  Node count, shortcut entries,
    values and edge ids are checked here.  A part aggregates over G[P_i]'s
    tree unless H_i makes its tree strictly shorter (`_chosen_part_tree`).
    The trace meta splits the rounds: `tree_congestion` is the most part
    trees on one edge, `critical_path` is max_i(delay_i + 2*height_i), which
    no run beats, and `contention_rounds` are the rounds beyond it, 0 when
    no two part trees share an edge.
    """
    _check_node_count(g, parts)
    edge_map = _part_edge_map(shortcut, parts)
    if task.op not in _OPS:
        raise SimError(f"unsupported op {task.op!r}")
    if task.parts.parts != parts.parts:
        raise SimError("task partition does not match the supplied partition")
    values = task.values
    budget = cfg.msg_bits_for(g.n) - aggregate_header_bits(parts.k)
    limit = 1 << (budget - 1) if budget > 1 else 0  # int_bits(x) <= budget iff abs(x) < limit
    bad = [
        v
        for part in parts.parts
        for v in part
        if not isinstance(x := values.get(v), int) or not -limit < x < limit
    ]
    if bad:
        v = min(bad)  # the first in id order
        if v not in values:
            raise SimError(f"node {v} belongs to a part but has no value")
        x = values[v]
        if not isinstance(x, int):
            raise SimError(f"value of node {v} has type {type(x).__name__}, not int")
        raise SimError(
            f"value of node {v} needs {int_bits(x)} bits; only {budget} available after the header"
        )
    m = g.m
    unknown = [
        (i, e) for i, es in edge_map.items() for e in es if type(e) is not int or not 0 <= e < m
    ]
    if unknown:
        _check_edge_types(unknown)
        raise GraphError(f"unknown edge id {min(e for _, e in unknown)}")
    trees, heights = [], []
    edge_use: dict[int, int] = {}  # keyed min(v, c) * n + max(v, c)
    n = g.n
    for i in range(parts.k):
        parent, children, height = _chosen_part_tree(
            g, parts.parts[i], edge_map.get(i, frozenset()), i
        )
        trees.append((parent, children))
        heights.append(height)
        for v, cs in children.items():
            for c in cs:
                key = v * n + c if v < c else c * n + v
                edge_use[key] = edge_use.get(key, 0) + 1
    tree_congestion = max(edge_use.values(), default=0)
    delay_range = max(tree_congestion, 1)
    if delay_range == 1:  # every delay is 0: no draw
        delays = [0] * parts.k
    else:
        control_rng = random.Random(f"{cfg.seed}:delays")
        delays = [control_rng.randrange(delay_range) for _ in range(parts.k)]
    program = _AggregateProgram(task.op, n, trees, delays, parts.part_of, values)
    trace = run(g, [program] * n, cfg)
    critical_path = max((d + 2 * h for d, h in zip(delays, heights)), default=0)
    trace.meta.update(
        charged="data plane only: aggregate payloads on graph edges",
        contention_rounds=trace.rounds_used - critical_path,
        control_plane="part trees, delays, and priorities computed centrally",
        critical_path=critical_path,
        delay_range=delay_range,
        op=task.op,
        part_root="centre of the pruned BFS tree from min(P_i) over G[P_i], or over"
        " G[P_i]+H_i where that tree is strictly shorter or G[P_i] is disconnected;"
        " nearest min(P_i) on ties",
        part_tree_depth=max(heights, default=0),
        parts=parts.k,
        tree_congestion=tree_congestion,
    )
    outputs = trace.outputs
    try:
        results = {v: outputs[v] for part in parts.parts for v in part}
    except KeyError:
        v = min(v for part in parts.parts for v in part if v not in outputs)
        raise SimError(f"node {v} finished without a result") from None
    return results, trace

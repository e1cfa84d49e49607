"""Certifying construction of tree-restricted low-congestion shortcuts.

Given a rooted depth-D spanning tree and connected node-disjoint parts, the
engine marks "overcongested" tree edges bottom-up against a threshold
c = 8*delta*D, reads off a bipartite congestion structure between marked
edges and parts, and then either

  * covers at least half of the parts with a partial shortcut whose edges are
    their ancestor tree edges in the forest obtained by cutting the marked
    edges, trimmed to each part's Steiner forest, found by walking up from
    each covered part's nodes in O(sum |P_i| + |H_i| + D*r_i) steps, r_i
    the number of forest components part i meets, and O(1) for a one-node
    part, whose set is empty (case I), or
  * samples a bipartite minor of the host graph whose exact rational density
    exceeds delta, certifying that no such shortcut family exists at this
    delta (case II).

A doubling search over delta turns partial shortcuts into a full shortcut for
every part; case II failures double delta and restart.  All randomness comes
from an explicit `random.Random`, so identical inputs and seeds reproduce
identical outputs, including certificates.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, KeysView, Mapping

from .audit import validate_minor
from .graph import _INT_TOKEN, Graph, GraphError, Partition, RootedTree
from .graph import _check_node_count, _line_ints

# Case-II retry budget per construction call, scaled by tree depth.  One
# attempt succeeds with probability Omega(1/D) when the dichotomy holds, so
# 64 * D attempts make an undetected dense minor overwhelmingly unlikely;
# running out is non-fatal (the doubling search proceeds uncertified).
MINOR_ATTEMPTS_PER_DEPTH = 64


class EngineError(Exception):
    """Shortcut construction failed in a way the caller must handle."""


@dataclass(frozen=True)
class CongestionMarking:
    """The bipartite congestion structure: overcongested tree edges, the parts
    below each, and a representative node per (edge, part) link.

    `parts_below[e][i]` exists exactly when e is marked and part i meets the
    live subtree below e, the subtree of e's deeper endpoint cut at marked
    edges; its value is the minimum-id node of part i in that subtree.
    Unmarked edges have no entry (their part sets are below threshold).
    """

    parts_below: Mapping[int, Mapping[int, int]]

    @property
    def overcongested(self) -> KeysView[int]:
        return self.parts_below.keys()


@dataclass(frozen=True)
class PartialShortcut:
    edge_sets: Mapping[int, frozenset[int]]  # keyed by the covered parts


@dataclass(frozen=True)
class MinorNode:
    kind: str  # "part" or "edge"
    ref: int  # part index or tree edge id
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class MinorEdge:
    a: int
    b: int
    witness: int  # edge id of the host graph realizing this minor edge


@dataclass(frozen=True)
class MinorCertificate:
    nodes: tuple[MinorNode, ...]
    edges: tuple[MinorEdge, ...]
    density: Fraction


# A full shortcut: the edge ids of H_i at index i, for every part i.
Shortcut = tuple[frozenset[int], ...]


@dataclass(frozen=True)
class ConstructOutcome:
    partial: PartialShortcut | None = None  # set exactly in case I
    certificate: MinorCertificate | None = None

    @property
    def case(self) -> str:
        return "II" if self.partial is None else "I"


@dataclass(frozen=True)
class EngineConfig:
    max_delta: int | None = None  # default: host node count


@dataclass(frozen=True)
class ConstructStats:
    iterations_by_delta: tuple[tuple[int, int], ...]
    uncertified_failures: int
    certificate_deltas: tuple[int, ...]  # aligned with the certificates tuple


@dataclass(frozen=True)
class FullShortcutResult:
    shortcut: Shortcut
    delta_final: int
    certificates: tuple[MinorCertificate, ...]
    stats: ConstructStats


def mark_overcongested(t: RootedTree, p: Partition, c: int) -> CongestionMarking:
    """Bottom-up marking of tree edges whose live subtree meets >= c parts.

    Edges are processed children-before-parents.  Each node accumulates the
    parts intersecting its subtree, where subtrees hanging below an
    already-marked edge no longer propagate upward; the edge above a node is
    marked exactly when the accumulated part count reaches c, and that
    node's accumulated map becomes the edge's entry.  A childless node's map
    would hold at most its own part, so for c >= 2 it builds none: its
    parent reads the node's part directly, keeping the smaller
    representative as a merge would.  At c = 1 a childless node with a part
    is marked, so at that threshold it keeps its own map.
    """
    if c < 1:
        raise ValueError(f"threshold must be >= 1, got {c}")
    _check_node_count(t.graph, p)
    part_of, children, parent_edge, root = p.part_of, t.children, t.parent_edge, t.root
    leaf_maps = c == 1  # the only threshold a childless node's edge can reach
    parts_below: dict[int, dict[int, int]] = {}
    below: list[dict[int, int] | None] = [None] * t.graph.n
    for v in t.order:  # non-increasing depth
        kids = children[v]
        if not kids and not leaf_maps:
            continue
        acc: dict[int, int] = {}
        own = part_of[v]
        if own is not None:
            acc[own] = v
        for ch in kids:
            if not leaf_maps and not children[ch]:
                part = part_of[ch]
                if part is not None:
                    cur = acc.get(part)
                    if cur is None or ch < cur:
                        acc[part] = ch
                continue
            if parent_edge[ch] in parts_below:
                continue
            chmap = below[ch]
            if len(chmap) > len(acc):
                acc, chmap = chmap, acc
            for part, node in chmap.items():
                cur = acc.get(part)
                if cur is None or node < cur:
                    acc[part] = node
            below[ch] = None
        below[v] = acc
        if v != root and len(acc) >= c:
            # the parent skips this marked child, so acc is never merged again
            parts_below[parent_edge[v]] = acc
    return CongestionMarking(parts_below)


def case_one_partial(
    marking: CongestionMarking, t: RootedTree, p: Partition, delta: int
) -> PartialShortcut | None:
    """Cover every part with at most 8*delta marked edges above it, if that is
    at least half of the parts.

    A covered part receives its ancestor edges in the forest obtained by
    deleting the marked edges, trimmed to its Steiner forest: the edges that
    separate two of its nodes within their forest component.  Those edges
    all have fewer than threshold parts below them, which is what bounds the
    congestion.  The trim drops, per component, the pendant path above the
    part's branch point, so dilation is no larger and the block count the
    same as with all ancestor edges.  Each covered part's set is one upward
    walk from each of its nodes, stopping at the root, at a marked edge (the
    component's top) or at a node whose parent edge the part already holds
    (a join).  A top reached by one walk only loses that walk's edges down
    to its first part node or join: that pendant path is walked, then
    dropped, and is up to D edges long per component the part meets.  A
    covered part meets at most 8*delta + 1 components (one below each marked
    edge above it, and the root's), so the cost is O(|P_i| + |H_i| + D*r_i)
    per part, r_i the number of components it meets.  A one-node part has
    no two nodes to separate, so it gets the empty set, without a walk, in
    O(1).
    """
    k = p.k
    deg = Counter(i for parts in marking.parts_below.values() for i in parts)
    eligible = [i for i in range(k) if deg[i] <= 8 * delta]
    if len(eligible) < -(-k // 2):  # ceil(k/2)
        return None
    blocked = marking.overcongested
    parent, parent_edge, root, part_of = t.parent, t.parent_edge, t.root, p.part_of
    edge_sets: dict[int, frozenset[int]] = {}
    for i in eligible:
        part = p.parts[i]
        if len(part) == 1:  # a lone node's Steiner forest is empty: no walk
            edge_sets[i] = frozenset()
            continue
        edges: set[int] = set()
        walked: list[int] = []  # every walk's nodes, bottom-up, walks in order
        tops: dict[int, int | None] = {}  # top -> its index in walked, None if reached twice
        joins: set[int] = set()  # nodes where a walk met an earlier one
        for v in part:
            walked.append(v)
            while v != root and (eid := parent_edge[v]) not in blocked:
                if eid in edges:
                    joins.add(v)
                    break
                edges.add(eid)
                v = parent[v]
                walked.append(v)
            else:
                tops[v] = None if v in tops else len(walked) - 1
        for j in tops.values():  # drop each pendant path above the part's branch point
            while j is not None and part_of[walked[j]] != i and walked[j] not in joins:
                j -= 1
                edges.remove(parent_edge[walked[j]])
        edge_sets[i] = frozenset(edges)
    return PartialShortcut(edge_sets=edge_sets)


def sample_dense_minor(
    g: Graph,
    t: RootedTree,
    p: Partition,
    marking: CongestionMarking,
    delta: int,
    rng: random.Random,
) -> MinorCertificate | None:
    """Randomized search for a bipartite minor of density strictly above delta.

    Each attempt samples parts independently with probability 1/(4D); the
    minor's nodes are the sampled parts plus the marked edges whose deeper
    endpoint survives the sampling, each mapped to its live tree component.
    A link (e, i) survives when the tree path from the deeper endpoint of e
    down to the recorded representative of part i (endpoint included,
    representative excluded) avoids every sampled part.  Returns the first
    certificate whose exact density exceeds delta, or None after the retry
    budget is exhausted.
    """
    depth_scale = max(t.D, 1)
    prob = 1.0 / (4 * depth_scale)
    o_edges = sorted(marking.overcongested)
    k = p.k
    for _ in range(MINOR_ATTEMPTS_PER_DEPTH * depth_scale):
        sampled = [i for i in range(k) if rng.random() < prob]
        in_sampled = bytearray(g.n)
        for i in sampled:
            for v in p.parts[i]:
                in_sampled[v] = 1
        edge_nodes = [e for e in o_edges if not in_sampled[t.deeper_endpoint(e)]]
        node_count = len(sampled) + len(edge_nodes)
        if node_count == 0:
            continue
        links: list[tuple[int, int, int]] = []  # (edge id, part, witness)
        for e in edge_nodes:
            ve = t.deeper_endpoint(e)
            reps = marking.parts_below[e]
            for i in sampled:
                rep = reps.get(i)
                if rep is None:
                    continue
                cur = t.parent[rep]
                while not in_sampled[cur]:
                    if cur == ve:
                        links.append((e, i, t.parent_edge[rep]))
                        break
                    cur = t.parent[cur]
        density = Fraction(len(links), node_count)
        if density <= delta:
            continue
        # success: materialize the vertex sets and emit a checked certificate
        part_index = {i: pos for pos, i in enumerate(sampled)}
        edge_index = {e: len(sampled) + pos for pos, e in enumerate(edge_nodes)}
        nodes = [MinorNode("part", i, p.parts[i]) for i in sampled]
        for e in edge_nodes:
            comp = _live_component(t, marking.overcongested, in_sampled, e)
            nodes.append(MinorNode("edge", e, comp))
        edges = tuple(
            MinorEdge(edge_index[e], part_index[i], witness) for e, i, witness in links
        )
        cert = MinorCertificate(nodes=tuple(nodes), edges=edges, density=density)
        try:
            validate_minor(g, cert)
        except GraphError as exc:
            raise EngineError(f"sampled certificate failed validation: {exc}") from None
        return cert
    return None


def _live_component(
    t: RootedTree, blocked: Container[int], removed: bytearray, eid: int
) -> tuple[int, ...]:
    """Vertices reachable downward from the deeper endpoint of `eid` through
    unmarked tree edges and non-removed nodes."""
    comp = [t.deeper_endpoint(eid)]
    for v in comp:  # the list grows behind the loop, as in `bfs_tree`
        for ch in t.children[v]:
            if t.parent_edge[ch] not in blocked and not removed[ch]:
                comp.append(ch)
    return tuple(sorted(comp))


def construct_partial(
    g: Graph, t: RootedTree, p: Partition, delta: int, rng: random.Random
) -> ConstructOutcome:
    """One shot of the dichotomy at a fixed delta: partial shortcut or minor."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    c = 8 * delta * max(t.D, 1)
    marking = mark_overcongested(t, p, c)
    partial = case_one_partial(marking, t, p, delta)
    if partial is not None:
        return ConstructOutcome(partial=partial)
    return ConstructOutcome(certificate=sample_dense_minor(g, t, p, marking, delta, rng))


def construct_full(
    g: Graph, t: RootedTree, p: Partition, config: EngineConfig, rng: random.Random
) -> FullShortcutResult:
    """Doubling search over delta, iterating partial shortcuts to cover all parts.

    Within one delta, each iteration runs the dichotomy on the still-uncovered
    parts and freezes the edge sets of the newly covered ones; a case-II event
    abandons the delta entirely (frozen assignments are discarded), records
    the certificate if one was found, and doubles.  Case I cannot fail once
    delta reaches the true minor density, so the search terminates with
    delta_final below twice that value.  The shortcut holds part i's edge
    set at index i.  The first iteration of each delta runs on `p` itself,
    later ones on the subset of parts still uncovered.  `config.max_delta`
    caps delta (None: the node count), and every random draw comes from `rng`.
    """
    max_delta = config.max_delta if config.max_delta is not None else g.n
    certificates: list[MinorCertificate] = []
    certificate_deltas: list[int] = []
    iterations_log: list[tuple[int, int]] = []
    uncertified = 0
    delta = 1
    while delta <= max_delta:
        edge_sets: list[frozenset[int] | None] = [None] * p.k
        remaining = list(range(p.k))
        iteration = 0
        while remaining:
            iteration += 1
            sub = p if len(remaining) == p.k else p.subset(remaining)
            outcome = construct_partial(g, t, sub, delta, rng)
            partial = outcome.partial
            if partial is None:
                if outcome.certificate is not None:
                    certificates.append(outcome.certificate)
                    certificate_deltas.append(delta)
                else:
                    uncertified += 1
                break
            for sub_i, edges in partial.edge_sets.items():
                edge_sets[remaining[sub_i]] = edges
            remaining = [
                remaining[j] for j in range(len(remaining)) if j not in partial.edge_sets
            ]
        iterations_log.append((delta, iteration))
        if not remaining:
            stats = ConstructStats(
                iterations_by_delta=tuple(iterations_log),
                uncertified_failures=uncertified,
                certificate_deltas=tuple(certificate_deltas),
            )
            return FullShortcutResult(
                shortcut=tuple(edge_sets),  # every part is covered, so no entry is None
                delta_final=delta,
                certificates=tuple(certificates),
                stats=stats,
            )
        delta *= 2
    raise EngineError(f"no shortcut found for any delta <= {max_delta}")


# ---------------------------------------------------------------------------
# Serialization: shortcut files ("i : e1 e2 ...") and certificate JSON dicts.
# ---------------------------------------------------------------------------


def dumps_shortcut(shortcut: Shortcut) -> str:
    lines = []
    for i, edges in enumerate(shortcut):
        ids = " ".join(str(e) for e in sorted(edges))
        lines.append(f"{i} : {ids}".rstrip())
    return "\n".join(lines) + "\n"


def loads_shortcut(text: str) -> Shortcut:
    rows: dict[int, frozenset[int]] = {}
    for no, ln in enumerate(text.splitlines(), 1):
        if not ln.strip():
            continue
        head, sep, rest = ln.partition(":")
        index = head.split()
        if not sep or len(index) != 1:
            raise GraphError(f"shortcut file line {no}: expected 'part : edge ids', got {ln!r}")
        (i,) = _line_ints(index, "shortcut", no)
        if i in rows:
            raise GraphError(f"shortcut file repeats part index {i}")
        ids = _line_ints(rest.split(), "shortcut", no)
        rows[i] = frozenset(ids)
        if len(rows[i]) != len(ids):
            e = next(e for k, e in enumerate(ids) if e in ids[:k])
            raise GraphError(f"shortcut file line {no}: edge id {e} listed twice")
    if sorted(rows) != list(range(len(rows))):
        raise GraphError("shortcut file part indices are not dense")
    return tuple(rows[i] for i in range(len(rows)))


def certificate_to_json_dict(cert: MinorCertificate) -> dict:
    return {
        "density": f"{cert.density.numerator}/{cert.density.denominator}",
        "nodes": [
            {"kind": n.kind, "ref": n.ref, "vertices": list(n.vertices)}
            for n in cert.nodes
        ],
        "edges": [{"a": e.a, "b": e.b, "witness": e.witness} for e in cert.edges],
    }


def _cert_field(obj, key: str, path: str, kind: type):
    """obj[key], checked to be a `kind` (a bool is not an int); a missing or
    mistyped field raises GraphError naming it, as in `nodes[2].vertices`."""
    name = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise GraphError(f"certificate field {path or 'root'}: expected an object")
    if key not in obj:
        raise GraphError(f"certificate field {name} is missing")
    value = obj[key]
    if not (type(value) is int if kind is int else isinstance(value, kind)):
        raise GraphError(
            f"certificate field {name}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def certificate_from_json_dict(data: dict) -> MinorCertificate:
    """Inverse of certificate_to_json_dict; a malformed field raises GraphError."""
    text = _cert_field(data, "density", "", str)
    num, slash, den = text.partition("/")
    den = den if slash else "1"
    if not (_INT_TOKEN.fullmatch(num) and _INT_TOKEN.fullmatch(den)):
        raise GraphError(f"certificate field density: {text!r} is not an integer ratio")
    if int(den) == 0:
        raise GraphError(f"certificate field density: {text!r} has a zero denominator")
    density = Fraction(int(num), int(den))
    nodes = []
    for idx, node in enumerate(_cert_field(data, "nodes", "", list)):
        path = f"nodes[{idx}]"
        kind, ref = _cert_field(node, "kind", path, str), _cert_field(node, "ref", path, int)
        vertices = _cert_field(node, "vertices", path, list)
        if not all(type(v) is int for v in vertices):
            raise GraphError(f"certificate field {path}.vertices: expected a list of ints")
        nodes.append(MinorNode(kind, ref, tuple(vertices)))
    edges = [
        MinorEdge(*(_cert_field(edge, key, f"edges[{idx}]", int) for key in ("a", "b", "witness")))
        for idx, edge in enumerate(_cert_field(data, "edges", "", list))
    ]
    return MinorCertificate(nodes=tuple(nodes), edges=tuple(edges), density=density)
